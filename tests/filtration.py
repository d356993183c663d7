"""Reference views of the +-1 part that the pipeline does not run.

Riehm's filtration by height (J. Algebra 31, 1974) groups the peeled
pieces by order into orthogonal free components and reads the induced form
on each; the elementary divisor multiplicities come from the rank sequence
of (S - lam)^k.  The acceptance suite checks the peeling against both.
"""

from __future__ import annotations

from collections import namedtuple

from matcanon.errors import InternalDegenerate
from matcanon.exactmat import ExactMatrix, inverse_or_rank
from matcanon.unipotent import peel_all

FreeModuleComponent = namedtuple("FreeModuleComponent",
                                 "eps order basis gram hat_gram pieces")


def alternating_flag(gram):
    """True iff the form is alternating (zero diagonal and skew-symmetric;
    in characteristic 2 skew-symmetric means symmetric)."""
    n = gram.nrows
    for i in range(n):
        if not gram[i, i].is_zero():
            return False
    return gram.transpose() == -gram


def filtration(gram, nmat, eps):
    """Group the peeled pieces by order into orthogonal free components."""
    pieces = peel_all(gram, nmat, eps)
    ctx = gram.ctx
    by_order = {}
    for p in pieces:
        by_order.setdefault(p.order, []).append(p)
    comps = []
    for m in sorted(by_order, reverse=True):
        group = by_order[m]
        basis = ExactMatrix.blocks(ctx, [[p.basis for p in group]])
        cgram = basis.transpose() @ gram @ basis
        hat = hat_form_from_pieces(gram, nmat, group, m)
        comps.append(FreeModuleComponent(eps, m, basis, cgram, hat, group))
    return comps


def hat_form_from_pieces(gram, nmat, group, m):
    """Gram matrix of the induced form on V_m / p V_m.

    Generators: the cyclic vector of each single piece, both generators of
    each pair piece.  f_hat(u, v) = f(p^{m-1} u, v).
    """
    n = gram.nrows
    umat = ExactMatrix.blocks(gram.ctx, [[
        p.basis.submatrix(range(n), [0] if p.kind == "single" else [0, m])
        for p in group]])
    hat = (nmat.power(m - 1) @ umat).transpose() @ gram @ umat
    if inverse_or_rank(hat, rank_only=True).rank != hat.nrows:
        raise InternalDegenerate("hat form is degenerate")
    return hat


def elementary_divisor_multiplicities(s, lam):
    """Map m -> number of elementary divisors (X-lam)^m of S."""
    ctx = s.ctx
    n = s.nrows
    m0 = s.minus_scalar(lam)
    ranks = [n]
    power = ExactMatrix.identity(ctx, n)
    for _ in range(n + 1):
        power = power @ m0
        ranks.append(inverse_or_rank(power, rank_only=True).rank)
    out = {}
    for m in range(1, n + 1):
        cnt = ranks[m - 1] - 2 * ranks[m] + ranks[m + 1]
        if cnt:
            out[m] = cnt
    return out

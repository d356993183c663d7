"""Asymmetry of a non-degenerate form and its eigenvalue-based splitting.

For invertible A the asymmetry is S = A^{-1} A'.  Its minimal polynomial is
split into linear factors (extending the field by quadratic or
Artin-Schreier adjunctions when allowed); the space then decomposes into
generalized eigenspaces, orthogonal except for the pairing of V_lam with
V_{1/lam}.  Paired classes reduce to hyperbolic blocks ((0, J_m(lam)), (I, 0)).

Roots are taken one at a time: 1, else -1, else the least in the field.
Over GF(q) (a tower included) the roots of f in the field are those of
g = gcd(f, X^q - X), which field.frobenius_gcd computes on raw values (the
routine of Rabin's irreducibility test, with another exponent) once per
context: one search lists the roots until an adjunction changes q.  g is
split into linear factors by Cantor-Zassenhaus: gcd(g, (X + a)^((q-1)/2) - 1)
for odd q, or gcd(g, Tr(aX) mod g) with Tr(Y) = Y + Y^2 + ... + Y^(2^(m-1))
for q = 2^m, over shifts a drawn from field.random_elements.  The work is
polynomial in log q, and the list is in iter_elements order whatever the
draws.  Over Q, rational roots come from the rational-root theorem.
Factors with no root are quadratics or palindromes, reached by adjunction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key

from .errors import (BudgetExceeded, DegenerateRestriction,
                     InternalDegenerate, NoArtinSchreierRootStrict,
                     NoRootStrictPolicy, NotSplit, SingularInput)
from .exactmat import ExactMatrix, first_dependence, inverse_or_rank
from .field import (EXTEND, _poly_axpy, _poly_divmod, _poly_gcd, _poly_mulmod,
                    _poly_powmod, _poly_trim, _raw_ops, canonical_compare,
                    enumeration_key, frobenius_gcd, quadratic_roots,
                    random_elements)

_TRIAL_BUDGET = 2_000_000
# a shift splits a factor with two or more roots with probability about 1/2
# or better; 64 failures in a row mean the context is not a field
_SPLIT_TRIES = 64


class Asymmetry:
    """S = A^{-1}A' with its minimal polynomial and (optional) split roots.

    ctx is where the roots were found, which splitting may extend beyond
    the context of S; the arithmetic lifts S and its polynomial there.
    """

    def __init__(self, s, min_poly, ctx, split_roots=None):
        self.s = s
        self.min_poly = min_poly      # monic, low-to-high Scalar coefficients
        self.ctx = ctx
        self.split_roots = split_roots  # list of (root, multiplicity) or None


def asymmetry(a):
    """Asymmetry of an invertible Gram matrix, with exact minimal polynomial."""
    s = asymmetry_matrix(a)
    return Asymmetry(s, _minimal_polynomial(s), a.ctx)


def asymmetry_matrix(a):
    """S = A^{-1} A' for an invertible Gram matrix A."""
    inv = inverse_or_rank(a).inverse
    if inv is None:
        raise SingularInput("asymmetry needs an invertible Gram matrix")
    return inv @ a.transpose()


def _minimal_polynomial(s):
    """Monic minimal polynomial: the first dependence among I, S, S^2, ...

    The powers are formed one at a time and each, flattened, is reduced
    against the ones before it (exactmat.first_dependence), so a minimal
    polynomial of degree d costs d - 1 products, not the n of all powers up
    to S^n.
    """
    n = s.nrows

    def powers():
        yield ExactMatrix.identity(s.ctx, n)
        p = s
        for _ in range(n):  # S^n depends on I, ..., S^(n-1) (Cayley-Hamilton)
            yield p
            p = p @ s

    poly = first_dependence(s.ctx, ([e for row in p.rows for e in row]
                                    for p in powers()))
    if poly is None:
        raise InternalDegenerate("I, S, ..., S^n are independent")
    return poly


# -- evaluation (coefficients low-to-high) ------------------------------------

def poly_eval(p, x):
    acc = x.ctx.zero()
    for c in reversed(p):
        acc = acc * x + c
    return acc


# -- root finding ------------------------------------------------------------------

def split_min_poly(asym, policy=EXTEND):
    """Factor the minimal polynomial into linear factors, extending if allowed.

    Returns a new Asymmetry with split_roots filled and a possibly larger
    context; each root is searched for in the tower the one before it
    reached.  Raises NotSplit when a factor cannot be reached by quadratic
    (or Artin-Schreier) adjunctions or the policy forbids extending.
    """
    ctx = asym.ctx
    work = list(asym.min_poly)
    roots = []
    # None, or the roots of work in its context not yet peeled, least first:
    # X^q mod work is computed once per context, not once per root
    listed = None
    while len(work) >= 2:
        root, listed = _find_one_root(work, policy, listed)
        ctx = root.ctx
        work = [c.promote(ctx) for c in work]
        work, mult = _extract_root(work, root)
        if mult == 0:
            raise InternalDegenerate("claimed root does not divide")
        roots.append((root, mult))
        # keep the remaining factor inversion-closed: the partner 1/root
        # lives in the same tower, so peel it now
        partner = root.inverse()
        if partner != root and len(work) > 1 \
                and poly_eval(work, partner).is_zero():
            work, mult2 = _extract_root(work, partner)
            roots.append((partner, mult2))
        listed = listed and [r for r in listed if r not in (root, partner)]
    _check_inverse_closed(roots)
    return Asymmetry(asym.s, asym.min_poly, ctx, split_roots=roots)


def _extract_root(work, root):
    """work / (X - root)^m for the largest such m, and m (one context)."""
    ops = _raw_ops(root.ctx)
    raw, linear = ops.unwrap([work, [-root, root.ctx.one()]])
    mult = 0
    while len(raw) > 1:
        quot, rem = _poly_divmod(ops, raw, linear)
        if rem != [ops.zero]:
            break
        raw, mult = quot, mult + 1
    return list(ops.wrap([raw])[0]), mult


def _check_inverse_closed(roots):
    for r, m in roots:
        rinv = r.inverse()
        found = [(s, k) for s, k in roots if s == rinv]
        if not found or found[0][1] != m:
            raise InternalDegenerate(
                "asymmetry roots are not closed under inversion")


def _find_one_root(poly, policy, listed=None):
    """One root of a monic polynomial whose coefficients share one context:
    1, else -1, else the least in that context, else one adjoined to it.
    listed, None or poly's roots there (least first), is returned with the
    root: found here if needed, None after an adjunction (q has changed)."""
    ctx = poly[0].ctx
    if len(poly) == 2:
        return -poly[0] / poly[1], listed
    if listed is None:
        cand = next((c for c in (ctx.one(), -ctx.one())
                     if poly_eval(poly, c).is_zero()), None)
        if cand is None and ctx.kind != "rational":
            listed = _finite_field_roots(poly)
        elif cand is None and all(not c.trim().ctx.tower for c in poly):
            cand = _rational_root(poly)
        if cand is not None:
            return cand, None
    if listed:  # made when 1 and -1 were not roots, so neither is listed
        return listed[0], listed
    if len(poly) == 3:
        return _quadratic_root(poly, policy), None
    pal = _palindrome_transform(poly)
    if pal is not None:
        mu, _ = _find_one_root(pal, policy)
        # X^2 - mu X + 1 = 0
        one = mu.ctx.one()
        return _quadratic_root([one, -mu, one], policy), None
    raise NotSplit("irreducible factor of degree %d is not reachable by "
                   "quadratic adjunctions" % (len(poly) - 1))


def _finite_field_roots(poly):
    """The distinct roots of a polynomial in the finite field ctx of its
    coefficients, in iter_elements order (see the module docstring for the
    method)."""
    ctx = poly[0].ctx
    ops = _raw_ops(ctx)
    q = ctx.order()
    g = frobenius_gcd(ops, ops.unwrap([poly])[0], q)
    shifts = (ops.unwrap([[a]])[0][0] for a in random_elements(ctx))
    roots = []
    pending = [g] if len(g) > 1 else []
    while pending:
        h = pending.pop()
        if len(h) == 2:
            roots.append(ops.neg(h[0]))
            continue
        for _ in range(_SPLIT_TRIES):
            d = _poly_gcd(ops, h, _splitting_poly(ops, h, next(shifts), q))
            if 1 < len(d) < len(h):
                break
        else:
            raise InternalDegenerate("no shift split a degree-%d factor in "
                                     "%d tries" % (len(h) - 1, _SPLIT_TRIES))
        pending += [d, _poly_divmod(ops, h, d)[0]]
    return sorted(ops.wrap([roots])[0], key=enumeration_key)


def _splitting_poly(ops, h, a, q):
    """w with gcd(h, w) collecting the roots r of h (deg h >= 2) on one side
    of the shift a: (r + a)^((q-1)/2) = 1 for odd q, Tr(a r) = 0 for q = 2^m.
    """
    if q % 2:
        w = _poly_powmod(ops, [a, ops.one], (q - 1) // 2, h)
        return _poly_axpy(ops, w, ops.one, [ops.one])
    y = [ops.zero, a]  # aX, already reduced since deg h >= 2
    trace = y
    for _ in range(q.bit_length() - 2):  # m - 1 squarings
        y = _poly_mulmod(ops, y, y, h)
        trace = _poly_axpy(ops, trace, ops.one, y)  # - is + in char 2
    return trace


def _quadratic_root(poly, policy):
    """Root of a quadratic, made monic (X^2 + c1 X + c0) first, adjoining a
    square or Artin-Schreier root if needed."""
    c0, c1 = poly[0] / poly[2], poly[1] / poly[2]
    try:
        return quadratic_roots(c1.ctx.one(), c1, c0, policy)[0]
    except NoArtinSchreierRootStrict:
        raise NotSplit("quadratic factor needs an Artin-Schreier "
                       "extension under strict policy")
    except NoRootStrictPolicy:
        raise NotSplit("quadratic factor has non-square discriminant "
                       "under strict policy")


def _palindrome_transform(poly):
    """g with poly(X) = X^k g(X + 1/X) when poly is palindromic, else None."""
    ctx = poly[0].ctx
    n = len(poly) - 1
    if n % 2 or any(poly[i] != poly[n - i] for i in range(n + 1)):
        return None
    k = n // 2
    ops = _raw_ops(ctx)
    raw, p_prev = ops.unwrap([poly, [ctx.scalar(2)]])
    # P_j(Y) = X^j + X^-j: P_0 = 2, P_1 = Y, P_j = Y P_{j-1} - P_{j-2}
    p_cur, g = [ops.zero, ops.one], [raw[k]]
    for j in range(1, k + 1):
        if j > 1:
            p_prev, p_cur = p_cur, _poly_axpy(ops, [ops.zero] + p_cur,
                                              ops.one, p_prev)
        g = _poly_axpy(ops, g, ops.neg(raw[k + j]), p_cur)
    return list(ops.wrap([_poly_trim(ops, g)])[0])


def _rational_root(poly):
    """A rational root of a monic poly with rational coefficients, or None."""
    ctx = poly[0].ctx
    fracs = [c.coords[0] for c in poly]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    a0, alead = ints[0], ints[-1]
    if a0 == 0:
        return ctx.zero()
    ps = _divisors(abs(a0))
    qs = _divisors(abs(alead))
    for q in qs:
        for p in ps:
            if math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                x = ctx.scalar(cand)
                if poly_eval(poly, x).is_zero():
                    return x
    return None


def _divisors(n):
    if n > _TRIAL_BUDGET ** 2:
        raise BudgetExceeded("integer too large for trial factoring")
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


# -- eigen splitting -----------------------------------------------------------------

UnipotentClass = namedtuple("UnipotentClass", "eigenvalue basis")
PairClass = namedtuple("PairClass", "lam lam_inv basis_lam basis_inv")
EigenSplit = namedtuple("EigenSplit", "classes x gram")


def eigen_split(a, asym):
    """Split into unipotent classes (eigenvalue +-1) and hyperbolic pairs.

    Returns EigenSplit(classes, x, gram) where gram = X'AX is the Gram
    matrix in the new basis (block diagonal across classes).
    """
    if asym.split_roots is None:
        raise InternalDegenerate("eigen_split needs split_roots")
    ctx = asym.ctx
    n = a.nrows
    one = ctx.one()
    roots = [r for r, _m in asym.split_roots]

    def gen_eigenspace(lam):
        # the min-poly multiplicity bounds the nilpotency index on V_lam
        expo = next((m for r, m in asym.split_roots if r == lam), n)
        m = asym.s.minus_scalar(lam)
        return inverse_or_rank(m.power(expo), rank_only=True).kernel

    unipotent = []
    for eps in (one, -one):
        if any(r == eps for r in roots):
            basis = gen_eigenspace(eps)
            unipotent.append(UnipotentClass(eps, basis))
            if ctx.characteristic == 2:
                break  # +1 and -1 coincide
    paired = []
    seen = []
    for r in roots:
        if r == one or r == -one or any(r == s_ for s_ in seen):
            continue
        rinv = r.inverse()
        rep = r if canonical_compare(r, rinv) <= 0 else rinv
        other = rinv if rep == r else r
        seen.extend([r, rinv])
        paired.append((rep, other))
    paired.sort(key=lambda pr: cmp_to_key(canonical_compare)(pr[0]))
    classes = list(unipotent)
    for rep, other in paired:
        classes.append(PairClass(rep, other,
                                 gen_eigenspace(rep), gen_eigenspace(other)))

    cols = []
    spans = []
    for cl in classes:
        if isinstance(cl, UnipotentClass):
            spans.append((len(cols), len(cl.basis)))
            cols.extend(cl.basis)
        else:
            spans.append((len(cols), len(cl.basis_lam) + len(cl.basis_inv)))
            cols.extend(cl.basis_lam)
            cols.extend(cl.basis_inv)
    if len(cols) != n:
        raise NotSplit("generalized eigenspaces do not fill the space")
    x = ExactMatrix.from_columns(ctx, n, cols)
    gram = x.transpose() @ a @ x
    diag = [gram.submatrix(range(o, o + k), range(o, o + k)) for o, k in spans]
    if gram != ExactMatrix.block_diag(ctx, diag):
        raise InternalDegenerate("eigen classes failed to be orthogonal")
    return EigenSplit(classes, x, gram)


# -- restricted operators and Jordan structure -----------------------------------------

def restrict_operator(s, basis_cols):
    """Matrix of S on the span of the given independent columns B.

    One elimination T B = [I; 0] gives the coordinates T S B, whose rows
    below the first m must vanish.
    """
    m = len(basis_cols)
    bmat = ExactMatrix.from_columns(s.ctx, s.nrows, basis_cols)
    coords = inverse_or_rank(bmat, transform=True).transform @ (s @ bmat)
    if not coords.submatrix(range(m, s.nrows), range(m)).is_zero():
        raise InternalDegenerate("operator does not preserve the span")
    return coords.submatrix(range(m), range(m))


def nilpotent_jordan_chains(nmat):
    """Jordan chains of a nilpotent matrix: list of [v, Nv, ...] columns,
    heights descending; deterministic."""
    ctx = nmat.ctx
    m = nmat.nrows
    if m == 0:
        return []
    kernels = [[]]  # kernels[j] = basis of ker N^j
    power = nmat
    heights = 0
    while True:
        ker = inverse_or_rank(power, rank_only=True).kernel
        kernels.append(ker)
        if len(ker) == m:
            heights = len(kernels) - 1
            break
        power = power @ nmat
        if len(kernels) > m + 1:
            raise InternalDegenerate("matrix is not nilpotent")
    chains = []
    for h in range(heights, 0, -1):
        # new chain tops: the vectors of ker N^h independent of ker N^{h-1},
        # of the existing chains' elements of height h (chain[len - h]) and
        # of the tops already taken, i.e. the pivot columns among them
        below = kernels[h - 1] + [c[len(c) - h] for c in chains
                                  if len(c) >= h]
        pivots = inverse_or_rank(ExactMatrix.from_columns(
            ctx, m, below + kernels[h]), rank_only=True).pivots
        for p in pivots:
            if p >= len(below):
                top = kernels[h][p - len(below)]
                chains.append(list(nmat.krylov(top, h).transpose().rows))
    if sum(len(c) for c in chains) != m:
        raise InternalDegenerate("Jordan chains do not span")
    chains.sort(key=lambda c: -len(c))
    return chains


# -- hyperbolic classes -------------------------------------------------------------

HyperbolicResult = namedtuple("HyperbolicResult", "x blocks gram")


def hyperbolic_canonical(class_gram, s_class, lam, m_lam):
    """Reduce one paired class to a direct sum of ((0, J_m(lam)), (I, 0)).

    class_gram is the Gram matrix on (basis_lam, basis_inv); s_class the
    asymmetry restricted to the class in the same basis; lam the chosen
    eigenvalue whose side is Jordan-reduced; m_lam = dim V_lam.  Returns X
    with X' class_gram X the canonical matrix, the list of block sizes m
    (Jordan sizes on the lam side), and the canonical matrix itself.
    """
    ctx = class_gram.ctx
    n2 = class_gram.nrows
    m = m_lam
    if n2 != 2 * m:
        raise DegenerateRestriction("paired class dimensions differ")
    # Jordan-reduce the lam side
    s_lam = s_class.submatrix(range(m), range(m))
    nmat = s_lam.minus_scalar(lam)
    chains = nilpotent_jordan_chains(nmat)
    svecs = []   # reversed chains: highest power of N first
    sizes = []
    for chain in chains:
        sizes.append(len(chain))
        svecs.extend(reversed(chain))
    # duals on the inverse-eigenvalue side: f(t_j, s_i) = delta_ij; with
    # P = (f(c_l, s_i)) for the inverse-side unit vectors c_l, the
    # coordinates of t_j are row j of P^{-1}
    smat = ExactMatrix.from_columns(ctx, m, svecs)
    pinv = inverse_or_rank(
        class_gram.submatrix(range(m, n2), range(m)) @ smat).inverse
    if pinv is None:
        raise DegenerateRestriction("lam pairing is degenerate")
    x1 = ExactMatrix.block_diag(ctx, [smat, pinv.transpose()])
    g1 = x1.transpose() @ class_gram @ x1
    # interleave into per-block hyperbolic cells: the s-side of each block,
    # then its t-side
    order = []
    off = 0
    for sz in sizes:
        order += [*range(off, off + sz), *range(m + off, m + off + sz)]
        off += sz
    g2 = g1.submatrix(order, order)
    target = ExactMatrix.block_diag(ctx, [
        hyperbolic_block_matrix(ctx, sz, lam) for sz in sizes])
    if g2 != target:
        raise InternalDegenerate("hyperbolic normalization mismatch")
    return HyperbolicResult(x1.submatrix(range(n2), order), sizes, g2)


def hyperbolic_block_matrix(ctx, m, lam):
    """The canonical paired-class cell ((0, J_m(lam)), (I_m, 0))."""
    j = ExactMatrix.jordan_block(ctx, m, lam)
    i = ExactMatrix.identity(ctx, m)
    z = (ctx.zero(),) * m
    return ExactMatrix(ctx, [z + jr for jr in j.rows]
                       + [ir + z for ir in i.rows])

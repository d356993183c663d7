"""Reduction of the eigenvalue +-1 part to canonical indecomposable blocks.

The restricted asymmetry has a single eigenvalue eps in {1, -1}; with
p = sigma - eps nilpotent, the space peels into orthogonal indecomposables:
cyclic "single" blocks (one elementary divisor p^n, found through a vector v
with f(p^{n-1}v, v) != 0) and "pair" blocks (two elementary divisors p^m,
found through a hyperbolic-like pair v, w).  Singles reduce recursively to
the cyclic normal form shared with the Gamma matrices; pairs reduce to
((0, J_m(eps)), (I_m, 0)) via totally isotropic generator repair.

FAMILIES is the classification of these blocks (Riehm; arXiv 1311.0565):
which of A..F a single or a pair is depends only on the sign of eps, the
characteristic and the parity of its order.  Every rule about the families
reads that one table: block validity and order (canon), the name a peeled
block gets, the invariant record and the parity check of the single
reduction.  The quadratic equations of the reductions are solved by
field.quadratic_roots.

The reductions take and return matrices and scalars, never a context: a
root they adjoin (a square root in the single reduction, an Artin-Schreier
root in a corner repair) lives on the values computed from it, the
arithmetic lifts every operand to the common context, and the result's
context is x.ctx.  A reduction starts from its input's context, which the
caller sets to the running tower.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (HypothesisViolation, InternalDegenerate,
                     NoArtinSchreierRootStrict, NoRootStrictPolicy)
from .exactmat import Congruence, ExactMatrix, inverse_or_rank, solve
from .field import EXTEND, STRICT, quadratic_roots, sqrt_or_adjoin
from .spectral import (asymmetry_matrix, hyperbolic_block_matrix,
                       restrict_operator)

UnipotentPiece = namedtuple("UnipotentPiece", "kind eps order basis gram")

# The indecomposables at one eigenvalue eps = +-1: family -> (sign of eps,
# "single" (one elementary divisor (X - eps)^n, the block is n x n) or
# "pair" (two equal ones (X - eps)^m, the block is 2m x 2m), the
# characteristics where the family exists ("2", "odd" or "any"), the
# parity of n or m).  In characteristic 2, eps = 1 = -1.  The row order is
# the canonical order of the blocks.
FAMILIES = {
    "A": (1, "single", "odd", 1),
    "B": (1, "single", "2", 1),
    "C": (-1, "single", "odd", 0),
    "D": (1, "pair", "any", 0),
    "E": (1, "pair", "2", 1),
    "F": (-1, "pair", "odd", 1),
}
CHARACTERISTICS = {"2": " in characteristic 2",
                   "odd": " outside characteristic 2", "any": ""}


def exists_in(where, char):
    """Whether a FAMILIES row's characteristic entry admits char."""
    return where == "any" or (where == "2") == (char == 2)


def family_of(kind, sign, char, order):
    """The family of a "single" of order n or a "pair" of order m at
    eigenvalue sign (1 or -1) in characteristic char, or None."""
    for fam, (s, k, where, parity) in FAMILIES.items():
        if (s, k, order % 2) == (sign, kind, parity) and \
                exists_in(where, char):
            return fam
    return None


def eigen_sign(eps):
    """1 for eps = 1 (in characteristic 2 always), -1 for eps = -1."""
    return 1 if eps == eps.ctx.one() else -1


# -- peeling indecomposables -----------------------------------------------------

def _nilpotency_index(nmat):
    """(r, p^(r-1)) for the least r with p^r = 0 (None for p^-1)."""
    top, power = None, ExactMatrix.identity(nmat.ctx, nmat.nrows)
    for k in range(nmat.nrows + 1):
        if power.is_zero():
            return k, top
        top, power = power, power @ nmat
    raise InternalDegenerate("operator is not nilpotent")


def split_off_indecomposable(gram, nmat, eps):
    """Split one indecomposable of maximal order off a unipotent part.

    gram is the restricted Gram matrix (non-degenerate), nmat the nilpotent
    p = sigma - eps on the same basis.  Returns (piece, rem_basis, rem_gram,
    rem_nmat) where the piece's basis columns live in the same coordinates.

    When the hat form at the top order is non-alternating, the peeled block
    must be a single AND the remainder must stay non-alternating at that
    order whenever order-r content remains (a non-alternating symmetric
    form diagonalizes completely).  A greedy choice can strand an
    alternating remainder; adding a full-height remainder vector to the
    chosen one repairs it without changing the self-pairing value.
    """
    ctx = gram.ctx
    n = gram.nrows
    r, top = _nilpotency_index(nmat)
    if r == 0:
        raise InternalDegenerate("empty component")
    beta = top.transpose() @ gram  # (x, y) -> f(p^(r-1) x, y)
    v = _self_pairing_vector(beta)
    if v is not None:
        for _attempt in range(n + 1):
            out = _try_single_split(gram, nmat, eps, v, r)
            if out is not None:
                return out
            v = _repair_single_choice(gram, nmat, top, v, r)
        raise InternalDegenerate("could not keep the remainder "
                                 "non-alternating")
    v = _height_vector(top)
    row = v.transpose() @ beta  # x -> beta(v, x)
    j = _nonzero_column(row)
    if j is None:
        raise InternalDegenerate("socle functional vanished on a "
                                 "non-degenerate part")
    w = ExactMatrix.unit_column(ctx, n, j).scale(row[0, j].inverse())
    chain = ExactMatrix.blocks(ctx, [[nmat.krylov(v, r), nmat.krylov(w, r)]])
    return _finish_split(gram, nmat, eps, "pair", r, chain)


def _finish_split(gram, nmat, eps, piece_kind, r, bmat):
    """Build the piece on the columns of bmat and its two-sided orthogonal
    complement."""
    piece_gram = bmat.transpose() @ gram @ bmat
    if inverse_or_rank(piece_gram, rank_only=True).rank != piece_gram.nrows:
        raise InternalDegenerate("peeled piece is degenerate")
    comp = _orthogonal_complement(gram, bmat)
    if comp.ncols + bmat.ncols != gram.nrows:
        raise InternalDegenerate("complement dimension mismatch")
    rem_gram = comp.transpose() @ gram @ comp
    rem_nmat = restrict_operator(nmat, comp)
    piece = UnipotentPiece(piece_kind, eps, r, bmat, piece_gram)
    return piece, comp, rem_gram, rem_nmat


def _try_single_split(gram, nmat, eps, v, r):
    """Split a single block off at v, unless that strands an alternating
    remainder that still has order-r content (then None)."""
    chain = nmat.krylov(v, r)
    out = _finish_split(gram, nmat, eps, "single", r, chain)
    _piece, _comp, rem_gram, rem_nmat = out
    r_rem, top_rem = _nilpotency_index(rem_nmat)
    if r_rem < r:
        return out
    beta_rem = top_rem.transpose() @ rem_gram
    if _self_pairing_vector(beta_rem) is None:
        return None
    return out


def _orthogonal_complement(gram, bmat):
    """Basis of {x : f(u, x) = 0 = f(x, u) for every column u of bmat}."""
    ut = bmat.transpose()
    both = ExactMatrix.blocks(gram.ctx, [[ut @ gram],
                                         [ut @ gram.transpose()]])
    return inverse_or_rank(both, rank_only=True).kernel


def _repair_single_choice(gram, nmat, top, v, r):
    """Add a full-height vector orthogonal to v: the self-pairing value is
    unchanged while the eventual complement regains a non-alternating
    entry.  top is p^(r-1)."""
    comp = _orthogonal_complement(gram, nmat.krylov(v, r))
    j = _nonzero_column(top @ comp)
    if j is None:
        raise InternalDegenerate("no full-height repair vector available")
    return v + comp.columns([j])


def _self_pairing_vector(beta):
    """v with beta(v, v) != 0, or None (deterministic search).

    With a zero diagonal, beta(e_i + e_j, e_i + e_j) = b_ij + b_ji; in
    characteristic 2 that is nonzero exactly when b_ij != b_ji.
    """
    ctx, n = beta.ctx, beta.nrows
    for i in range(n):
        if not beta[i, i].is_zero():
            return ExactMatrix.unit_column(ctx, n, i)
    for i in range(n):
        for j in range(i + 1, n):
            if not (beta[i, j] + beta[j, i]).is_zero():
                return (ExactMatrix.unit_column(ctx, n, i)
                        + ExactMatrix.unit_column(ctx, n, j))
    return None


def _nonzero_column(m):
    """The index of the first nonzero column of m, or None."""
    return next((j for j in range(m.ncols)
                 if not m.columns([j]).is_zero()), None)


def _height_vector(top):
    """The first unit vector of full height: top v != 0, top = p^(r-1)."""
    i = _nonzero_column(top)
    if i is None:
        raise InternalDegenerate("no vector of full height")
    return ExactMatrix.unit_column(top.ctx, top.nrows, i)


def peel_all(gram, nmat, eps):
    """Peel a unipotent part completely; returns pieces with bases in the
    original coordinates."""
    ctx = gram.ctx
    pieces = []
    base = ExactMatrix.identity(ctx, gram.nrows)  # columns: current basis
    cur_gram, cur_nmat = gram, nmat
    while cur_gram.nrows:
        piece, comp, rem_gram, rem_nmat = split_off_indecomposable(
            cur_gram, cur_nmat, eps)
        # translate piece basis and the new complement into original coords
        pieces.append(piece._replace(basis=base @ piece.basis))
        base = base @ comp
        cur_gram, cur_nmat = rem_gram, rem_nmat
    return pieces


# -- the cyclic (single elementary divisor) reduction ----------------------------

def _check_cyclic_gram(g, n):
    for a in range(n):
        for b in range(n):
            if a + b >= n and not g[a, b].is_zero():
                raise InternalDegenerate("cyclic gram not skew-triangular")
    for a in range(n):
        if g[a, n - 1 - a].is_zero():
            raise InternalDegenerate("cyclic gram degenerate anti-diagonal")


def canonical_cyclic_gram(ctx, eps, n):
    """The canonical cyclic-basis Gram matrix for one elementary divisor
    (X-eps)^n.

    Built recursively: the inner block is the canonical (n-2) gram; the
    first row is pinned by the compatibility relation G S = G' with
    S = eps I + shift (the matrix of the asymmetry on a cyclic basis), which
    forces rho_{j+1} = -eps * sub[j-1][0]; the first column follows from the
    same relation.  The free diagonal entry is normalized to 0 (or 1 for
    eps = -1 outside characteristic 2, matching the n = 2 base).
    """
    char = ctx.characteristic
    one, zero = ctx.one(), ctx.zero()
    if n == 1:
        return ExactMatrix(ctx, [[1]])
    if char != 2 and eps == -one and n == 2:
        return ExactMatrix(ctx, [[1, 2], [-2, 0]])
    if char == 2 and n == 3:
        return ExactMatrix(ctx, [[0, 0, 1], [1, 1, 0], [1, 0, 0]])
    sub = canonical_cyclic_gram(ctx, eps, n - 2)
    rho = [zero] * n
    rho[0] = one if (char != 2 and eps == -one) else zero
    rho[1] = (one - eps) * rho[0]
    for j in range(1, n - 1):
        rho[j + 1] = -eps * sub[j - 1, 0]
    rows = [rho]
    for i in range(1, n - 1):
        rows.append([eps * rho[i] + rho[i + 1]]
                    + [sub[i - 1, j] for j in range(n - 2)] + [zero])
    rows.append([eps * rho[n - 1]] + [zero] * (n - 1))
    cg = ExactMatrix(ctx, rows)
    s = ExactMatrix.jordan_block(ctx, n, eps)
    if cg @ s != cg.transpose():
        raise InternalDegenerate("canonical cyclic gram is inconsistent")
    _check_cyclic_gram(cg, n)
    return cg


def canon_single(g, eps, n, policy=EXTEND):
    """Reduce a cyclic-basis Gram matrix with single elementary divisor
    (X-eps)^n to the canonical cyclic normal form.

    Returns (x, cg) with x' g x = cg exactly, both over x.ctx, the context
    the reduction reached from g's.
    """
    char = g.ctx.characteristic
    _check_parity(eps, n, char)
    _check_cyclic_gram(g, n)
    if n == 1:
        rinv = sqrt_or_adjoin(g[0, 0], policy)[0].inverse()
        return ExactMatrix(g.ctx, [[rinv]]), ExactMatrix(rinv.ctx, [[1]])
    if n == 2:
        c = g[0, 0]
        if c.is_zero():
            raise InternalDegenerate("n=2 cyclic gram with zero corner")
        rinv = sqrt_or_adjoin(c, policy)[0].inverse()
        x = ExactMatrix.identity(g.ctx, 2).scale(rinv)
        cg = x.transpose() @ g @ x
        if cg != canonical_cyclic_gram(x.ctx, eps, 2):
            raise InternalDegenerate("n=2 normal form mismatch")
        return x, cg
    if char == 2 and n == 3:
        return _canon_single_char2_n3(g, policy)
    return _canon_single_step(g, eps, n, policy)


def _check_parity(eps, n, char):
    sign = eigen_sign(eps)
    if family_of("single", sign, char, n) is None:
        raise HypothesisViolation(
            "no family has a single of order %d at eigenvalue %d in "
            "characteristic %d" % (n, sign, char))


def _canon_single_char2_n3(g, policy):
    # scale the anti-diagonal to 1 (characteristic 2: unique square root)
    t = sqrt_or_adjoin(g[0, 2], policy)[0].inverse()
    x1 = ExactMatrix.identity(g.ctx, 3).scale(t)
    g1 = x1.transpose() @ g @ x1
    # v' = v + x p v with x^2 + x + g1[0,0] = 0
    one = g1.ctx.one()
    xval = quadratic_roots(one, one, g1[0, 0], policy)[0]
    x2 = ExactMatrix.jordan_block(g1.ctx, 3).krylov(
        ExactMatrix(g1.ctx, [[one], [xval], [0]]), 3)
    g2 = x2.transpose() @ g1 @ x2
    if g2 != ExactMatrix(g.ctx, [[0, 0, 1], [1, 1, 0], [1, 0, 0]]):
        raise InternalDegenerate("char-2 n=3 normal form mismatch")
    return x1 @ x2, g2


def _canon_single_step(g, eps, n, policy):
    """Recursive case of the single reduction (n >= 3, not char-2 n=3)."""
    char = g.ctx.characteristic
    sub_idx = list(range(1, n - 1))
    xs, cg_sub = canon_single(g.submatrix(sub_idx, sub_idx), eps, n - 2,
                              policy)
    # lift the new sub cyclic vector: coordinates j of the sub basis mean
    # p^{j+1} v, so stripping one p gives sum_j xs[j,0] p^j v
    vcoord = ExactMatrix.blocks(g.ctx, [[xs.columns([0])],
                                        [ExactMatrix.zeros(g.ctx, 2, 1)]])
    b1 = ExactMatrix.jordan_block(g.ctx, n).krylov(vcoord, n)
    g1 = b1.transpose() @ g @ b1
    ctx = g1.ctx
    if g1.submatrix(sub_idx, sub_idx) != cg_sub:
        raise InternalDegenerate("sub-reduction did not embed")

    cg = canonical_cyclic_gram(ctx, eps, n)
    plus = (eps == ctx.one())
    solve_from = 1 if (char != 2 and plus) else 2
    rho0 = cg[0, 0]

    # solve f(u, p^j v1) = cg[0, j] for j = solve_from..n-1
    later = range(solve_from, n)
    part, hom = solve(g1.columns(later).transpose(),
                      cg.submatrix([0], later).transpose())
    if part is None:
        raise InternalDegenerate("cyclic row system inconsistent")
    # adjust f(u,u) = rho0 within the homogeneous freedom
    u = _adjust_self_value(g1, part, hom, rho0)

    cols = [u]
    if solve_from == 2:
        # z = p v1 + s p^{n-1} v1 fixing f(u, z) = cg[0, 1]
        fu = u.transpose() @ g1  # x -> f(u, x)
        if fu[0, n - 1].is_zero():
            raise InternalDegenerate("lost the skew-diagonal entry")
        cols.append(ExactMatrix.unit_column(ctx, n, 1)
                    + ExactMatrix.unit_column(ctx, n, n - 1).scale(
                        (cg[0, 1] - fu[0, 1]) / fu[0, n - 1]))
    cols.append(ExactMatrix.identity(ctx, n).columns(range(len(cols), n)))
    x2 = ExactMatrix.blocks(ctx, [cols])
    out = x2.transpose() @ g1 @ x2
    if out != cg:
        raise InternalDegenerate("single-block normalization mismatch")
    return b1 @ x2, cg


def _adjust_self_value(g1, part, hom, rho0):
    """u in part + span(hom) with f(u, u) = rho0, for the n x 1 part and
    the columns of hom."""
    vmat = ExactMatrix.blocks(g1.ctx, [[part, hom]])
    f = vmat.transpose() @ g1 @ vmat  # the form on part, hom's columns
    k = hom.ncols

    def along(i, t):
        return part + hom.columns([i]).scale(t)

    base = f[0, 0]
    lin = [f[0, i + 1] + f[i + 1, 0] for i in range(k)]
    quad = [f[i + 1, i + 1] for i in range(k)]
    # try pure-linear solutions first: one coefficient at a time
    for i, li in enumerate(lin):
        if not li.is_zero() and quad[i].is_zero():
            return along(i, (rho0 - base) / li)
    if base == rho0:
        return part
    # general single-variable quadratic attempts, in ctx itself
    for i, li in enumerate(lin):
        qa = quad[i]
        if li.is_zero() and qa.is_zero():
            continue
        try:
            t = quadratic_roots(qa, li, base - rho0, STRICT)[0]
        except NoRootStrictPolicy:
            continue
        return along(i, t)
    raise InternalDegenerate("cannot reach the canonical diagonal value")


# -- Gamma block matrices and the single-block congruence ---------------------

def gamma_matrix(ctx, n):
    """Gamma_n: the anti-diagonal staircase block (characteristic != 2):
    row i holds (-1)^(n-1-i) on the anti-diagonal and, for i >= 1, next
    to it on the right."""
    return ExactMatrix(ctx, [[(-1) ** (n - 1 - i) if j == n - 1 - i
                              or (i and j == n - i) else 0 for j in range(n)]
                             for i in range(n)])


def gamma0_matrix(ctx, n):
    """Gamma_n^0: the characteristic-2 staircase block (n odd)."""
    if n % 2 == 0:
        raise HypothesisViolation("Gamma_n^0 needs odd n")
    return ExactMatrix(ctx, [[int(j == n - 1 - i
                                  or (i > (n - 1) // 2 and j == n - i))
                              for j in range(n)] for i in range(n)])


def gamma_block(ctx, n):
    """The single block of order n: Gamma_n, or Gamma_n^0 in characteristic
    2."""
    if ctx.characteristic == 2:
        return gamma0_matrix(ctx, n)
    return gamma_matrix(ctx, n)


_gamma_reduction_cache = {}


def _gamma_cyclic_reduction(eps, n, policy):
    """(X^-1, CG) for the witness columns (basis matrix) X with
    X' Gamma X = CG, Gamma_n(^0) taken over eps's context."""
    ctx = eps.ctx
    key = (ctx, eps, n)
    if key in _gamma_reduction_cache:
        return _gamma_reduction_cache[key]
    gamma = gamma_block(ctx, n)
    nmat = asymmetry_matrix(gamma).minus_scalar(eps)
    v = _height_vector(nmat.power(n - 1))
    bmat = nmat.krylov(v, n)
    x, cg = canon_single(bmat.transpose() @ gamma @ bmat, eps, n, policy)
    result = (inverse_or_rank(bmat @ x).inverse, cg)
    _gamma_reduction_cache[key] = result
    return result


def reduce_single(g, eps, n, policy=EXTEND):
    """Congruence from a single-block cyclic Gram to Gamma_n(^0)."""
    x1, cg1 = canon_single(g, eps, n, policy)
    # the Gamma side starts from the tower the input side reached, so a
    # root both sides need is adjoined once
    xg_inv, cg2 = _gamma_cyclic_reduction(eps.promote(x1.ctx), n, policy)
    if cg1 != cg2:
        raise InternalDegenerate("input and Gamma reductions disagree")
    x = x1 @ xg_inv
    return Congruence(x, g, gamma_block(x.ctx, n))


# -- the pair (two equal elementary divisors) reduction --------------------------

def pair_canon(g, eps, m, policy=EXTEND):
    """Reduce a pair-block Gram matrix (basis v, pv, ..., w, pw, ...) to
    ((0, J_m(eps)), (I_m, 0)).

    Returns (x, v_gen, w_gen): x columns are the new basis, over x.ctx, the
    context the reduction reached from g's; the generators are coordinates
    of the repaired module generators in the input basis.
    """
    ctx = g.ctx
    if m == 1:
        a, b = g[0, 1], g[1, 0]
        if not g[0, 0].is_zero() or not g[1, 1].is_zero():
            raise InternalDegenerate("pair base is not alternating")
        if a != eps * b:
            raise InternalDegenerate("pair base asymmetry mismatch")
        binv = b.inverse()
        x = ExactMatrix(ctx, [[1, 0], [0, binv]])
        out = x.transpose() @ g @ x
        if out != hyperbolic_block_matrix(ctx, 1, eps):
            raise InternalDegenerate("pair base normalization failed")
        return x, ExactMatrix.unit_column(ctx, 2, 0), x.columns([1])

    if m == 2:
        v1 = ExactMatrix.unit_column(ctx, 4, 0)
        w1 = ExactMatrix.unit_column(ctx, 4, 2)
    else:
        sub_idx = (list(range(1, m - 1))
                   + list(range(m + 1, 2 * m - 1)))
        _xs, vg_sub, wg_sub = pair_canon(g.submatrix(sub_idx, sub_idx), eps,
                                         m - 2, policy)
        # strip one p: sub slot j of the v part is p^{j+1} v, so the sub
        # coordinates go to slots 0..m-3 of each part
        pad = ExactMatrix.identity(ctx, 2 * m).columns(
            [*range(m - 2), *range(m, 2 * m - 2)])
        v1, w1 = pad @ vg_sub, pad @ wg_sub

    shift = ExactMatrix.block_diag(ctx, [ExactMatrix.jordan_block(ctx, m)] * 2)
    # repair the v side to a totally isotropic module generator, then the w
    # side symmetrically
    v1 = _repair_generator(g, shift, v1,
                           _module_duals(g, shift, w1, shift.krylov(v1, m)),
                           m, policy)
    w1 = _repair_generator(g, shift, w1,
                           _module_duals(g, shift, v1, shift.krylov(w1, m)),
                           m, policy)
    _assert_isotropic(g, shift, v1, m)
    _assert_isotropic(g, shift, w1, m)
    # final basis: s_i = p^{m-1-i} v', t_j the duals inside the w' module
    svecs = shift.krylov(v1, m).columns(range(m - 1, -1, -1))
    x = ExactMatrix.blocks(ctx, [[svecs,
                                  _module_duals(g, shift, w1, svecs)]])
    out = x.transpose() @ g @ x
    if out != hyperbolic_block_matrix(ctx, m, eps):
        raise InternalDegenerate("pair normalization mismatch")
    return x, v1, w1


def _module_duals(g, shift, gen, targets):
    """Duals d_0, d_1, ... inside the p-module of gen with
    f(d_i, t_j) = delta_ij for the columns t_j of targets."""
    chain = shift.krylov(gen, targets.ncols)
    pinv = inverse_or_rank(chain.transpose() @ g @ targets).inverse
    if pinv is None:
        raise InternalDegenerate("module pairing is degenerate")
    return chain @ pinv.transpose()


def _repair_generator(g, shift, gen, duals, m, policy):
    """gen corrected so that its p-module is totally isotropic.

    duals are the columns d_0, d_1, ... from the other module
    (f(d_i, p^j gen) = delta_ij); the ansatz is gen' = gen + x0 d_0 + x1 d_1
    + x2 p gen.  Conditions f(gen', p^j gen') = 0 live only at j = 0, 1.
    The first candidate, in _corner_candidates' order, whose gen' spans a
    totally isotropic module is taken.
    """
    n = gen.nrows
    dirs = ExactMatrix.blocks(g.ctx, [[duals.columns(range(2)),
                                       shift @ gen]])
    consts, lins, quads = _expand_conditions(g, shift, gen, dirs, m)
    live = [j for j in range(m)
            if not (consts[j].is_zero()
                    and all(c.is_zero() for c in lins[j])
                    and all(c.is_zero() for row in quads[j] for c in row))]
    if not live:
        return gen
    if any(j > 1 for j in live):
        raise InternalDegenerate("isotropy defect beyond the corner")
    for xs in _corner_candidates(consts, lins, quads, dirs.ncols, policy):
        new = gen + dirs @ ExactMatrix(gen.ctx, [[x] for x in xs])
        if _is_isotropic(g, shift, new, m):
            return new
    raise InternalDegenerate("corner repair found no solution")


def _expand_conditions(g, shift, gen, dirs, m):
    """Exact coefficients of f(gen + sum x_i d_i, p^j (same)) in the x_i,
    for the columns d_i of dirs."""
    k = dirs.ncols
    vecs = ExactMatrix.blocks(g.ctx, [[gen, dirs]])
    left = vecs.transpose() @ g  # rows: x -> f(u, x)
    # pg[a, j] = f(u_a, p^j gen) and pd[i][a, j] = f(u_a, p^j d_i) for the
    # vectors u = gen, d_0, d_1, ...
    pg, *pd = [left @ shift.krylov(vecs.columns([a]), m)
               for a in range(k + 1)]
    consts = [pg[0, j] for j in range(m)]
    lins = [[pg[i + 1, j] + pd[i][0, j] for i in range(k)] for j in range(m)]
    quads = [[[pd[l][i + 1, j] for l in range(k)] for i in range(k)]
             for j in range(m)]
    return consts, lins, quads


def _corner_candidates(consts, lins, quads, k, policy):
    """Candidate coefficients for the j = 0 and j = 1 corner equations, one
    at a time: each quadratic is solved only when its candidates are due."""
    zero = consts[0].ctx.zero()
    # strategy 1: single-direction solutions for each direction
    for i in range(k):
        for t in _single_var_solutions(quads[0][i][i], lins[0][i], consts[0],
                                       policy):
            xs = [zero] * k
            xs[i] = t
            yield xs
    # strategy 2: solve condition 1 for one direction, then condition 0
    # with another
    if len(consts) > 1:
        for i in range(k):
            for t in _single_var_solutions(quads[1][i][i], lins[1][i],
                                           consts[1], policy):
                # condition 0 at x_i = t, the others 0
                c0 = consts[0] + lins[0][i] * t + quads[0][i][i] * t * t
                for l in range(k):
                    if l == i:
                        continue
                    # condition 0 as a polynomial in x_l given x_i = t
                    lin = lins[0][l] + (quads[0][i][l] + quads[0][l][i]) * t
                    for t0 in _single_var_solutions(quads[0][l][l], lin, c0,
                                                    policy):
                        xs = [zero] * k
                        xs[i], xs[l] = t, t0
                        yield xs


def _single_var_solutions(qa, qb, qc, policy):
    """The roots of qa x^2 + qb x + qc = 0, possibly extending."""
    try:
        return quadratic_roots(qa, qb, qc, policy)
    except NoArtinSchreierRootStrict:
        raise
    except NoRootStrictPolicy:
        return []


def _is_isotropic(g, shift, gen, m):
    """Whether the p-module of gen is totally isotropic."""
    chain = shift.krylov(gen, m)
    return (chain.transpose() @ g @ chain).is_zero()


def _assert_isotropic(g, shift, gen, m):
    if not _is_isotropic(g, shift, gen, m):
        raise InternalDegenerate("module is not totally isotropic")


def reduce_pair(g, eps, m, policy=EXTEND):
    """Congruence from a pair-block Gram to ((0, J_m(eps)), (I, 0))."""
    x = pair_canon(g, eps, m, policy)[0]
    return Congruence(x, g, hyperbolic_block_matrix(x.ctx, m, eps))

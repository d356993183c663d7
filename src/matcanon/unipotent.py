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
    row = (ExactMatrix(ctx, [v]) @ beta).rows[0]  # x -> beta(v, x)
    j = next((j for j, c in enumerate(row) if not c.is_zero()), None)
    if j is None:
        raise InternalDegenerate("socle functional vanished on a "
                                 "non-degenerate part")
    w = [ctx.zero()] * n
    w[j] = row[j].inverse()
    chain = _columns(nmat.krylov(v, r)) + _columns(nmat.krylov(w, r))
    return _finish_split(gram, nmat, eps, "pair", r, chain)


def _finish_split(gram, nmat, eps, piece_kind, r, piece_basis):
    """Build the piece and its two-sided orthogonal complement."""
    ctx = gram.ctx
    n = gram.nrows
    bmat = ExactMatrix.from_columns(ctx, n, piece_basis)
    piece_gram = bmat.transpose() @ gram @ bmat
    if inverse_or_rank(piece_gram, rank_only=True).rank != piece_gram.nrows:
        raise InternalDegenerate("peeled piece is degenerate")
    comp = _orthogonal_complement(gram, piece_basis)
    if len(comp) + len(piece_basis) != n:
        raise InternalDegenerate("complement dimension mismatch")
    cmat = ExactMatrix.from_columns(ctx, n, comp)
    rem_gram = cmat.transpose() @ gram @ cmat
    rem_nmat = restrict_operator(nmat, comp)
    piece = UnipotentPiece(piece_kind, eps, r, piece_basis, piece_gram)
    return piece, comp, rem_gram, rem_nmat


def _try_single_split(gram, nmat, eps, v, r):
    """Split a single block off at v, unless that strands an alternating
    remainder that still has order-r content (then None)."""
    chain = _columns(nmat.krylov(v, r))
    out = _finish_split(gram, nmat, eps, "single", r, chain)
    _piece, _comp, rem_gram, rem_nmat = out
    r_rem, top_rem = _nilpotency_index(rem_nmat)
    if r_rem < r:
        return out
    beta_rem = top_rem.transpose() @ rem_gram
    if _self_pairing_vector(beta_rem) is None:
        return None
    return out


def _orthogonal_complement(gram, vectors):
    """Basis of {x : f(u, x) = 0 = f(x, u) for every u in vectors}."""
    ut = ExactMatrix(gram.ctx, vectors)  # the vectors as rows
    rows = (ut @ gram).rows + (ut @ gram.transpose()).rows
    return inverse_or_rank(ExactMatrix(gram.ctx, rows), rank_only=True).kernel


def _repair_single_choice(gram, nmat, top, v, r):
    """Add a full-height vector orthogonal to v: the self-pairing value is
    unchanged while the eventual complement regains a non-alternating
    entry.  top is p^(r-1)."""
    comp = _orthogonal_complement(gram, _columns(nmat.krylov(v, r)))
    images = top @ ExactMatrix.from_columns(gram.ctx, gram.nrows, comp)
    for w, image in zip(comp, _columns(images)):
        if any(not e.is_zero() for e in image):
            return [a + b for a, b in zip(v, w)]
    raise InternalDegenerate("no full-height repair vector available")


def _self_pairing_vector(beta):
    """v with beta(v, v) != 0, or None (deterministic search).

    With a zero diagonal, beta(e_i + e_j, e_i + e_j) = b_ij + b_ji; in
    characteristic 2 that is nonzero exactly when b_ij != b_ji.
    """
    ctx, n = beta.ctx, beta.nrows
    for i in range(n):
        if not beta[i, i].is_zero():
            return _unit(ctx, n, i)
    for i in range(n):
        for j in range(i + 1, n):
            if not (beta[i, j] + beta[j, i]).is_zero():
                v = _unit(ctx, n, i)
                v[j] = ctx.one()
                return v
    return None


def _height_vector(top):
    """The first unit vector of full height: top v != 0, top = p^(r-1)."""
    for i, col in enumerate(_columns(top)):
        if any(not e.is_zero() for e in col):
            return _unit(top.ctx, top.nrows, i)
    raise InternalDegenerate("no vector of full height")


def _columns(mat):
    """The columns of a matrix, as lists."""
    return [list(col) for col in mat.transpose().rows]


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
        k = cur_gram.nrows
        abs_basis = _columns(
            base @ ExactMatrix.from_columns(ctx, k, piece.basis))
        pieces.append(UnipotentPiece(piece.kind, eps, piece.order,
                                     abs_basis, piece.gram))
        base = base @ ExactMatrix.from_columns(ctx, k, comp)
        cur_gram, cur_nmat = rem_gram, rem_nmat
    return pieces


def _unit(ctx, n, i):
    v = [ctx.zero()] * n
    v[i] = ctx.one()
    return v


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
    rows = [[zero] * n for _ in range(n)]
    rows[0] = list(rho)
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            rows[i][j] = sub[i - 1, j - 1]
    for j in range(1, n - 1):
        rows[j][0] = eps * rho[j] + rho[j + 1]
    rows[n - 1][0] = eps * rho[n - 1]
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
    x2 = ExactMatrix.jordan_block(g1.ctx, 3).krylov([one, xval, 0], 3)
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
    vcoord = [xs[j, 0] for j in range(n - 2)] + [0, 0]
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
    rows = []
    rhs = []
    for j in range(solve_from, n):
        rows.append([g1[i, j] for i in range(n)])
        rhs.append(cg[0, j])
    part, hom = solve(ExactMatrix(ctx, rows), rhs)
    if part is None:
        raise InternalDegenerate("cyclic row system inconsistent")
    # adjust f(u,u) = rho0 within the homogeneous freedom
    u = _adjust_self_value(g1, part, hom, rho0)

    cols = [u]
    if solve_from == 2:
        # z = p v1 + s p^{n-1} v1 fixing f(u, z) = cg[0, 1]
        fu = (ExactMatrix(ctx, [u]) @ g1).rows[0]  # x -> f(u, x)
        if fu[n - 1].is_zero():
            raise InternalDegenerate("lost the skew-diagonal entry")
        z = _unit(ctx, n, 1)
        z[n - 1] = (cg[0, 1] - fu[1]) / fu[n - 1]
        cols.append(z)
        start = 2
    else:
        start = 1
    for j in range(start, n):
        cols.append(_unit(ctx, n, j))
    x2 = ExactMatrix.from_columns(ctx, n, cols)
    out = x2.transpose() @ g1 @ x2
    if out != cg:
        raise InternalDegenerate("single-block normalization mismatch")
    return b1 @ x2, cg


def _adjust_self_value(g1, part, hom, rho0):
    """u in part + span(hom) with f(u, u) = rho0."""
    vmat = ExactMatrix.from_columns(g1.ctx, g1.nrows, [part] + hom)
    f = vmat.transpose() @ g1 @ vmat  # the form on part, hom[0], ...
    k = len(hom)
    base = f[0, 0]
    lin = [f[0, i + 1] + f[i + 1, 0] for i in range(k)]
    quad = [[f[i + 1, j + 1] for j in range(k)] for i in range(k)]
    # try pure-linear solutions first: one coefficient at a time
    for i, li in enumerate(lin):
        if not li.is_zero() and quad[i][i].is_zero():
            t = (rho0 - base) / li
            return [a + t * b for a, b in zip(part, hom[i])]
    if base == rho0:
        return list(part)
    # general single-variable quadratic attempts, in ctx itself
    for i, li in enumerate(lin):
        qa = quad[i][i]
        if li.is_zero() and qa.is_zero():
            continue
        try:
            t = quadratic_roots(qa, li, base - rho0, STRICT)[0]
        except NoRootStrictPolicy:
            continue
        return [a + t * b for a, b in zip(part, hom[i])]
    raise InternalDegenerate("cannot reach the canonical diagonal value")


# -- Gamma block matrices and the single-block congruence ---------------------

def gamma_matrix(ctx, n):
    """Gamma_n: the anti-diagonal staircase block (characteristic != 2)."""
    rows = [[ctx.zero()] * n for _ in range(n)]
    for i in range(n):
        v = ctx.scalar((-1) ** (n - 1 - i))
        rows[i][n - 1 - i] = v
        if i >= 1:
            rows[i][n - i] = v
    return ExactMatrix(ctx, rows)


def gamma0_matrix(ctx, n):
    """Gamma_n^0: the characteristic-2 staircase block (n odd)."""
    if n % 2 == 0:
        raise HypothesisViolation("Gamma_n^0 needs odd n")
    rows = [[ctx.zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][n - 1 - i] = ctx.one()
        if i > (n - 1) // 2:
            rows[i][n - i] = ctx.one()
    return ExactMatrix(ctx, rows)


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
        x = ExactMatrix(ctx, [[ctx.one(), ctx.zero()],
                              [ctx.zero(), binv]])
        out = x.transpose() @ g @ x
        if out != hyperbolic_block_matrix(ctx, 1, eps):
            raise InternalDegenerate("pair base normalization failed")
        return x, _unit(ctx, 2, 0), [ctx.zero(), binv]

    if m == 2:
        v1 = _unit(ctx, 4, 0)
        w1 = _unit(ctx, 4, 2)
    else:
        sub_idx = (list(range(1, m - 1))
                   + list(range(m + 1, 2 * m - 1)))
        _xs, vg_sub, wg_sub = pair_canon(g.submatrix(sub_idx, sub_idx), eps,
                                         m - 2, policy)
        # strip one p: sub slot j of the v part is p^{j+1} v
        v1 = [ctx.zero()] * (2 * m)
        w1 = [ctx.zero()] * (2 * m)
        for j in range(m - 2):
            v1[j] = vg_sub[j]
            w1[j] = wg_sub[j]
            v1[m + j] = vg_sub[m - 2 + j]
            w1[m + j] = wg_sub[m - 2 + j]

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
    svecs = _columns(shift.krylov(v1, m))[::-1]
    tvecs = _module_duals(g, shift, w1,
                          ExactMatrix.from_columns(ctx, 2 * m, svecs))
    x = ExactMatrix.from_columns(ctx, 2 * m, svecs + tvecs)
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
    return _columns(chain @ pinv.transpose())


def _repair_generator(g, shift, gen, duals, m, policy):
    """gen corrected so that its p-module is totally isotropic.

    duals are d_0, d_1, ... from the other module (f(d_i, p^j gen) =
    delta_ij); the ansatz is gen' = gen + x0 d_0 + x1 d_1 + x2 p gen.
    Conditions f(gen', p^j gen') = 0 live only at j = 0, 1.
    """
    dirs = duals[:2] + [_columns(shift.krylov(gen, 2))[1]]
    consts, lins, quads = _expand_conditions(g, shift, gen, dirs, m)
    live = [j for j in range(m)
            if not (consts[j].is_zero()
                    and all(c.is_zero() for c in lins[j])
                    and all(c.is_zero() for row in quads[j] for c in row))]
    if not live:
        return gen
    if any(j > 1 for j in live):
        raise InternalDegenerate("isotropy defect beyond the corner")
    coeffs = _solve_corner_system(consts, lins, quads, len(dirs), policy)
    if coeffs is None:
        raise InternalDegenerate("corner repair found no solution")
    new = list(gen)
    for c, d in zip(coeffs, dirs):
        new = [a + c * b for a, b in zip(new, d)]
    _assert_isotropic(g, shift, new, m)
    return new


def _expand_conditions(g, shift, gen, dirs, m):
    """Exact coefficients of f(gen + sum x_i d_i, p^j (same)) in the x_i."""
    k = len(dirs)
    left = ExactMatrix(g.ctx, [gen] + dirs) @ g  # rows: x -> f(u, x)
    # pg[a, j] = f(u_a, p^j gen) and pd[i][a, j] = f(u_a, p^j d_i) for the
    # vectors u = gen, d_0, d_1, ...
    pg, *pd = [left @ shift.krylov(u, m) for u in [gen] + dirs]
    consts = [pg[0, j] for j in range(m)]
    lins = [[pg[i + 1, j] + pd[i][0, j] for i in range(k)] for j in range(m)]
    quads = [[[pd[l][i + 1, j] for l in range(k)] for i in range(k)]
             for j in range(m)]
    return consts, lins, quads


def _solve_corner_system(consts, lins, quads, k, policy):
    """Coefficients solving the j = 0 and j = 1 corner equations, or None."""

    def eval_cond(j, xs):
        acc = consts[j]
        for i in range(k):
            acc = acc + lins[j][i] * xs[i]
        for i in range(k):
            for l in range(k):
                acc = acc + quads[j][i][l] * xs[i] * xs[l]
        return acc

    zero = consts[0].ctx.zero()
    candidates = []
    # strategy 1: single-direction solutions for each direction
    for i in range(k):
        for t in _single_var_solutions(quads[0][i][i], lins[0][i], consts[0],
                                       policy):
            xs = [zero] * k
            xs[i] = t
            candidates.append(xs)
    # strategy 2: solve condition 1 for one direction, then condition 0
    # with another
    if len(consts) > 1:
        for i in range(k):
            for t in _single_var_solutions(quads[1][i][i], lins[1][i],
                                           consts[1], policy):
                for l in range(k):
                    if l == i:
                        continue
                    xs0 = [zero] * k
                    xs0[i] = t
                    # condition 0 as a polynomial in x_l given x_i = t
                    c0 = eval_cond(0, xs0)
                    lin = lins[0][l] + (quads[0][i][l] + quads[0][l][i]) * t
                    for t0 in _single_var_solutions(quads[0][l][l], lin, c0,
                                                    policy):
                        xs = list(xs0)
                        xs[l] = t0
                        candidates.append(xs)
    for xs in candidates:
        if all(eval_cond(j, xs).is_zero() for j in range(len(consts))):
            return xs
    return None


def _single_var_solutions(qa, qb, qc, policy):
    """The roots of qa x^2 + qb x + qc = 0, possibly extending."""
    try:
        return quadratic_roots(qa, qb, qc, policy)
    except NoArtinSchreierRootStrict:
        raise
    except NoRootStrictPolicy:
        return []


def _assert_isotropic(g, shift, gen, m):
    chain = shift.krylov(gen, m)
    if not (chain.transpose() @ g @ chain).is_zero():
        raise InternalDegenerate("module is not totally isotropic")


def reduce_pair(g, eps, m, policy=EXTEND):
    """Congruence from a pair-block Gram to ((0, J_m(eps)), (I, 0))."""
    x = pair_canon(g, eps, m, policy)[0]
    return Congruence(x, g, hyperbolic_block_matrix(x.ctx, m, eps))

"""Reduction of the eigenvalue +-1 part to canonical indecomposable blocks.

The restricted asymmetry has a single eigenvalue eps in {1, -1}; with
p = sigma - eps nilpotent, the space peels into orthogonal indecomposables:
cyclic "single" blocks (one elementary divisor p^n, found through a vector v
with f(p^{n-1}v, v) != 0) and "pair" blocks (two elementary divisors p^m,
found through a hyperbolic-like pair v, w).  Singles reduce recursively to
the cyclic normal form shared with the Gamma matrices; pairs reduce to
((0, J_m(eps)), (I_m, 0)) once their two generators span totally isotropic
modules.  The module structure fixes the one correction each step of
either reduction needs, in closed form.  A piece's complement
{x : f(u, x) = 0} is two-sided: sigma, an isometry keeping the piece's
span, keeps it too, and f(x, u) = f(u, sigma x).

FAMILIES is the classification of these blocks (Riehm; arXiv 1311.0565):
which of A..F a single or a pair is depends only on the sign of eps, the
characteristic and the parity of its order.  Every rule about the families
reads that one table: block validity and order (canon), the name a peeled
block gets, the invariant record and the parity check of the single
reduction.  The quadratic equations of the reductions are solved by
field.quadratic_roots.

The reductions return X alone, not the block it reaches, which canon
builds once, as the target of its certificate.  They do not check X: a
wrong one is caught once, where canon certifies the composed congruence
(exactmat.CongruenceWitness).  The raises left here guard what that
certificate cannot see: the end of the bounded search for a peel that
leaves a non-alternating remainder, a missing solution, inverse or nonzero
column, and a complement of the wrong size.

The reductions take and return matrices and scalars, never a context: a
root they adjoin (a square root in the single reduction, an Artin-Schreier
root in a pair repair) lives on the values computed from it, the
arithmetic lifts every operand to the common context, and the result's
context is x.ctx.  A reduction starts from its input's context, which the
caller sets to the running tower.  The reductions always extend: canon
refuses, under the strict policy, an answer beyond the input's field.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import HypothesisViolation, InternalDegenerate
from .exactmat import ExactMatrix, inverse_or_rank, solve
from .field import EXTEND, quadratic_roots, sqrt_or_adjoin
from .spectral import asymmetry_matrix

UnipotentPiece = namedtuple("UnipotentPiece", "kind order basis gram")

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
        top, power = power, power @ nmat if k else nmat  # I p is p
    raise InternalDegenerate("operator is not nilpotent")


def split_off_indecomposable(gram, nmat, index=None):
    """Split one indecomposable of maximal order off a unipotent part.

    gram is the restricted Gram matrix (non-degenerate), nmat the nilpotent
    p = sigma - eps on the same basis and index its _nilpotency_index, if
    known.  Returns (piece, rem_basis, rem_gram, rem_nmat, rem_index): the
    piece's basis columns in the same coordinates, and rem_nmat's
    _nilpotency_index if the split computed it, else None.

    When the hat form at the top order is non-alternating, the peeled block
    must be a single AND the remainder must stay non-alternating at that
    order whenever order-r content remains (a non-alternating symmetric
    form diagonalizes completely).  A greedy choice can strand an
    alternating remainder; adding a full-height remainder vector to the
    chosen one repairs it without changing the self-pairing value.
    """
    ctx = gram.ctx
    n = gram.nrows
    r, top = index or _nilpotency_index(nmat)
    # (x, y) -> f(p^(r-1) x, y), the form itself at r = 1, where top is I
    beta = gram if r == 1 else top.transpose() @ gram
    v = _self_pairing_vector(beta)
    if v is not None:
        for _attempt in range(n + 1):
            piece, comp, rem_gram, rem_nmat = _finish_split(
                gram, nmat, "single", r, nmat.krylov(v, r))
            rem_index = _nilpotency_index(rem_nmat)
            if not _strands_alternating(rem_gram, rem_index, r):
                return piece, comp, rem_gram, rem_nmat, rem_index
            v = _repair_single_choice(comp, top, v)
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
    return (*_finish_split(gram, nmat, "pair", r, chain), None)


def _finish_split(gram, nmat, piece_kind, r, bmat):
    """Build the piece on the columns of bmat and its two-sided orthogonal
    complement."""
    bg = bmat.transpose() @ gram  # x -> f(u, x) for the columns u of bmat
    comp, free = _orthogonal_complement(bg)
    if comp.ncols + bmat.ncols != gram.nrows:
        raise InternalDegenerate("complement dimension mismatch")
    piece = UnipotentPiece(piece_kind, r, bmat, bg @ bmat)
    if not comp.ncols:  # the last piece: an empty remainder
        empty = ExactMatrix.zeros(gram.ctx, 0, 0)
        return piece, comp, empty, empty
    rem_gram = comp.transpose() @ gram @ comp
    return piece, comp, rem_gram, _restricted(nmat, comp, free)


def _strands_alternating(rem_gram, rem_index, r):
    """Whether a single split off at order r leaves an alternating remainder
    that still has order-r content; rem_index is the remainder's
    _nilpotency_index."""
    r_rem, top_rem = rem_index
    return r_rem >= r and _self_pairing_vector(
        rem_gram if r_rem == 1 else top_rem.transpose() @ rem_gram) is None


def _orthogonal_complement(bg):
    """Basis of {x : f(u, x) = 0 = f(x, u) for the columns u of bmat}, the
    kernel of bg = bmat' gram alone, and its free rows, where it is I."""
    ker = inverse_or_rank(bg, rank_only=True)
    return ker.kernel, [i for i in range(bg.ncols) if i not in ker.pivots]


def _restricted(nmat, comp, free):
    """nmat on the span of comp's columns: nmat comp at comp's free rows,
    where comp is I, with one product to check that the span is invariant."""
    image = nmat @ comp
    coords = image.submatrix(free, range(comp.ncols))
    if comp @ coords != image:
        raise InternalDegenerate("the span is not invariant under the "
                                 "operator")
    return coords


def _repair_single_choice(comp, top, v):
    """Add a full-height vector orthogonal to v, a column of comp, the
    complement of v's chain: the self-pairing value is unchanged while the
    eventual complement regains a non-alternating entry.  top is
    p^(r-1)."""
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


def peel_all(gram, nmat):
    """Peel a unipotent part completely; returns pieces with bases in the
    original coordinates.  A 1 x 1 part reads no nmat."""
    if gram.nrows == 1:  # one single of order 1, as the split would find
        return [UnipotentPiece("single", 1,
                               ExactMatrix.identity(gram.ctx, 1), gram)]
    pieces, base = [], None  # the current basis, None while it is I
    cur_gram, cur_nmat, index = gram, nmat, None
    while cur_gram.nrows:
        piece, comp, cur_gram, cur_nmat, index = split_off_indecomposable(
            cur_gram, cur_nmat, index)
        if base is not None:  # into the original coordinates
            piece = piece._replace(basis=base @ piece.basis)
        pieces.append(piece)
        base = comp if base is None or not comp.ncols else base @ comp
    return pieces


# -- the cyclic (single elementary divisor) reduction ----------------------------

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
    return ExactMatrix(ctx, rows)


def canon_single(g, eps, n):
    """Reduce a cyclic-basis Gram matrix with single elementary divisor
    (X-eps)^n to the canonical cyclic normal form.

    Returns x with x' g x = canonical_cyclic_gram(x.ctx, eps, n), over
    x.ctx, the context the reduction reached from g's.
    """
    sign, char = eigen_sign(eps), g.ctx.characteristic
    if family_of("single", sign, char, n) is None:
        raise HypothesisViolation(
            "no family has a single of order %d at eigenvalue %d in "
            "characteristic %d" % (n, sign, char))
    if n <= 2 or char == 2 and n == 3:
        return _canon_single_base(g, n)
    b1, cols = _canon_single_step(g, eps, n)
    return b1 @ ExactMatrix.blocks(b1.ctx, [cols])


def _single_vector(g, eps, n):
    """canon_single(g, eps, n)'s first column, all that its recursion reads."""
    if n <= 2 or g.ctx.characteristic == 2 and n == 3:
        return _canon_single_base(g, n).columns([0])
    b1, cols = _canon_single_step(g, eps, n)
    return b1 @ cols[0]


def _canon_single_base(g, n):
    """canon_single for n <= 2, and for n = 3 in characteristic 2."""
    if n <= 2:
        # scale the corner f(v, v) to 1 (then f(v, pv) is 2 for n = 2)
        return ExactMatrix.identity(g.ctx, n).scale(
            sqrt_or_adjoin(g[0, 0])[0].inverse())
    # scale the anti-diagonal to 1 (characteristic 2: unique square root)
    t = sqrt_or_adjoin(g[0, 2])[0].inverse()
    # v' = v + x p v with x^2 + x + c = 0, c = f(t v, t v)
    c = t * t * g[0, 0]
    one = c.ctx.one()
    xval = quadratic_roots(one, one, c, EXTEND)[0]
    return ExactMatrix(c.ctx, [[one], [xval], [0]]).shift_chain(3, 3).scale(t)


def _canon_single_step(g, eps, n):
    """Recursive case of canon_single (n >= 3, not char-2 n=3): b1 and the
    columns of x = b1 [cols], u first."""
    char = g.ctx.characteristic
    sub_idx = list(range(1, n - 1))
    # lift the new sub cyclic vector x: coordinates j of the sub basis mean
    # p^{j+1} v, so stripping one p gives sum_j x[j] p^j v
    vcoord = ExactMatrix.blocks(g.ctx, [
        [_single_vector(g.submatrix(sub_idx, sub_idx), eps, n - 2)],
        [ExactMatrix.zeros(g.ctx, 2, 1)]])
    b1 = vcoord.shift_chain(n, n)
    g1 = b1.transpose() @ g @ b1
    ctx = g1.ctx
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
        # z = p v1 + s p^{n-1} v1 fixing f(u, z) = cg[0, 1]; u solves the
        # row system, so f(u, p^{n-1} v1) = cg[0, n-1], which is not 0
        fu1 = (u.transpose() @ g1.columns([1]))[0, 0]  # f(u, p v1)
        cols.append(ExactMatrix.unit_column(ctx, n, 1)
                    + ExactMatrix.unit_column(ctx, n, n - 1).scale(
                        (cg[0, 1] - fu1) / cg[0, n - 1]))
    cols.append(ExactMatrix.identity(ctx, n).columns(range(len(cols), n)))
    return b1, cols


def _adjust_self_value(g1, part, hom, rho0):
    """u in part + span(hom) with f(u, u) = rho0, on the cyclic basis
    v1, p v1, ..., p^{n-1} v1 of g1, for the solution part and the kernel
    hom of the row system f(., p^j v1) = cg[0, j], j >= s (s = 1, or 2).

    f(p^a v1, p^b v1) = 0 for a + b >= n, so hom is ker p^s, and its first
    column h is p^{n-s} v1, e_{n-1} or e_{n-2}: f(h, h) = 0 (n >= 2s).
    f(h, part) = f(part, sigma h) = eps f(part, h) + f(part, p h), and part
    solves the system, so f(part, h) + f(h, part) is 2 cg[0, n-1] (s = 1,
    eps = 1 outside characteristic 2) or cg[0, n-1] (s = 2, where 1 + eps
    = 0): never zero.  Along h, f(u, u) is linear, and this u reaches rho0.
    """
    h = hom.columns([0])
    vmat = ExactMatrix.blocks(g1.ctx, [[part, h]])
    f = vmat.transpose() @ g1 @ vmat  # the form on part and h
    return part + h.scale((rho0 - f[0, 0]) / (f[0, 1] + f[1, 0]))


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


def _gamma_cyclic_reduction(eps, n):
    """X^-1 for the witness columns (basis matrix) X that take Gamma_n(^0),
    over eps's context, to the canonical cyclic gram.  Every reduction
    extends, so the result depends on eps's context, eps and n alone: the
    memo's key."""
    ctx = eps.ctx
    key = (ctx, eps, n)
    if key in _gamma_reduction_cache:
        return _gamma_reduction_cache[key]
    gamma = gamma_block(ctx, n)
    nmat = asymmetry_matrix(gamma).minus_scalar(eps)
    v = _height_vector(nmat.power(n - 1))
    bmat = nmat.krylov(v, n)
    x = canon_single(bmat.transpose() @ gamma @ bmat, eps, n)
    result = inverse_or_rank(bmat @ x).inverse
    if result is None:
        raise InternalDegenerate("Gamma-side reduction basis is singular")
    _gamma_reduction_cache[key] = result
    return result


def reduce_single(g, eps, n):
    """X with X' g X = gamma_block(X.ctx, n), Gamma_n(^0), for a
    single-block cyclic Gram matrix g."""
    x1 = canon_single(g, eps, n)
    # the Gamma side starts from the tower the input side reached, so a
    # root both sides need is adjoined once
    return x1 @ _gamma_cyclic_reduction(eps.promote(x1.ctx), n)


# -- the pair (two equal elementary divisors) reduction --------------------------

def reduce_pair(g, m):
    """Reduce a pair-block Gram matrix (basis v, pv, ..., w, pw, ...) at
    eigenvalue eps to ((0, J_m(eps)), (I_m, 0)), which is
    spectral.hyperbolic_block_matrix(X.ctx, m, eps).

    Returns X, whose columns are the new basis, over X.ctx, the context the
    reduction reached from g's.
    """
    v1, w1 = _pair_generators(g, m)
    if m == 1:  # the generators are the basis
        return ExactMatrix.blocks(g.ctx, [[v1, w1]])
    # final basis: s_i = p^{m-1-i} v', t_j the duals inside the w' module
    svecs = v1.shift_chain(m, m).columns(range(m - 1, -1, -1))
    return ExactMatrix.blocks(g.ctx, [[
        svecs, _module_duals(g, w1.shift_chain(m, m), svecs)]])


def _pair_generators(g, m):
    """The repaired module generators v', w' of reduce_pair(g, m), as
    coordinates in g's basis: all that its recursion reads."""
    ctx = g.ctx
    if m == 1:
        return (ExactMatrix.unit_column(ctx, 2, 0),
                ExactMatrix(ctx, [[0], [g[1, 0].inverse()]]))
    if m == 2:
        v1 = ExactMatrix.unit_column(ctx, 4, 0)
        w1 = ExactMatrix.unit_column(ctx, 4, 2)
    else:
        sub_idx = (list(range(1, m - 1))
                   + list(range(m + 1, 2 * m - 1)))
        # strip one p: sub slot j of the v part is p^{j+1} v, so the sub
        # coordinates go to slots 0..m-3 of each part, above two zeros
        two = ExactMatrix.zeros(ctx, 2, 1)
        v1, w1 = (ExactMatrix.blocks(ctx, [
            [x.submatrix(range(m - 2), [0])], [two],
            [x.submatrix(range(m - 2, 2 * m - 4), [0])], [two]])
            for x in _pair_generators(g.submatrix(sub_idx, sub_idx), m - 2))
    # repair the v side to a totally isotropic module generator, then the w
    # side symmetrically
    v1 = _repair_generator(g, v1, w1, m)
    w1 = _repair_generator(g, w1, v1, m)
    return v1, w1


def _module_duals(g, chain, targets):
    """Duals d_0, d_1, ... in the span of chain, a p-chain as long as targets
    is wide, with f(d_i, t_j) = delta_ij for the columns t_j of targets."""
    # the duals are chain P'^-1 for the pairing P = chain' G targets
    duals_t, kernel = solve(chain.transpose() @ g @ targets,
                            chain.transpose())
    if kernel.ncols:
        raise InternalDegenerate("module pairing is degenerate")
    return duals_t.transpose()


def _repair_generator(g, gen, other, m):
    """gen corrected so that its p-module is totally isotropic (m >= 2).

    p = sigma - eps, sigma an isometry with f(x, y) = f(y, sigma x), so
    f(p^a y, p^b z) = 0 whenever a + b >= m.  The duals d_0, d_1 in the
    chain of the other generator w, with f(d_i, p^j gen) = delta_ij, are
    therefore d_0 = p^{m-1} w / alpha and d_1 = (p^{m-2} w - beta d_0) /
    gamma, for alpha = f(p^{m-1} w, gen), beta = f(p^{m-2} w, gen) and
    gamma = f(p^{m-2} w, p gen); the form on gen, d_0 and d_1 is read off
    the one on gen, p gen, p^{m-2} w and p^{m-1} w.  The conditions are
    f(x, p^j x) = 0, j < m, for the new generator x:
    - f(d_0, d_0) = 0, and as f(gen, d) = f(d, eps gen + p gen),
      f(gen, d_0) + f(d_0, gen) = 1 + eps and f(gen, d_1) + f(d_1, gen) = 1;
    - adding t d_0 or t d_1 leaves each condition j >= 2 as it is, and
      these hold: p's adjoint is -eps sigma^-1 p, so f(gen, p^j gen) pairs
      vectors of the module of p gen, which the recursion made isotropic;
    - f(x, p x) = (1 - eps) f(x, x), so condition 1 follows from 0.
    So x is gen + t d_0, t the first root of condition 0 along d_0, or,
    when there is none, gen + t d_1, t its first root along d_1.
    """
    top = other.shift_chain(m, m).columns([m - 2, m - 1])
    vecs = ExactMatrix.blocks(g.ctx, [[gen.shift_chain(m, 2), top]])
    f = vecs.transpose() @ g @ vecs  # on gen, p gen, p^{m-2} w, p^{m-1} w
    alpha_inv = f[3, 0].inverse()  # d_0 = p^{m-1} w / alpha

    def both(i, j):
        return f[i, j] + f[j, i]

    roots = quadratic_roots(f[3, 3] * alpha_inv * alpha_inv,
                            both(0, 3) * alpha_inv, f[0, 0], EXTEND)
    if roots:
        return gen + vecs.columns([3]).scale(roots[0] * alpha_inv)
    # d_1 = (p^{m-2} w - r p^{m-1} w) / gamma, r = beta / alpha
    r, gamma_inv = f[2, 0] * alpha_inv, f[2, 1].inverse()
    t = quadratic_roots(
        (f[2, 2] - r * both(2, 3) + r * r * f[3, 3]) * gamma_inv * gamma_inv,
        (both(0, 2) - r * both(0, 3)) * gamma_inv, f[0, 0], EXTEND)[0]
    return gen + (vecs.columns([2]) - vecs.columns([3]).scale(r)).scale(
        t * gamma_inv)

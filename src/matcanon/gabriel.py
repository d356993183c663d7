"""Congruence decomposition into 0-Jordan blocks plus an invertible core.

Every square matrix is congruent to a direct sum of 0-Jordan blocks J_k and
an invertible core.  The construction peels the radical as J_1 blocks, then
reduces a singular zero-radical matrix to a three-block state

    basis (P, Q, K):   [[M, 0, 0],
                        [E, 0, 0],
                        [0, I, 0]]

where K spans the right kernel.  Decomposing M recursively and clearing E
against the row space of M leaves each (q_i, k_i) pair either attached to
the end of one Jordan chain of M (growing it by two) or detached as a J_2
block.  All steps are explicit congruences, and the final layouts are
column orders of X (X.columns(order)).  Like the later
pipeline stages, gabriel_decompose returns a plain, unverified congruence.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import HypothesisViolation, InternalDegenerate
from .exactmat import Congruence, ExactMatrix, inverse_or_rank, solve

GabrielDecomposition = namedtuple("GabrielDecomposition",
                                  "jordan_sizes core congruence")


def gabriel_decompose(a):
    """Decompose A up to congruence as (0-Jordan blocks) + invertible core."""
    _check_square(a)
    sizes, core, x = _decompose(a)
    target = _assemble_target(sizes, core)
    return GabrielDecomposition(sizes, core, Congruence(x, a, target))


def _check_square(*mats):
    """HypothesisViolation unless every matrix is square: congruence, and
    so every entry point, takes square matrices alone."""
    for a in mats:
        if not a.is_square():
            raise HypothesisViolation("congruence needs a square matrix, "
                                      "not %d x %d" % (a.nrows, a.ncols))


def _assemble_target(sizes, core):
    blocks = [ExactMatrix.jordan_block(core.ctx, s) for s in sizes]
    blocks.append(core)
    return ExactMatrix.block_diag(core.ctx, blocks)


def _decompose(a):
    """Worker: returns (sizes desc-sorted, core, X) with X'AX in block form."""
    ctx = a.ctx
    n = a.nrows
    ident = ExactMatrix.identity(ctx, n)
    if n == 0:
        return [], a, ident

    # 1. split the radical: rows and columns annihilated both ways
    stacked = ExactMatrix.blocks(ctx, [[a], [a.transpose()]])
    rad = inverse_or_rank(stacked, rank_only=True).kernel
    if rad.ncols:
        x0 = _extend_to_basis(rad)
        a1 = x0.transpose() @ a @ x0
        r0 = rad.ncols
        if not a1.submatrix(range(r0), range(n)).is_zero() or \
           not a1.columns(range(r0)).is_zero():
            raise InternalDegenerate("radical split failed")
        comp_idx = list(range(r0, n))
        a2 = a1.submatrix(comp_idx, comp_idx)
        sizes2, core2, x2 = _decompose(a2)
        lifted = ExactMatrix.block_diag(ctx, [ExactMatrix.identity(ctx, r0),
                                              x2])
        x_total = x0 @ lifted
        # current layout: r0 J_1 blocks, then sizes2 blocks, then core
        blocks = [[i] for i in range(r0)] + _runs(r0, sizes2)
        sizes, order = _sorted_layout(blocks, range(n - core2.nrows, n))
        return sizes, core2, x_total.columns(order)

    res = inverse_or_rank(a, rank_only=True)
    if res.rank == n:
        return [], a, ident

    # 2. singular with zero radical: build the (P, Q, K) state
    k = res.kernel.ncols
    d = n - 2 * k
    if d < 0:
        raise InternalDegenerate("kernel too large for a zero-radical matrix")
    x_acc = _extend_to_basis(res.kernel, kernel_last=True)
    g = x_acc.transpose() @ a @ x_acc

    # column-reduce the K-row block N (k x (n-k)) to [0 | I_k]
    nb = g.submatrix(range(n - k, n), range(n - k))
    r0 = _reduce_columns(nb)
    x_step = ExactMatrix.block_diag(ctx, [r0, ExactMatrix.identity(ctx, k)])
    x_acc = x_acc @ x_step
    g = x_step.transpose() @ g @ x_step

    p_idx = list(range(d))
    q_idx = list(range(d, d + k))

    # clear the (P,Q) block by subtracting K-vectors from P-vectors,
    # and the (Q,Q) block by adding K-vectors to Q-vectors
    x_step = _clear_pq_qq(g, d, k)
    x_acc = x_acc @ x_step
    g = x_step.transpose() @ g @ x_step
    _check_state(g, d, k)

    # 3. recurse on M = (P,P)
    m = g.submatrix(p_idx, p_idx)
    sizes_m, core_m, xm = _decompose(m)
    x_step = ExactMatrix.block_diag(ctx, [xm, ExactMatrix.identity(ctx, 2 * k)])
    x_acc = x_acc @ x_step
    g = x_step.transpose() @ g @ x_step

    # 4. clear E = (Q,P) down to end-of-chain columns via q_i += t_i . P,
    #    then restore the (P,Q)/(Q,Q) zeros
    chains = _runs(0, sizes_m)
    ends = [run[-1] for run in chains]
    m2 = g.submatrix(p_idx, p_idx)
    e_block = g.submatrix(q_idx, p_idx)
    t = _split_off_rowspace(m2, e_block, ends)
    if t is not None:
        # q_i += t[a, i] p_a (columns of X are new basis vectors)
        x_step = ExactMatrix.blocks(ctx, [
            [ExactMatrix.identity(ctx, d), t, ExactMatrix.zeros(ctx, d, k)],
            [ExactMatrix.zeros(ctx, 2 * k, d),
             ExactMatrix.identity(ctx, 2 * k)]])
        x_acc = x_acc @ x_step
        g = x_step.transpose() @ g @ x_step
        x_step = _clear_pq_qq(g, d, k)
        x_acc = x_acc @ x_step
        g = x_step.transpose() @ g @ x_step
        _check_state(g, d, k)

    # 5. row-reduce the end-column block of E to [[I_s],[0]] over Q (paired
    #    with the inverse-transpose on K to keep the (K,Q) identity)
    s_mat = _full_column_rank_reducer(g.submatrix(range(d, d + k), ends))
    s_inv_t = inverse_or_rank(s_mat.transpose()).inverse
    x_step = ExactMatrix.block_diag(ctx, [ExactMatrix.identity(ctx, d),
                                          s_mat, s_inv_t])
    x_acc = x_acc @ x_step
    g = x_step.transpose() @ g @ x_step

    s = len(ends)
    for i in range(k):
        for col, j in enumerate(ends):
            want = ctx.one() if i == col else ctx.zero()
            if g[d + i, j] != want:
                raise InternalDegenerate("end-column normalization failed")

    # 6. reorder into chains (each grown by its q_b and k_b) + detached
    #    (q_j, k_j) pairs + core, the blocks in descending size
    blocks = [run + [d + b, d + k + b] for b, run in enumerate(chains)]
    blocks += [[d + j, d + k + j] for j in range(s, k)]
    sizes, order = _sorted_layout(blocks, range(d - core_m.nrows, d))
    return sizes, core_m, x_acc.columns(order)


def _extend_to_basis(cols, kernel_last=False):
    """Extend the independent columns of an n x r matrix to a basis of
    unit vectors (greedy), as an n x n matrix: cols first, or last.

    The unit vectors chosen are the pivot columns of [cols | I_n].
    """
    ctx, n, r = cols.ctx, cols.nrows, cols.ncols
    units = ExactMatrix.identity(ctx, n)
    pivots = inverse_or_rank(ExactMatrix.blocks(ctx, [[cols, units]]),
                             rank_only=True).pivots
    extension = units.columns([p - r for p in pivots if p >= r])
    if r + extension.ncols != n:
        raise InternalDegenerate("could not extend to a basis")
    parts = [extension, cols] if kernel_last else [cols, extension]
    return ExactMatrix.blocks(ctx, [parts])


def _reduce_columns(nb):
    """R with NB @ R = [0 | I_k]; NB is k x m with full row rank k.

    One elimination T @ NB = reduced gives it: the kernel vectors fill the
    first m - k columns, and T = NB[:, pivots]^-1, placed on the pivot rows
    by the unit columns of the pivots, the last k.
    """
    ctx = nb.ctx
    k, m = nb.nrows, nb.ncols
    res = inverse_or_rank(nb, transform=True)
    if res.rank != k:
        raise InternalDegenerate("kernel rows are not full rank "
                                 "(radical was nonzero?)")
    units = ExactMatrix.identity(ctx, m).columns(res.pivots)
    return ExactMatrix.blocks(ctx, [[res.kernel, units @ res.transform]])


def _clear_pq_qq(g, d, k):
    """One congruence clearing the (P,Q) and (Q,Q) blocks against K, for P,
    Q and K the first d, the next k and the last k basis vectors: the
    identity with -(G[P+Q, Q])' in its (K, P+Q) block, that is p_a -= sum_j
    G[p_a, q_j] k_j and q_i -= sum_l G[q_i, q_l] k_l."""
    ctx = g.ctx
    clear = (-g.submatrix(range(d + k), range(d, d + k))).transpose()
    return ExactMatrix.blocks(ctx, [
        [ExactMatrix.identity(ctx, d + k), ExactMatrix.zeros(ctx, d + k, k)],
        [clear, ExactMatrix.identity(ctx, k)]])


def _check_state(g, d, k):
    """The (P, Q, K) state: G[P+Q, Q+K] = 0, G[K, P+K] = 0, G[K, Q] = I."""
    pq, qk, kk = range(d + k), range(d, d + 2 * k), range(d + k, d + 2 * k)
    if not g.submatrix(pq, qk).is_zero():
        raise InternalDegenerate("(P,Q)/(P,K)/(Q,Q)/(Q,K) blocks not clear")
    if not g.submatrix(kk, [*range(d), *kk]).is_zero():
        raise InternalDegenerate("(K,P)/(K,K) block not clear")
    if g.submatrix(kk, range(d, d + k)) != ExactMatrix.identity(g.ctx, k):
        raise InternalDegenerate("(K,Q) block is not the identity")


def _split_off_rowspace(m2, e_block, ends):
    """The d x k matrix T whose column t_i makes e_i + t_i' M2 supported on
    the end columns, for the rows e_i of E, or None."""
    ctx = m2.ctx
    d = m2.nrows
    k = e_block.nrows
    if d == 0 or k == 0:
        return None
    # unknowns: t (d coefficients) plus residues on end columns
    # equations: t' M2 + r . ends = e_i  as row vectors, so the system is
    # [M2' | the unit columns of the ends], one right-hand side per row e_i
    units = ExactMatrix.identity(ctx, d).columns(ends)
    sys_matrix = ExactMatrix.blocks(ctx, [[m2.transpose(), units]])
    part, _hom = solve(sys_matrix, e_block.transpose())
    if part is None:
        raise InternalDegenerate("row space split failed")
    return -part.submatrix(range(d), range(k))


def _full_column_rank_reducer(e_hat):
    """S with S' @ E_hat = [[I_s],[0]]; E_hat is k x s of full column rank."""
    res = inverse_or_rank(e_hat, transform=True)
    if res.rank != e_hat.ncols:
        raise InternalDegenerate("attachment matrix lost column rank")
    # transform @ e_hat = [[I],[0]]; the congruence needs S with S' = transform
    return res.transform.transpose()


def _runs(start, sizes):
    """Consecutive runs of column indices of the given sizes from start."""
    runs = []
    for sz in sizes:
        runs.append(list(range(start, start + sz)))
        start += sz
    return runs


def _sorted_layout(blocks, core):
    """The blocks, given as lists of column indices, in descending size
    (ties keep their order), then the core columns.

    Returns (sorted sizes, column order).
    """
    blocks = sorted(blocks, key=len, reverse=True)
    return [len(b) for b in blocks], [c for b in blocks for c in b] + [*core]

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
pipeline stages, gabriel_decompose returns a plain, unverified congruence,
and no step re-checks the state it built: a wrong step fails the one
certificate of the answer.  The raises left guard a missing solution and a
rank the layout's shapes rest on.
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
        r0 = rad.ncols
        comp = x0.columns(range(r0, n))
        a2 = comp.transpose() @ a @ comp
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

    # 5. reduce the end-column block E_hat of E (k x s, full column rank)
    #    to [[I_s],[0]]: T E_hat = [[I_s],[0]] for T^-1 = [E_hat | units],
    #    E_hat extended to a basis as in step 2, and S = T' (paired with
    #    the inverse-transpose T^-1 on K to keep the (K,Q) identity)
    s_inv_t = _extend_to_basis(g.submatrix(range(d, d + k), ends))
    t_mat = inverse_or_rank(s_inv_t).inverse
    if t_mat is None:
        raise InternalDegenerate("end-column block lost column rank")
    s_mat = t_mat.transpose()
    x_acc = x_acc @ ExactMatrix.block_diag(
        ctx, [ExactMatrix.identity(ctx, d), s_mat, s_inv_t])

    # 6. reorder into chains (each grown by its q_b and k_b) + detached
    #    (q_j, k_j) pairs + core, the blocks in descending size
    blocks = [run + [d + b, d + k + b] for b, run in enumerate(chains)]
    blocks += [[d + j, d + k + j] for j in range(len(ends), k)]
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
    parts = [extension, cols] if kernel_last else [cols, extension]
    return ExactMatrix.blocks(ctx, [parts])


def _reduce_columns(nb):
    """R with NB @ R = [0 | I_k]; NB is k x m with full row rank k.

    One solve NB X = I_k gives it: the kernel vectors fill the first m - k
    columns, and X, NB[:, pivots]^-1 on the pivot rows, the last k.
    """
    ctx = nb.ctx
    x, kernel = solve(nb, ExactMatrix.identity(ctx, nb.nrows))
    if x is None:
        raise InternalDegenerate("kernel rows are not full rank "
                                 "(radical was nonzero?)")
    return ExactMatrix.blocks(ctx, [[kernel, x]])


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

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
block.  A non-singular matrix has a zero radical, so its rank test, one
elimination, comes first and returns it as the core; a caller that has
eliminated A already, as canon eliminates [A | A'], passes its kernel
instead, and the pivots are read off that (_pivots).  The state is held
as its blocks (x_P, x_Q, K; M, E), each step updates only those it
changes, and no identity-padded step is multiplied.  A kernel basis read
off an elimination is the identity on its free rows, so the units at the
pivots, ext, extend it to a basis, with Gram matrix A[ext, ext].  The
radical, the part of K that A' kills, is nonzero exactly when K'A[:, ext]
(of A'K's rank) lacks full row rank; only then is the stacked [A; A']
elimination run.  The recursion's target is taken as the new M, and the
layouts are column orders of X (X.columns(order)).  Like the later
pipeline stages, gabriel_decompose returns a plain, unverified congruence,
and no step re-checks the state it built: a wrong step fails the one
certificate of the answer.  The raises left guard a missing solution and
a rank the layout's shapes rest on.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import HypothesisViolation, InternalDegenerate
from .exactmat import Congruence, ExactMatrix, inverse_or_rank, solve

GabrielDecomposition = namedtuple("GabrielDecomposition",
                                  "jordan_sizes core congruence")


def gabriel_decompose(a, kernel=None):
    """Decompose A up to congruence as (0-Jordan blocks) + invertible core;
    kernel, A's right kernel read off an elimination, stands in for the
    first rank test."""
    check_square(a)
    sizes, core, x = _decompose(a, kernel)
    target = _assemble_target(sizes, core)
    return GabrielDecomposition(sizes, core, Congruence(x, a, target))


def check_square(*mats):
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


def _decompose(a, kernel=None):
    """Worker: returns (sizes desc-sorted, core, X) with X'AX in block form;
    kernel, A's right kernel or None, as for gabriel_decompose."""
    ctx, n = a.ctx, a.nrows
    if n and kernel is None:
        kernel = inverse_or_rank(a, rank_only=True).kernel
    if not n or not kernel.ncols:
        return [], a, ExactMatrix.identity(ctx, n)

    # 1. the radical, {K w : A'K w = 0}, is nonzero exactly when
    #    K'A[:, ext] (of A'K's rank, as AK = 0 and the units at the
    #    pivots, ext, extend K to a basis) lacks full row rank k: when no
    #    column reduction R sends it to [0 | I_k]
    ext = _pivots(kernel)
    red = _reduce_columns(kernel.transpose() @ a.columns(ext))
    if red is None:
        return _split_radical(a)

    # 2. singular with zero radical: on the basis (P, Q, K) = ([ext] R, K)
    #    G is [[R'A[ext, ext]R, 0], [[0 | I_k], 0]]; clear its (P,Q) and
    #    (Q,Q) blocks against K, as (K,Q) = I: p_a -= sum_j G[p_a, q_j] k_j
    #    and q_i -= sum_l G[q_i, q_l] k_l
    k = kernel.ncols
    d = n - 2 * k
    p_idx, q_idx = range(d), range(d, d + k)
    g = red.transpose() @ a.submatrix(ext, ext) @ red
    x_pq = red.scattered(ext, n) - kernel @ g.columns(q_idx).transpose()
    x_p, x_q = x_pq.columns(p_idx), x_pq.columns(q_idx)
    e_block = g.submatrix(q_idx, p_idx)

    # 3. recurse on M = (P,P); its target M2 is the new (P,P) block
    sizes_m, core_m, xm = _decompose(g.submatrix(p_idx, p_idx))
    m2 = _assemble_target(sizes_m, core_m)
    x_p, e_block = x_p @ xm, e_block @ xm

    # 4. clear E = (Q,P) down to end-of-chain columns via q_i += t_i . P,
    #    which makes (P,Q) M2 t and (Q,P) E + t'M2, zero but for E_hat, the
    #    split's residues on the end columns, so (Q,Q) is t'M2t + E t =
    #    E_hat t[ends], zero when M has no chain; then restore the
    #    (P,Q)/(Q,Q) zeros as in step 2
    chains = runs(0, sizes_m)
    ends = [run[-1] for run in chains]
    t, e_hat = _split_off_rowspace(m2, e_block, ends)
    if t is not None:
        x_q = x_q + x_p @ t
        if ends:
            qq = e_hat @ t.submatrix(ends, range(k))
            x_q = x_q - kernel @ qq.transpose()
        x_p = x_p - kernel @ (m2 @ t).transpose()

    # 5. reduce the end-column block E_hat of E (k x s, full column rank)
    #    to [[I_s],[0]]: T E_hat = [[I_s],[0]] for T^-1 = [E_hat | units],
    #    E_hat extended to a basis of unit vectors, and S = T' (paired with
    #    the inverse-transpose T^-1 on K to keep the (K,Q) identity)
    s_inv_t = _extend_to_basis(e_hat)
    t_mat = inverse_or_rank(s_inv_t).inverse
    if t_mat is None:
        raise InternalDegenerate("end-column block lost column rank")
    x_acc = ExactMatrix.blocks(ctx, [[x_p, x_q @ t_mat.transpose(),
                                      kernel @ s_inv_t]])

    # 6. reorder into chains (each grown by its q_b and k_b) + detached
    #    (q_j, k_j) pairs + core, the blocks in descending size
    blocks = [run + [d + b, d + k + b] for b, run in enumerate(chains)]
    blocks += [[d + j, d + k + j] for j in range(len(ends), k)]
    sizes, order = _sorted_layout(blocks, range(d - core_m.nrows, d))
    return sizes, core_m, x_acc.columns(order)


def _split_radical(a):
    """_decompose of an A with a nonzero radical: the rows and columns
    annihilated both ways, as J_1 blocks, extended by the units at the
    pivots, ext, and A[ext, ext] decomposed on their span."""
    ctx, n = a.ctx, a.nrows
    stacked = ExactMatrix.blocks(ctx, [[a], [a.transpose()]])
    rad = inverse_or_rank(stacked, rank_only=True)
    r0 = rad.kernel.ncols
    if not r0:  # A[ext, ext] would be A itself
        raise InternalDegenerate("kernel rows lost rank, but the radical "
                                 "is zero")
    ext = list(rad.pivots)
    sizes2, core2, x2 = _decompose(a.submatrix(ext, ext))
    x_total = ExactMatrix.blocks(ctx, [[rad.kernel, x2.scattered(ext, n)]])
    # current layout: r0 J_1 blocks, then sizes2 blocks, then core
    blocks = [[i] for i in range(r0)] + runs(r0, sizes2)
    sizes, order = _sorted_layout(blocks, range(n - core2.nrows, n))
    return sizes, core2, x_total.columns(order)


def _pivots(kernel):
    """The pivot columns of the elimination a kernel basis was read off:
    all but each basis vector's last nonzero entry, its free row, as a
    reduced row's entries left of its pivot are zero."""
    n = kernel.nrows
    free = {next(i for i in range(n - 1, -1, -1) if not kernel[i, j].is_zero())
            for j in range(kernel.ncols)}
    return [i for i in range(n) if i not in free]


def _extend_to_basis(cols):
    """Extend the independent columns of an n x r matrix to a basis of
    unit vectors (greedy), as the n x n matrix [cols | units].

    The unit vectors chosen are the pivot columns of [cols | I_n].
    """
    ctx, n, r = cols.ctx, cols.nrows, cols.ncols
    units = ExactMatrix.identity(ctx, n)
    pivots = inverse_or_rank(ExactMatrix.blocks(ctx, [[cols, units]]),
                             rank_only=True).pivots
    extension = units.columns([p - r for p in pivots if p >= r])
    return ExactMatrix.blocks(ctx, [[cols, extension]])


def _reduce_columns(nb):
    """R with NB @ R = [0 | I_k] for a k x m NB, or None unless NB has
    full row rank k.

    One solve NB X = I_k gives it: the kernel vectors fill the first m - k
    columns, and X, NB[:, pivots]^-1 on the pivot rows, the last k.
    """
    ctx = nb.ctx
    x, kernel = solve(nb, ExactMatrix.identity(ctx, nb.nrows))
    return None if x is None else ExactMatrix.blocks(ctx, [[kernel, x]])


def _split_off_rowspace(m2, e_block, ends):
    """(T, E_hat): the d x k matrix T whose column t_i makes e_i + t_i' M2
    supported on the end columns, for the rows e_i of E, or None when d is
    0, and the k x s block of E + T'M2 on the end columns, the residues."""
    ctx, d, k = m2.ctx, m2.nrows, e_block.nrows
    if d == 0:
        return None, e_block.columns(ends)
    # unknowns: t (d coefficients) plus residues on end columns
    # equations: t' M2 + r . ends = e_i  as row vectors, so the system is
    # [M2' | the unit columns of the ends], one right-hand side per row e_i
    units = ExactMatrix.identity(ctx, d).columns(ends)
    sys_matrix = ExactMatrix.blocks(ctx, [[m2.transpose(), units]])
    part, _hom = solve(sys_matrix, e_block.transpose())
    if part is None:
        raise InternalDegenerate("row space split failed")
    return (-part.submatrix(range(d), range(k)),
            part.submatrix(range(d, d + len(ends)), range(k)).transpose())


def runs(start, sizes):
    """Consecutive runs of column indices of the given sizes from start."""
    ends = list(itertools.accumulate(sizes, initial=start))
    return [list(range(a, b)) for a, b in zip(ends, ends[1:])]


def _sorted_layout(blocks, core):
    """The blocks, given as lists of column indices, in descending size
    (ties keep their order), then the core columns.

    Returns (sorted sizes, column order).
    """
    blocks = sorted(blocks, key=len, reverse=True)
    return [len(b) for b in blocks], [c for b in blocks for c in b] + [*core]

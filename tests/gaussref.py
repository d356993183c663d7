"""Reference Gauss-Jordan elimination on Fractions, for the tests.

A matrix is a list of rows of Fractions.  rref reduces rows in place by
the textbook loop: for each column, the first row at or below the current
one with a nonzero entry there is swapped up, scaled to 1 and cleared from
every other row.  inverse_or_rank, solve and first_dependence answer what
the kernels of matcanon.exactmat answer, from that loop alone, with no
arithmetic of matcanon.field, so the tests compare those kernels against
them raw value for raw value.
"""

from fractions import Fraction


def rref(work, m):
    """Reduce the rows in place, pivots in the first m columns; returns
    the pivot columns."""
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                f = row[c]
                work[i] = [x - f * y for x, y in zip(row, work[r])]
        pivots.append(c)
        r += 1
    return pivots


def kernel(work, pivots, m):
    """The kernel basis, as rows of the m x (m - rank) matrix: one column
    per free column, 1 in its own row, minus the reduced entries of that
    column in the pivot rows."""
    free = [j for j in range(m) if j not in pivots]
    rows = [None] * m
    for c, fcol in enumerate(free):
        rows[fcol] = [Fraction(int(d == c)) for d in range(len(free))]
    for row, pc in zip(work, pivots):
        rows[pc] = [-row[fcol] for fcol in free]
    return rows


def inverse_or_rank(a, ncols, rank_only=False):
    """(inverse or None, rank, kernel rows, pivots) of the matrix a with
    ncols columns, as matcanon.inverse_or_rank."""
    n = len(a)
    augment = n == ncols and not rank_only
    work = [list(row) + ([Fraction(int(i == j)) for j in range(n)]
                         if augment else []) for i, row in enumerate(a)]
    pivots = rref(work, ncols)
    rank = len(pivots)
    inv = [row[ncols:] for row in work] if augment and rank == n else None
    return inv, rank, kernel(work, pivots, ncols), pivots


def solve(a, ncols, b, bcols):
    """(particular solution rows or None, kernel rows) of a x = b, as
    matcanon.solve."""
    work = [list(row) + list(rhs) for row, rhs in zip(a, b)]
    pivots = rref(work, ncols)
    ker = kernel(work, pivots, ncols)
    if any(x for row in work[len(pivots):] for x in row[ncols:]):
        return None, ker
    particular = [[Fraction(0)] * bcols for _ in range(ncols)]
    for row, pc in zip(work, pivots):
        particular[pc] = row[ncols:]
    return particular, ker


def first_dependence(vectors):
    """[c_0, ..., c_(d-1), 1] for the least d with c_0 v_0 + ... + v_d = 0,
    or None: v_d solved against the independent v_0, ..., v_(d-1)."""
    for d, v in enumerate(vectors):
        cols = [list(col) for col in zip(*vectors[:d])] or [[] for _ in v]
        x, _ker = solve(cols, d, [[e] for e in v], 1)
        if x is not None:
            return [-row[0] for row in x] + [Fraction(1)]
    return None

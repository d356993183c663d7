"""Reference check of a congruence answer on Scalars, for the tests.

check(x, a, b) decides whether X'AX = B with X invertible from the entries
alone, read out as Scalars: X'AX is formed entry by entry with the Scalar
operators, (X'AX)[i][j] = sum_k X[k][i] (sum_l A[k][l] X[l][j]), and the
rank of X is found by the textbook Gauss-Jordan loop of tests/gaussref.py,
run on Scalars.  No ExactMatrix product, elimination or comparison is
called, so a fault in those kernels cannot hide a wrong answer from it,
and a caller passes the B it expects (the canonical matrix of the form, A',
the other side of an equivalence), not the one the answer claims.
"""

import gaussref


def congruence(x, a):
    """X'AX, as rows of Scalars, for X and A given as rows of Scalars."""
    n = len(x)
    zero = x[0][0] - x[0][0] if n else None
    ax = [[_dot(row, [x[l][j] for l in range(n)], zero) for j in range(n)]
          for row in a]
    return [[_dot([x[k][i] for k in range(n)], [ax[k][j] for k in range(n)],
                  zero) for j in range(n)] for i in range(n)]


def _dot(u, v, zero):
    total = zero
    for s, t in zip(u, v):
        total = total + s * t
    return total


def rank(rows):
    """The rank of a matrix given as rows of Scalars."""
    return len(gaussref.rref([list(row) for row in rows],
                             len(rows[0]) if rows else 0))


def check(x, a, b):
    """Raise AssertionError unless X'AX = B and X is invertible, for
    square ExactMatrix X, A and B (contexts may differ along one tower)."""
    x, a, b = x.rows, a.rows, b.rows
    n = len(x)
    if any(len(m) != n or any(len(row) != n for row in m) for m in (x, a, b)):
        raise AssertionError("reference check: shapes %d x %d, A %d rows, "
                             "B %d rows" % (n, len(x[0]) if x else 0,
                                            len(a), len(b)))
    got = congruence(x, a)
    wrong = [(i, j) for i in range(n) for j in range(n)
             if got[i][j] != b[i][j]]
    if wrong:
        raise AssertionError("reference check: X'AX != B at %r" % wrong[:4])
    if rank(x) != n:
        raise AssertionError("reference check: X is singular")

"""The eliminations over Q against a plain Gauss-Jordan on Fractions.

Over Q itself the one elimination loop reduces integer rows over one row
denominator (field._IntRows), not raw values.  inverse_or_rank (in both
modes: with the inverse of a square input, and rank_only), solve and
first_dependence must still return exactly what the textbook loop on
Fractions returns (tests/gaussref.py), raw tuple for raw tuple: the same
pivots, kernels, inverses and solutions.  The inputs run from 0 x 0 and
zero rows through the zero matrix to 30-digit numerators and denominators,
with negative entries and planted dependences.  The settings are
derandomized, so each run draws the same examples.
"""

from fractions import Fraction

import pytest

from matcanon import ExactMatrix, inverse_or_rank, rationals, solve
from matcanon.exactmat import first_dependence

import gaussref

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

Q = rationals()
BIG = 10 ** 30
KERNELS = settings(derandomize=True, max_examples=150, deadline=None)

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """(rows of Fractions, column count): any shape up to 5 x 5, with a
    row or column often a combination of others."""
    n = draw(st.integers(0, 5)) if nrows is None else nrows
    m = draw(st.integers(0, 5)) if ncols is None else ncols
    rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        f = draw(entries)
        rows[-1] = [x + f * y for x, y in zip(rows[0], rows[-2])]
    if m >= 2 and draw(st.booleans()):
        f = draw(entries)
        for row in rows:
            row[-1] = row[0] - f * row[1]
    return rows, m


def exact(rows, ncols):
    if not (rows and ncols):
        return ExactMatrix.zeros(Q, len(rows), ncols)
    return ExactMatrix(Q, rows)


def raw(rows):
    """Fraction rows as the raw rows of Q: (numerator, denominator)."""
    return tuple(tuple((x.numerator, x.denominator) for x in row)
                 for row in rows)


def same(got, want):
    """A matrix (or None) against reference rows (or None)."""
    assert (got is None) == (want is None)
    if got is not None:
        assert got.raw == raw(want)


SPECIAL = [
    ([], 0),
    ([[], []], 0),
    ([], 3),
    ([[Fraction(0)] * 3] * 3, 3),
    ([[Fraction(BIG - 1, BIG), Fraction(-BIG, 7)],
      [Fraction(-3, BIG + 1), Fraction(BIG * 3 + 1, 2)]], 2),
    ([[Fraction(2), Fraction(-4), Fraction(6)],
      [Fraction(-1), Fraction(2), Fraction(-3)]], 3),
    ([[Fraction(0), Fraction(1, 3)], [Fraction(0), Fraction(-5)],
      [Fraction(0), Fraction(0)]], 2),
]


@pytest.mark.parametrize("a", SPECIAL)
def test_special_shapes_match_the_reference(a):
    check_inverse_or_rank(a)


@KERNELS
@given(matrices())
@example(([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]], 2))
def test_inverse_or_rank_matches_the_reference(a):
    check_inverse_or_rank(a)


def check_inverse_or_rank(a):
    rows, m = a
    mat = exact(rows, m)
    for kwargs in ({}, {"rank_only": True}):
        got = inverse_or_rank(mat, **kwargs)
        inv, rank, ker, pivots = gaussref.inverse_or_rank(rows, m, **kwargs)
        same(got.inverse, inv)
        assert got.rank == rank
        assert got.pivots == tuple(pivots)
        assert got.kernel.raw == raw(ker)
        assert (got.kernel.nrows, got.kernel.ncols) == (m, m - rank)


@KERNELS
@given(matrices(), st.integers(0, 3), st.data())
def test_solve_matches_the_reference(a, bcols, data):
    rows, m = a
    b = [[data.draw(entries) for _ in range(bcols)] for _ in rows]
    if rows and bcols and data.draw(st.booleans()):
        # a right-hand side in the column space: consistent
        x = [data.draw(entries) for _ in range(m)]
        for row, rhs in zip(rows, b):
            rhs[0] = sum((u * v for u, v in zip(row, x)), Fraction(0))
    check_solve(rows, m, b, bcols)


def test_solve_reports_an_inconsistent_column():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    b = [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(5)]]
    assert gaussref.solve(rows, 2, b, 2)[0] is None
    check_solve(rows, 2, b, 2)


def check_solve(rows, m, b, bcols):
    part, ker = solve(exact(rows, m), exact(b, bcols))
    want_part, want_ker = gaussref.solve(rows, m, b, bcols)
    same(part, want_part)
    assert ker.raw == raw(want_ker)


@KERNELS
@given(st.integers(0, 4), st.data())
def test_first_dependence_matches_the_reference(n, data):
    """Powers of a random square matrix (a minimal polynomial), and lists
    of matrices of one shape with a planted dependence."""
    if data.draw(st.booleans()):
        s = exact(*data.draw(matrices(n, n)))
        mats = [ExactMatrix.identity(Q, n)]
        for _ in range(n):
            mats.append(mats[-1] @ s)
    else:
        shape = (n, data.draw(st.integers(0, 3)))
        mats = [exact(*data.draw(matrices(*shape)))
                for _ in range(data.draw(st.integers(1, 4)))]
        if len(mats) >= 2:
            f = data.draw(entries)
            mats.append(mats[0] + mats[-1].scale(f))
    check_first_dependence(mats)


def test_first_dependence_of_independent_matrices_is_none():
    mats = [ExactMatrix(Q, [[1, 0], [0, Fraction(BIG, 3)]]),
            ExactMatrix(Q, [[0, -1], [Fraction(-1, BIG), 0]])]
    check_first_dependence(mats)
    assert first_dependence(mats) is None


def check_first_dependence(mats):
    vectors = [[x for row in m.rows for x in row] for m in mats]
    want = gaussref.first_dependence(
        [[Fraction(*e.raw) for e in v] for v in vectors])
    got = first_dependence(iter(mats))
    assert (got is None) == (want is None)
    if got is not None:
        assert tuple(c.raw for c in got) == raw([want])[0]

"""Rational roots over Q: roots._rational_root against the divisor
search of tests/rootref.py, and inputs whose coefficients are far too large
for that search (a 20-digit root, eigenvalues 10^18 + 1 and its inverse, a
random 16 x 16 matrix).

The property test plants roots in integer polynomials of degree 3 to 8:
several of them, repeated ones, 0, +-1, fractions and negatives, times a
small cofactor that may add roots of its own.  No answer sweep finds a
rational root of degree >= 3, so this test is what pins the choice among
several.  Its settings are derandomized, so each run draws the same
examples.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matcanon import (Block, ExactMatrix, NotSplit,  # noqa: E402
                      canonicalize)
from matcanon.field import rationals  # noqa: E402
from matcanon.roots import _rational_root, find_one_root  # noqa: E402
from matcanon.spectral import asymmetry, split_min_poly  # noqa: E402

from rootref import rational_root  # noqa: E402

Q = rationals()

ROOTS = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                  st.builds(Fraction, st.integers(-12, 12),
                            st.integers(1, 6)))


def _integer_poly(roots, cofactor):
    """cofactor times b X - a for each root a/b (with its multiplicity), as
    integer coefficients, low to high."""
    f = list(cofactor)
    for x, mult in roots:
        for _ in range(mult):
            a, b = x.numerator, x.denominator
            f = [b * hi - a * lo for lo, hi in zip(f + [0], [0] + f)]
    return f


def _monic(f):
    return [Q.scalar(Fraction(c, f[-1])) for c in f]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(ROOTS, st.integers(1, 3)), max_size=4),
       cofactor=st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@example(roots=[(Fraction(2), 1), (Fraction(-3), 1), (Fraction(5), 1)],
         cofactor=[1])
@example(roots=[(Fraction(-1, 2), 2), (Fraction(1, 2), 1)], cofactor=[3])
@example(roots=[(Fraction(0), 1), (Fraction(7, 3), 2)], cofactor=[1, 0, 1])
@example(roots=[(Fraction(-1), 3), (Fraction(1), 1)], cofactor=[2, 1])
@example(roots=[(Fraction(-4, 3), 1), (Fraction(4, 3), 1),
                (Fraction(3, 4), 1)], cofactor=[5, 0, 2])
@example(roots=[(Fraction(-5, 6), 1)], cofactor=[2, 0, 0, 1])
@example(roots=[], cofactor=[1, 1, 1, 1])
def test_rational_root_matches_divisor_search(roots, cofactor):
    assume(cofactor[-1] != 0)
    f = _integer_poly(roots, cofactor)
    assume(4 <= len(f) <= 9)
    got = _rational_root(_monic(f))
    want = rational_root(f)
    assert got == (None if want is None else Q.scalar(want)), f


def test_cubic_with_20_digit_root_splits():
    """(7X + r)(X^2 + X + 1) with a 20-digit r: the root -r/7, then the
    root the quadratic adjoins."""
    r = 12345678901234567891
    poly = _monic(_integer_poly([(Fraction(-r, 7), 1)], [1, 1, 1]))
    assert _rational_root(poly) == Q.scalar(Fraction(-r, 7))
    root, _listed = find_one_root(poly)
    assert root == Q.scalar(Fraction(-r, 7))
    rest = _monic([1, 1, 1])
    other, _listed = find_one_root(rest)
    assert other.ctx.tower and (other * other + other + 1).is_zero()


@pytest.mark.parametrize("second", [[[1, 1], [0, 1]], [[2, 1], [0, 3]]],
                         ids=["unipotent", "pair-2-3"])
def test_eigenvalue_ten_to_the_eighteen(second):
    """block_diag([[0, 1], [R, 0]], B) with R = 10^18 + 1: the asymmetry
    has the eigenvalues R and 1/R, and the search takes R (denominator 1)."""
    big = 10 ** 18 + 1
    a = ExactMatrix.block_diag(Q, [ExactMatrix(Q, [[0, 1], [big, 0]]),
                                   ExactMatrix(Q, second)])
    roots = [r for r, _m in split_min_poly(asymmetry(a)).split_roots]
    assert roots[:2] == [Q.scalar(big), Q.scalar(Fraction(1, big))]
    form, _witness = canonicalize(a)  # the witness is checked when built
    assert Block("G", 2, Q.scalar(Fraction(1, big))) in form.blocks


def test_random_16x16_over_q_is_not_split():
    """The minimal polynomial of a random 16 x 16 asymmetry over Q is
    irreducible of degree 16: the refusal is NotSplit."""
    rng = random.Random(16)
    a = ExactMatrix(Q, [[rng.randint(-3, 3) for _ in range(16)]
                        for _ in range(16)])
    with pytest.raises(NotSplit):
        canonicalize(a)

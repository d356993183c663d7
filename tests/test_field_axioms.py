"""Property tests of the field axioms in towers and large prime fields.

Elements are drawn coordinate by coordinate over the base field, so every
element of each tower can occur.  The settings are derandomized: each run
draws the same examples, and the suite stays deterministic.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matcanon.field import (Scalar, artin_schreier_root_or_adjoin,  # noqa: E402
                            gf4, prime_field, rationals)


def _towers():
    q = rationals()
    q2 = q.adjoin_sqrt(q.scalar(2))
    f3 = prime_field(3)
    f4 = gf4()
    _r, f4_as = artin_schreier_root_or_adjoin(f4.base_element((0, 1)))
    assert f4_as.tower  # t has no Artin-Schreier root in GF(4)
    return {
        "Q(sqrt2,sqrt3)": q2.adjoin_sqrt(q2.scalar(3)),
        "GF(3)(sqrt-1)": f3.adjoin_sqrt(f3.scalar(-1)),
        "GF(4)+AS": f4_as,
        "GF(65521)": prime_field(65521),
    }


TOWERS = _towers()
AXIOMS = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)


def _base(ctx):
    if ctx.kind == "rational":
        return st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
    if ctx.kind == "gfp":
        return st.integers(0, ctx.p - 1)
    return st.tuples(*[st.integers(0, ctx.p - 1) for _ in ctx.modulus])


def elements(ctx):
    return st.lists(_base(ctx), min_size=ctx.dim, max_size=ctx.dim).map(
        lambda coords: Scalar(ctx, coords))


def triples(ctx):
    return st.tuples(elements(ctx), elements(ctx), elements(ctx))


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_ring_axioms(name):
    ctx = TOWERS[name]

    @AXIOMS
    @given(triples(ctx))
    def check(xyz):
        x, y, z = xyz
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + ctx.zero() == x and x * ctx.one() == x

    check()


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_nonzero_elements_are_invertible(name):
    ctx = TOWERS[name]

    @AXIOMS
    @given(elements(ctx).filter(lambda x: not x.is_zero()))
    def check(x):
        assert x * x.inverse() == ctx.one()

    check()

"""Property tests of the field axioms in towers and large prime fields, and
of the raw rational arithmetic of the kernels against the Scalar operators.

Elements are drawn coordinate by coordinate over the base field, so every
element of each tower can occur.  Rational towers of height 1 to 4 are drawn
record by record, each d at a random level of the tower below it.  The
settings are derandomized: each run draws the same examples, and the suite
stays deterministic.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matcanon.field import (Scalar, _RatOps, _raw_ops,  # noqa: E402
                            artin_schreier_root_or_adjoin, gf4, prime_field,
                            rationals)


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


def lower_elements(ctx):
    """Elements of a random level of ctx, promoted: sparse and dense
    coordinate vectors alike."""
    return st.integers(0, len(ctx.tower)).flatmap(
        lambda k: elements(ctx.truncated(k)).map(lambda x: x.promote(ctx)))


@st.composite
def rational_towers(draw):
    """Q with 1 to 4 square roots adjoined, each of a non-square d drawn at
    a random level of the tower so far."""
    ctx = rationals()
    for _ in range(draw(st.integers(1, 4))):
        d = draw(lower_elements(ctx))
        try:
            ctx = ctx.adjoin_sqrt(d)
        except ValueError:  # d is a square in ctx
            assume(False)
    return ctx


@AXIOMS
@given(st.data())
def test_rational_raw_ops_match_scalar_operators(data):
    ctx = data.draw(rational_towers())
    x, y, f, c = (data.draw(lower_elements(ctx)) for _ in range(4))
    ops = _raw_ops(ctx)
    assert isinstance(ops, _RatOps)

    def back(raw_row):
        return [s.coords for s in ops.wrap([raw_row])[0]]

    def want(*scalars):
        return [s.coords for s in scalars]

    rx, ry, rf, rc = ops.unwrap([[x, y, f, c]])[0]
    assert back(ops.scale([rx, ry, rf], rc)) == want(x * c, y * c, f * c)
    assert back(ops.axpy([rx, ry], rf, [ry, rc])) == want(x - f * y,
                                                          y - f * c)
    # [[x, y], [f, c]] @ [[c, x], [y, f]], the right side given by columns
    assert [back(row) for row in ops.matmul([[rx, ry], [rf, rc]],
                                            [[rc, ry], [rx, rf]])] == \
        [want(x * c + y * y, x * x + y * f), want(f * c + c * y,
                                                  f * x + c * f)]
    if not x.is_zero():
        assert back([ops.inverse(rx)]) == want(x.inverse())

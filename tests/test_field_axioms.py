"""Property tests of the field axioms in towers and large prime fields, of
the raw arithmetic of towers against the coordinate arithmetic of
tests/towerref.py (tower_mul, tower_inv), and of moving raw values along
towers (promote, trim, == and hash).

Elements are drawn coordinate by coordinate over the base field, so every
element of each tower can occur.  Towers of height 1 to 4 are drawn record
by record, each d at a random level of the tower below it: over Q, and over
GF(3), GF(65521) and GF(4), where they cross the 256-element table cap.
The settings are derandomized: each run draws the same examples, and the
suite stays deterministic.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matcanon.field import (_RatOps, _TABLE_MAX_ORDER,  # noqa: E402
                            adjoin_record, artin_schreier_root_or_adjoin,
                            gf4, prime_field, rationals)

from towerref import badd, bneg, bzero, tower_inv, tower_mul  # noqa: E402


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
        lambda coords: ctx.element(coords))


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


FINITE_BASES = {"GF(3)": prime_field(3), "GF(65521)": prime_field(65521),
                "GF(4)": gf4()}


@st.composite
def finite_towers(draw, ctx):
    """A finite ctx with 1 to 4 records, square roots in odd characteristic
    and Artin-Schreier roots in characteristic 2, each d the first of eight
    elements drawn at random levels of the tower so far that has no root
    there.  GF(3) and GF(4) cross the table cap at height 3, GF(65521) at
    height 1."""
    c1 = int(ctx.p == 2)
    # sampled, so that the heights above the cap come up as often as 1
    for _ in range(draw(st.sampled_from([1, 2, 3, 4]))):
        for d in draw(st.lists(lower_elements(ctx), min_size=8,
                               max_size=8)):
            try:
                ctx = adjoin_record(ctx, c1, d)
                break
            except ValueError:  # d has a root in ctx
                pass
        else:
            assume(False)
    return ctx


def check_raw_ops(ctx, x, y, f, c):
    """Each element and row operation of ctx.ops on the raw values of x,
    y, f and c gives the coordinates of tower_mul, tower_inv and the
    coordinatewise sum."""
    ops = ctx.ops
    level = len(ctx.tower)

    def mul(u, v):
        return tower_mul(ctx, u.coords, v.coords, level)

    def add(u, v):
        return tuple(badd(ctx, a, b) for a, b in zip(u, v))

    def sub(u, v):
        return tuple(badd(ctx, a, bneg(ctx, b)) for a, b in zip(u, v))

    def back(raw_row):
        return [ops.to_coords(v) for v in raw_row]

    rx, ry, rf, rc = x.raw, y.raw, f.raw, c.raw
    assert back([ops.mul(rx, ry), ops.add(rx, ry), ops.neg(rx)]) == \
        [mul(x, y), add(x.coords, y.coords),
         tuple(bneg(ctx, a) for a in x.coords)]
    assert back(ops.scale([rx, ry, rf], rc)) == [mul(x, c), mul(y, c),
                                                 mul(f, c)]
    assert back(ops.axpy([rx, ry], rf, [ry, rc])) == \
        [sub(x.coords, mul(f, y)), sub(y.coords, mul(f, c))]
    # [[x, y], [f, c]] @ [[c, x], [y, f]], the right side given by columns
    assert [back(row) for row in ops.matmul([[rx, ry], [rf, rc]],
                                            [[rc, ry], [rx, rf]])] == \
        [[add(mul(x, c), mul(y, y)), add(mul(x, x), mul(y, f))],
         [add(mul(f, c), mul(c, y)), add(mul(f, x), mul(c, f))]]
    if not x.is_zero():
        assert back([ops.inverse(rx)]) == [tower_inv(ctx, x.coords, level)]


@AXIOMS
@given(st.data())
def test_rational_raw_ops_match_tower_arithmetic(data):
    """_RatOps on raw values gives the Fraction coordinates of tower_mul
    and tower_inv."""
    ctx = data.draw(rational_towers())
    assert isinstance(ctx.ops, _RatOps)
    check_raw_ops(ctx, *(data.draw(lower_elements(ctx)) for _ in range(4)))


@pytest.mark.parametrize("name", sorted(FINITE_BASES))
def test_finite_raw_ops_match_tower_arithmetic(name):
    """The ops of finite towers, on tables up to the cap and on integer
    vectors mod p above it, give the coordinates of tower_mul and
    tower_inv; promoting an element of a lower level across the cap and
    trimming it back move its raw value and keep its coordinates, its
    value and its hash."""

    @AXIOMS
    @given(st.data())
    def check(data):
        ctx = data.draw(finite_towers(FINITE_BASES[name]))
        xyfc = [data.draw(lower_elements(ctx)) for _ in range(4)]
        check_raw_ops(ctx, *xyfc)
        check_promote_and_trim(ctx, xyfc[0])

    check()


def check_promote_and_trim(ctx, x):
    """x, trimmed and promoted back up every level of ctx, keeps its
    coordinates, value, hash and raw value; across the cap an index or an
    int becomes a vector."""
    low = x.trim()
    assert low.coords == x.coords[:low.ctx.dim]
    assert x.coords[low.ctx.dim:] == (bzero(ctx),) * (ctx.dim - low.ctx.dim)
    for height in range(len(low.ctx.tower), len(ctx.tower) + 1):
        up = low.promote(ctx.truncated(height))
        assert up.coords == x.coords[:up.ctx.dim]
        assert up == x and hash(up) == hash(x)
        assert up.trim().raw == low.raw and up.trim().ctx == low.ctx
    if ctx.order() > _TABLE_MAX_ORDER and low.ctx.order() <= \
            _TABLE_MAX_ORDER:
        assert type(x.raw) is tuple and type(low.raw) is int


def _non_square(ctx):
    """The first nonzero element of a finite ctx with no square root."""
    return next(x for x in ctx.iter_elements()
                if not x.is_zero() and not any(
                    y * y == x for y in ctx.iter_elements()))


def _chains():
    """Towers, lowest level first, across the raw representations: GF(3)
    (ints) to GF(9) and GF(81) (table indices) to GF(6561) (integer vectors
    mod 3); GF(65521) (ints) to one square root (integer vectors mod p);
    GF(4) to GF(16) (table indices); Q to Q(sqrt2, sqrt3) (normalized
    integer vectors)."""
    f3 = prime_field(3)
    f9 = f3.adjoin_sqrt(f3.scalar(2))
    f81 = f9.adjoin_sqrt(_non_square(f9))
    # the first element of GF(81) with no root: a square root search over
    # all 81 elements for each of 81 elements is quick enough
    f6561 = f81.adjoin_sqrt(_non_square(f81))
    big = prime_field(65521)
    f4 = gf4()
    q = rationals()
    q2 = q.adjoin_sqrt(q.scalar(2))
    return {
        "GF(3)..GF(6561)": [f3, f9, f81, f6561],
        "GF(65521)(sqrt17)": [big, big.adjoin_sqrt(big.scalar(17))],
        "GF(4)+AS": [f4, f4.adjoin_artin_schreier(f4.base_element((0, 1)))],
        "Q(sqrt2,sqrt3)": [q, q2, q2.adjoin_sqrt(q2.scalar(3))],
    }


CHAINS = _chains()


def _padded(x, ctx):
    """x's coordinates zero-extended to ctx: promotion on coordinates."""
    coords = x.coords
    return coords + (ctx.zero().coords[0],) * (ctx.dim - len(coords))


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_promote_and_trim_move_raw_values(name):
    """Promoting moves the raw value up a tower and trimming moves it back:
    the two give an equal scalar with the identical raw value and hash, and
    promotion zero-extends the coordinates.  Products and sums of scalars
    of different heights match tower_mul and the coordinatewise sum."""
    chain = CHAINS[name]
    top = chain[-1]
    drawn = st.sampled_from(chain).flatmap(elements)

    @AXIOMS
    @given(drawn, drawn)
    def check(x, w):
        low = x.trim()
        assert low == x and hash(low) == hash(x)
        assert low.coords == x.coords[:low.ctx.dim]
        assert low.ctx.tower == x.ctx.tower[:len(low.ctx.tower)]
        half = low.ctx.dim // 2
        assert not low.ctx.tower or any(
            c != low.ctx.zero().coords[0] for c in low.coords[half:])
        for ctx in chain[len(x.ctx.tower):]:
            up = x.promote(ctx)
            assert up.ctx == ctx and up.coords == _padded(x, ctx)
            assert up == x and hash(up) == hash(x)
            back = up.trim()
            assert back.raw == low.raw and back.ctx == low.ctx
            assert back == x and hash(back) == hash(x)
        assert (x * w).promote(top).coords == tower_mul(
            top, _padded(x, top), _padded(w, top), len(top.tower))
        assert (x + w).promote(top).coords == tuple(
            badd(top, u, v) for u, v in zip(_padded(x, top), _padded(w, top)))

    check()

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import matcanon
from matcanon.errors import (ContextMismatch, DivisionByZero,
                             NoRootStrictPolicy, ParseError,
                             TowerCapExceeded, WrongCharacteristic)
from matcanon.field import (EXTEND, STRICT, Scalar, _is_prime,
                            artin_schreier_root_or_adjoin,
                            canonical_compare, finite_field, format_scalar,
                            gf4, parse_scalar, prime_field, rationals,
                            sqrt_or_adjoin)


def test_rational_arithmetic():
    q = rationals()
    half = q.scalar(Fraction(1, 2))
    third = q.scalar(Fraction(1, 3))
    assert half + third == q.scalar(Fraction(5, 6))
    assert half * third == q.scalar(Fraction(1, 6))
    assert (half / third) == q.scalar(Fraction(3, 2))


def test_gf3_arithmetic():
    f = prime_field(3)
    two = f.scalar(2)
    assert two * two == f.one()
    assert two + two == f.one()
    assert (f.one() / two) == two


def test_sqrt2_tower_product():
    q = rationals()
    g, ctx = sqrt_or_adjoin(q.scalar(2))
    assert g * g == ctx.scalar(2)
    one = ctx.one()
    # (1+g)(1-g) = 1 - g^2 = -1
    assert (one + g) * (one - g) == ctx.scalar(-1)


def test_sqrt_of_perfect_square_does_not_extend():
    q = rationals()
    r, ctx = sqrt_or_adjoin(q.scalar(4))
    assert ctx == q
    assert r == q.scalar(2)
    r, ctx = sqrt_or_adjoin(q.scalar(Fraction(9, 16)))
    assert ctx == q and r == q.scalar(Fraction(3, 4))


def test_sqrt_strict_nonsquare_gf3():
    f = prime_field(3)
    # squares mod 3 are {0, 1}
    with pytest.raises(NoRootStrictPolicy):
        sqrt_or_adjoin(f.scalar(2), STRICT)


def test_sqrt_adjoin_then_reuse():
    q = rationals()
    g, ctx = sqrt_or_adjoin(q.scalar(2))
    # the adjoined root is found without growing the tower again
    r, ctx2 = sqrt_or_adjoin(ctx.scalar(2))
    assert ctx2 == ctx
    assert r * r == ctx.scalar(2)


def test_sqrt_odd_prime_field_found_internally():
    f = prime_field(7)
    r, ctx = sqrt_or_adjoin(f.scalar(2))  # 3*3 = 9 = 2 mod 7
    assert ctx == f
    assert r * r == f.scalar(2)


def test_sqrt_gf9_tower():
    f = prime_field(3)
    g, ctx = sqrt_or_adjoin(f.scalar(2))  # GF(9)
    assert g * g == ctx.scalar(2)
    # every element of GF(9)* is either a square or 2*square; spot check
    r, ctx2 = sqrt_or_adjoin(ctx.scalar(2) + g)
    assert r * r == (ctx2.scalar(2) + g.promote(ctx2))


def test_artin_schreier_gf2():
    f = prime_field(2)
    x, ctx = artin_schreier_root_or_adjoin(f.zero())
    assert ctx == f and x * x + x == f.zero()
    # a = 1 has no root in GF(2): 0,1 both fail; adjoin gives GF(4)
    w, ctx4 = artin_schreier_root_or_adjoin(f.one())
    assert ctx4 != f
    assert w * w + w + ctx4.one() == ctx4.zero()


def test_artin_schreier_gf4_trace():
    f4 = gf4()
    om = f4.base_element((0, 1))  # omega, omega^2+omega+1=0
    # trace(omega) = omega + omega^2 = 1, so no root in GF(4)
    with pytest.raises(NoRootStrictPolicy):
        artin_schreier_root_or_adjoin(om, STRICT)
    x, ctx = artin_schreier_root_or_adjoin(om, EXTEND)
    assert x * x + x == om.promote(ctx)


def test_artin_schreier_wrong_characteristic():
    q = rationals()
    with pytest.raises(WrongCharacteristic):
        artin_schreier_root_or_adjoin(q.one())


def test_as_exact_on_small_char2_fields():
    # x^2+x+a has a root iff trace(a)=0; verify solutions exactly over
    # GF(2), GF(4), GF(8)
    fields = [prime_field(2), gf4(), finite_field(2, (1, 1, 0))]
    for f in fields:
        for a in f.iter_elements():
            try:
                x, ctx = artin_schreier_root_or_adjoin(a, STRICT)
            except NoRootStrictPolicy:
                # verify absence by enumeration
                assert all((y * y + y) != a for y in f.iter_elements())
                continue
            assert x * x + x == a


def test_canonical_compare_spec_examples():
    q = rationals()
    assert canonical_compare(q.scalar(2), q.scalar(Fraction(1, 2))) > 0
    f5 = prime_field(5)
    assert canonical_compare(f5.scalar(3), f5.scalar(4)) < 0
    g, ctx = sqrt_or_adjoin(q.scalar(2))
    assert canonical_compare(g, ctx.one()) > 0


def test_canonical_compare_total_order():
    rng = random.Random(7)
    f = prime_field(5)
    pool = list(f.iter_elements())
    for _ in range(200):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ab, bc, ac = (canonical_compare(a, b), canonical_compare(b, c),
                      canonical_compare(a, c))
        assert (ab == 0) == (a == b)
        if ab < 0 and bc < 0:
            assert ac < 0
        if ab > 0 and bc > 0:
            assert ac > 0


def test_parse_format_round_trip():
    q = rationals()
    s = parse_scalar("-3/7", q)
    assert s == q.scalar(Fraction(-3, 7))
    assert parse_scalar(format_scalar(s), q) == s

    f3 = prime_field(3)
    assert parse_scalar("2", f3) == f3.scalar(2)

    g, ctx = sqrt_or_adjoin(q.scalar(2))
    v = parse_scalar("1+1*g1", ctx)
    assert v == ctx.one() + g
    assert parse_scalar(format_scalar(v), ctx) == v


def test_parse_format_round_trip_random():
    rng = random.Random(3)
    q = rationals()
    _, ctx = sqrt_or_adjoin(q.scalar(2))
    _, ctx = sqrt_or_adjoin(ctx.scalar(3))
    for _ in range(50):
        coords = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(ctx.dim))
        x = ctx.element(coords)
        assert parse_scalar(format_scalar(x), ctx) == x


def test_parse_format_gf4():
    f4 = gf4()
    om = f4.base_element((0, 1))
    assert parse_scalar("t", f4) == om
    assert parse_scalar(format_scalar(om + f4.one()), f4) == om + f4.one()
    w, ctx = artin_schreier_root_or_adjoin(om, EXTEND)
    v = w * om + ctx.one()
    assert parse_scalar(format_scalar(v), ctx) == v


def test_parse_errors_have_position():
    q = rationals()
    with pytest.raises(ParseError):
        parse_scalar("1+*2", q)
    with pytest.raises(ParseError):
        parse_scalar("g1", q)  # no tower
    with pytest.raises(ParseError):
        parse_scalar("", q)


def test_mul_inverse_property_random():
    rng = random.Random(11)
    q = rationals()
    g, ctx = sqrt_or_adjoin(q.scalar(2))
    for _ in range(100):
        coords = tuple(Fraction(rng.randint(-5, 5)) for _ in range(ctx.dim))
        x = ctx.element(coords)
        if x.is_zero():
            continue
        assert x * (ctx.one() / x) == ctx.one()


@pytest.mark.parametrize("ctx, s", [
    (prime_field(7), 1), (prime_field(13), 2), (prime_field(17), 4),
    (prime_field(65537), 16),
    (prime_field(3).adjoin_sqrt(prime_field(3).scalar(-1)), 3)],
    ids=["GF(7)", "GF(13)", "GF(17)", "GF(65537)", "GF(3)(sqrt-1)"])
def test_tonelli_shanks_decides_squares(ctx, s):
    """_tonelli_shanks returns a square root of every nonzero square and
    None for every non-square, against the squares listed by brute force,
    for q - 1 = 2^s m with s = 1, 2, 3, 4 and 16."""
    from matcanon.field import _tonelli_shanks
    q = ctx.order()
    assert (q - 1) % (1 << s) == 0 and (q - 1) >> s & 1
    if q < 100:
        pool = list(ctx.iter_elements())
        squares = {y * y for y in pool}
    else:
        pool = [ctx.scalar(v) for v in random.Random(q).sample(range(q), 300)]
        squares = {ctx.scalar(v * v) for v in range(q)}
    for x in pool:
        if x.is_zero():
            continue
        r = _tonelli_shanks(ctx.ops, x.raw, q)
        if x in squares:
            assert r is not None and Scalar(ctx, r) * Scalar(ctx, r) == x
        else:
            assert r is None


def test_sqrt_squares_random_contexts():
    rng = random.Random(13)
    contexts = [rationals(), prime_field(3), prime_field(5), gf4()]
    count = 0
    for _ in range(1000):
        ctx = rng.choice(contexts)
        if ctx.kind == "rational":
            x = ctx.scalar(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        else:
            pool = list(ctx.iter_elements())
            x = rng.choice(pool)
        r, ctx2 = sqrt_or_adjoin(x)
        assert r * r == x.promote(ctx2)
        count += 1
    assert count == 1000


def test_division_by_zero():
    q = rationals()
    with pytest.raises(DivisionByZero):
        q.one() / q.zero()


def test_context_mismatch():
    q = rationals()
    f = prime_field(3)
    with pytest.raises(ContextMismatch):
        q.one() + f.one()


def test_prefix_promotion_zero_extends():
    q = rationals()
    g, ctx = sqrt_or_adjoin(q.scalar(2))
    x = q.scalar(5)
    assert x.promote(ctx).coords[1:] == (Fraction(0),)
    assert x.promote(ctx) + g == g + ctx.scalar(5)


def test_tower_cap():
    q = rationals(tower_cap=2)
    _, ctx = sqrt_or_adjoin(q.scalar(2))
    _, ctx = sqrt_or_adjoin(ctx.scalar(3))
    with pytest.raises(TowerCapExceeded):
        sqrt_or_adjoin(ctx.scalar(5))


def test_nested_radical_not_simplified():
    # adjoining sqrt(8) first, then sqrt(2) still finds a root of 2 in the
    # bigger tower (2 = (g/2)^2), so no second adjunction for 2
    q = rationals()
    g8, ctx = sqrt_or_adjoin(q.scalar(8))
    r, ctx2 = sqrt_or_adjoin(ctx.scalar(2))
    assert ctx2 == ctx
    assert r * r == ctx.scalar(2)


def test_distributivity_random_gf4_tower():
    rng = random.Random(5)
    f4 = gf4()
    om = f4.base_element((0, 1))
    _, ctx = artin_schreier_root_or_adjoin(om, EXTEND)
    pool = list(ctx.iter_elements())
    for _ in range(60):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_prime_check_is_fast_and_exact():
    # trial division took ~1.5e9 steps here; Miller-Rabin takes microseconds
    start = time.perf_counter()
    f = prime_field(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert f.scalar(2 ** 61) == f.one()
    for composite in (561,                      # Carmichael number
                      2 ** 61 + 1,              # 3 * 768614336404564651
                      3215031751,               # strong pseudoprime to 2,3,5,7
                      (2 ** 31 - 1) * (2 ** 61 - 1)):
        with pytest.raises(ValueError):
            prime_field(composite)
    small = [n for n in range(2000) if _is_prime(n)]
    assert small == [n for n in range(2, 2000)
                     if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    # beyond the range where the fixed witnesses are proven exact the
    # characteristic is refused rather than trusted
    with pytest.raises(ValueError):
        prime_field(2 ** 89 - 1)


def test_finite_field_rejects_reducible_modulus():
    # t^2+1 = (t+1)^2 over GF(2) used to give a "field" with zero divisors;
    # t^4+t^2+1 = (t^2+t+1)^2 has no root, so only Rabin's gcd test sees it
    for p, modulus in ((2, (1, 0)), (2, (1, 0, 1, 0)), (5, (1, 0))):
        with pytest.raises(ValueError, match="reducible"):
            finite_field(p, modulus)
    for p, modulus in ((3, (1, 0)), (2, (1, 1, 0)), (2, (1, 1, 0, 0)),
                       (7, (3,))):
        assert finite_field(p, modulus).order() == p ** len(modulus)
    # every monic modulus of small degree, against trial division by every
    # monic polynomial of degree 1..k/2
    for p, degrees in ((2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3))):
        for k in degrees:
            for modulus in itertools.product(range(p), repeat=k):
                f = list(modulus) + [1]
                reducible = any(
                    _divides_mod_p(list(low) + [1], f, p)
                    for d in range(1, k // 2 + 1)
                    for low in itertools.product(range(p), repeat=d))
                if reducible:
                    with pytest.raises(ValueError, match="reducible"):
                        finite_field(p, modulus)
                else:
                    assert finite_field(p, modulus).order() == p ** k


def _divides_mod_p(g, f, p):
    """Whether the monic g divides f over GF(p) (int coefficients, low to
    high), by long division."""
    f = list(f)
    for top in range(len(f) - 1, len(g) - 2, -1):
        c = f[top]
        for j, v in enumerate(g):
            f[top - len(g) + 1 + j] = (f[top - len(g) + 1 + j] - c * v) % p
    return not any(f)


def test_adjunction_refuses_element_with_root():
    q, f3, f2 = rationals(), prime_field(3), prime_field(2)
    for ctx, d in ((q, 4), (q, 0), (f3, 1), (f3, 0), (f2, 1),
                   (q.adjoin_sqrt(q.scalar(2)), 8)):
        with pytest.raises(ValueError, match="is a square"):
            ctx.adjoin_sqrt(ctx.scalar(d))
    for ctx, a in ((f2, 0), (gf4(), 1)):
        with pytest.raises(ValueError, match="has a root"):
            ctx.adjoin_artin_schreier(ctx.scalar(a))
    assert len(q.adjoin_sqrt(q.scalar(2)).tower) == 1
    assert len(f3.adjoin_sqrt(f3.scalar(-1)).tower) == 1
    assert len(f2.adjoin_artin_schreier(f2.one()).tower) == 1


def test_sqrt_in_large_quadratic_extension_is_fast():
    # GF(1000003^2): the old non-residue scan walked the base field, whose
    # elements are all squares there, and ran for minutes
    f = prime_field(1000003)
    ctx = f.adjoin_sqrt(f.scalar(-1))
    g = ctx.generator(1)
    start = time.perf_counter()
    for y in (3 + 5 * g, 7 * g, ctx.scalar(2), 123456 + 654321 * g):
        x = y * y
        r, ctx2 = sqrt_or_adjoin(x)
        assert ctx2 == ctx and r * r == x
    q = ctx.order()
    d = next(z for z in (g + k for k in range(1, 50))
             if z ** ((q - 1) // 2) != ctx.one())
    r, ctx2 = sqrt_or_adjoin(d)
    assert len(ctx2.tower) == 2 and r * r == d.promote(ctx2)
    assert time.perf_counter() - start < 5.0


def test_negative_matrix_power_raises_instead_of_hanging():
    # run in a child process, so that a hang fails this test, not the suite
    src = os.path.dirname(os.path.dirname(matcanon.__file__))
    code = ("from matcanon import ExactMatrix, prime_field\n"
            "from matcanon.field import power\n"
            "import operator\n"
            "for call in (lambda: ExactMatrix.identity(prime_field(3), 2)"
            ".power(-1), lambda: power(3, -2, operator.mul, 1)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["negative exponent -1",
                                        "negative exponent -2"]

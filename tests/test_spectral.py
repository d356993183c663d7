import itertools
import random
import time
from fractions import Fraction

import pytest

from matcanon.errors import NotSplit, SingularInput
from matcanon.exactmat import ExactMatrix, inverse_or_rank
from matcanon.field import EXTEND, STRICT, prime_field, rationals
from matcanon.spectral import (Asymmetry, PairClass,
                               UnipotentClass, asymmetry, eigen_split,
                               hyperbolic_block_matrix, hyperbolic_canonical,
                               _minimal_polynomial, nilpotent_jordan_chains,
                               poly_eval, restrict_operator, split_min_poly)

from filtration import elementary_divisor_multiplicities


def gamma2(ctx):
    return ExactMatrix(ctx, [[0, -1], [1, 1]])


def g_block(ctx, m, lam):
    return hyperbolic_block_matrix(ctx, m, lam)


def rand_invertible(ctx, rng, n, lo=-3, hi=3):
    while True:
        if ctx.kind == "rational":
            y = ExactMatrix(ctx, [[rng.randint(lo, hi) for _ in range(n)]
                                  for _ in range(n)])
        else:
            y = ExactMatrix(ctx, [[rng.randrange(ctx.p) for _ in range(n)]
                                  for _ in range(n)])
        if inverse_or_rank(y).inverse is not None:
            return y


def test_symmetric_asymmetry_is_identity():
    q = rationals()
    a = ExactMatrix(q, [[2, 1], [1, 3]])
    asym = asymmetry(a)
    assert asym.s == ExactMatrix.identity(q, 2)
    assert asym.min_poly == [q.scalar(-1), q.one()]


def test_gamma2_asymmetry():
    q = rationals()
    asym = asymmetry(gamma2(q))
    assert asym.s == ExactMatrix(q, [[-1, 2], [0, -1]])
    # min poly (X+1)^2 = 1 + 2X + X^2
    assert asym.min_poly == [q.one(), q.scalar(2), q.one()]


def test_g2_asymmetry_diagonal():
    q = rationals()
    a = g_block(q, 1, 2)  # ((0,2),(1,0))
    asym = asymmetry(a)
    assert asym.s == ExactMatrix(q, [[2, 0], [0, Fraction(1, 2)]])


def test_singular_input():
    q = rationals()
    with pytest.raises(SingularInput):
        asymmetry(ExactMatrix.zeros(q, 2, 2))


def test_isometry_property_random():
    # S' A S = A for every computed asymmetry
    rng = random.Random(31)
    for ctx in (rationals(), prime_field(3)):
        for _ in range(25):
            n = rng.randint(1, 4)
            a = rand_invertible(ctx, rng, n)
            asym = asymmetry(a)
            s = asym.s
            assert s.transpose() @ a @ s == a
            # defining relation A' = A S
            assert a @ s == a.transpose()
            assert poly_eval_matrix(asym.min_poly, s).is_zero()


def poly_eval_matrix(p, s):
    ctx = s.ctx
    n = s.nrows
    acc = ExactMatrix.zeros(ctx, n, n)
    for c in reversed(p):
        acc = acc @ s + ExactMatrix.identity(ctx, n).scale(c)
    return acc


def test_split_cubed_unipotent():
    q = rationals()
    asym = Asymmetry(ExactMatrix.identity(q, 0),
                     [q.scalar(-1), q.scalar(3), q.scalar(-3), q.one()], q)
    out = split_min_poly(asym)
    assert out.split_roots == [(q.one(), 3)]


def test_split_x2_plus_1_extends():
    q = rationals()
    asym = Asymmetry(ExactMatrix.identity(q, 0),
                     [q.one(), q.zero(), q.one()], q)
    out = split_min_poly(asym, EXTEND)
    assert len(out.split_roots) == 2
    ctx = out.ctx
    for r, m in out.split_roots:
        assert m == 1
        assert r * r == ctx.scalar(-1)
    with pytest.raises(NotSplit):
        split_min_poly(asym, STRICT)


def test_split_cubic_not_split():
    q = rationals()
    asym = Asymmetry(ExactMatrix.identity(q, 0),
                     [q.scalar(-1), q.scalar(-1), q.zero(), q.one()], q)
    with pytest.raises(NotSplit):
        split_min_poly(asym)


def test_split_palindromic_quartic():
    # (X^2-3X+1)(X^2-4X+1) = X^4 -7X^3 +14X^2 -7X +1: roots need sqrt5, sqrt12
    q = rationals()
    poly = [q.one(), q.scalar(-7), q.scalar(14), q.scalar(-7), q.one()]
    asym = Asymmetry(ExactMatrix.identity(q, 0), poly, q)
    out = split_min_poly(asym, EXTEND)
    assert sum(m for _r, m in out.split_roots) == 4
    for r, _m in out.split_roots:
        assert poly_eval([c.promote(out.ctx) for c in poly], r).is_zero()


def test_eigen_split_identity_asymmetry():
    q = rationals()
    a = ExactMatrix(q, [[1, 0], [0, 5]])
    out = eigen_split(a, split_min_poly(asymmetry(a)))
    assert len(out.classes) == 1
    cl = out.classes[0]
    assert isinstance(cl, UnipotentClass)
    assert cl.eigenvalue == q.one()
    assert cl.basis.ncols == 2


def test_eigen_split_g2_pair():
    q = rationals()
    a = g_block(q, 1, 2)
    out = eigen_split(a, split_min_poly(asymmetry(a)))
    assert len(out.classes) == 1
    cl = out.classes[0]
    assert isinstance(cl, PairClass)
    assert cl.lam == q.scalar(Fraction(1, 2))  # compare-smaller of {2, 1/2}
    assert cl.lam_inv == q.scalar(2)


def test_eigen_split_mixed_block_diagonal():
    q = rationals()
    a = ExactMatrix.block_diag(q, [ExactMatrix(q, [[1]]), g_block(q, 1, 3)])
    out = eigen_split(a, split_min_poly(asymmetry(a)))
    kinds = [type(c).__name__ for c in out.classes]
    assert kinds == ["UnipotentClass", "PairClass"]
    g = out.gram
    # cross blocks exactly zero
    assert g[0, 1] == q.zero() and g[0, 2] == q.zero()
    assert g[1, 0] == q.zero() and g[2, 0] == q.zero()


def test_nilpotent_jordan_chains():
    q = rationals()
    n = ExactMatrix(q, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # one 2-chain + 1
    chains = nilpotent_jordan_chains(n)
    assert sorted(c.ncols for c in chains) == [1, 2]
    z = ExactMatrix.zeros(q, 2, 2)
    assert [c.ncols for c in nilpotent_jordan_chains(z)] == [1, 1]


def test_elementary_divisor_multiplicities():
    q = rationals()
    s = ExactMatrix.block_diag(q, [ExactMatrix.jordan_block(q, 3, 1),
                                   ExactMatrix.jordan_block(q, 1, 1),
                                   ExactMatrix.jordan_block(q, 2, 5)])
    assert elementary_divisor_multiplicities(s, q.one()) == {3: 1, 1: 1}
    assert elementary_divisor_multiplicities(s, q.scalar(5)) == {2: 1}


def test_hyperbolic_identity_case():
    q = rationals()
    lam = q.scalar(2)
    a = g_block(q, 1, 2)
    s = ExactMatrix(q, [[2, 0], [0, Fraction(1, 2)]])
    res = hyperbolic_canonical(a, s, lam, 1)
    assert res.blocks == [1]
    assert res.gram == a


def test_hyperbolic_scrambled_g2():
    rng = random.Random(41)
    q = rationals()
    base = g_block(q, 1, 2)
    for _ in range(20):
        y = rand_invertible(q, rng, 2)
        a = y.transpose() @ base @ y
        if inverse_or_rank(a).inverse is None:
            continue
        asym = split_min_poly(asymmetry(a))
        out = eigen_split(a, asym)
        assert len(out.classes) == 1
        cl = out.classes[0]
        sc = restrict_operator(asym.s, ExactMatrix.blocks(
            q, [[cl.basis_lam, cl.basis_inv]]))
        cg = out.gram
        res = hyperbolic_canonical(cg, sc, cl.lam, cl.basis_lam.ncols)
        assert res.blocks == [1]
        assert res.gram == g_block(q, 1, Fraction(1, 2))


def test_hyperbolic_4x4_jordan_pair():
    rng = random.Random(43)
    q = rationals()
    base = g_block(q, 2, 2)  # elem divisors (X-2)^2, (X-1/2)^2
    for _ in range(10):
        y = rand_invertible(q, rng, 4, -2, 2)
        a = y.transpose() @ base @ y
        asym = split_min_poly(asymmetry(a))
        out = eigen_split(a, asym)
        cl = out.classes[0]
        sc = restrict_operator(asym.s, ExactMatrix.blocks(
            q, [[cl.basis_lam, cl.basis_inv]]))
        res = hyperbolic_canonical(out.gram, sc, cl.lam, cl.basis_lam.ncols)
        assert res.blocks == [2]
        assert res.gram == g_block(q, 2, Fraction(1, 2))


def test_roots_closed_under_inversion_random():
    rng = random.Random(47)
    q = rationals()
    done = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_invertible(q, rng, n, -2, 2)
        try:
            out = split_min_poly(asymmetry(a))
        except NotSplit:
            continue
        done += 1
        roots = dict()
        for r, m in out.split_roots:
            roots[r] = m
        for r, m in out.split_roots:
            assert roots.get(r.inverse()) == m
    assert done >= 20


def test_finite_field_root_existence_vs_enumeration():
    # gcd(X^q - X, f) agrees with exhaustive evaluation on small fields
    from matcanon.field import frobenius_gcd, gf4, prime_field
    import itertools

    def has_root(poly, ctx):
        return len(frobenius_gcd(ctx.ops, [c.raw for c in poly],
                                 ctx.order())) > 1

    for ctx in (prime_field(2), prime_field(3), gf4()):
        pool = list(ctx.iter_elements())
        for deg in (2, 3):
            for coeffs in itertools.product(pool, repeat=deg):
                poly = list(coeffs) + [ctx.one()]
                got = has_root(poly, ctx)
                brute = any(poly_eval(poly, x).is_zero() for x in pool)
                assert got == brute, [str(c) for c in poly]


def _monic_from_roots(ctx, roots, extra=()):
    """prod (X - r) * (X^k + extra...), coefficients low to high."""
    poly = [ctx.one()]
    factors = [[-r, ctx.one()] for r in roots]
    if extra:
        factors.append([ctx.scalar(c) for c in extra] + [ctx.one()])
    for fac in factors:
        out = [ctx.zero()] * (len(poly) + len(fac) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(fac):
                out[i + j] = out[i + j] + x * y
        poly = out
    return poly


def test_finite_field_roots_match_enumeration():
    # the splitter lists exactly the roots enumeration finds, in
    # iter_elements order, and _find_one_root picks the root the old
    # enumeration picked: 1, else -1, else the first one listed
    from matcanon.field import gf4
    from matcanon.spectral import _find_one_root, _finite_field_roots
    f3 = prime_field(3)
    contexts = [prime_field(2), f3, gf4(), prime_field(13),
                f3.adjoin_sqrt(f3.scalar(-1))]
    rng = random.Random(59)
    checked = 0
    for ctx in contexts:
        pool = list(ctx.iter_elements())
        for _ in range(40):
            roots = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            extra = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
            poly = _monic_from_roots(ctx, roots, extra)
            if len(poly) < 3:
                continue
            brute = [x for x in pool if poly_eval(poly, x).is_zero()]
            assert _finite_field_roots(poly) == brute
            if not brute:
                continue
            one = ctx.one()
            expect = next(r for r in (one, -one) + tuple(brute)
                          if poly_eval(poly, r).is_zero())
            root, listed = _find_one_root(poly, EXTEND)
            ctx2 = root.ctx
            assert ctx2 == ctx and root == expect
            assert listed is None or listed == brute
            checked += 1
    assert checked > 100


def _companion(ctx, poly):
    n = len(poly) - 1
    rows = [[ctx.zero()] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = ctx.one()
    for i in range(n):
        rows[i][n - 1] = -poly[i]
    return ExactMatrix(ctx, rows)


@pytest.mark.parametrize("p,c,b2,c2", [(65537, 3, 1, 3), (1000003, 3, 1, 9)])
def test_split_min_poly_large_prime_fields(p, c, b2, c2):
    # fields far beyond enumeration: roots in GF(p), a palindromic quadratic
    # needing GF(p^2), and a palindromic quartic needing GF(p^4)
    ctx = prime_field(p)
    five = ctx.scalar(5)
    known = {five: 1, five.inverse(): 1, ctx.scalar(-1): 2,
             ctx.scalar(7): 3, ctx.scalar(7).inverse(): 3}
    roots = [r for r, m in known.items() for _ in range(m)]
    poly = _monic_from_roots(ctx, roots)
    out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
    assert out.ctx == ctx
    assert dict(out.split_roots) == known
    for coeffs, height in (([1, -c, 1], 1),
                           ([1, -b2, c2 + 2, -b2, 1], 2)):
        poly = [ctx.scalar(v) for v in coeffs]
        out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
        assert len(out.ctx.tower) == height
        assert len(out.split_roots) == len(poly) - 1
        for r, m in out.split_roots:
            assert m == 1
            assert poly_eval(out.min_poly, r).is_zero()
            assert any(s == r.inverse() for s, _ in out.split_roots)


def test_congruence_invariance_fuzz_large_primes():
    # 3x3 to 8x8 over GF(65537) and GF(1000003): every form is answered or
    # refused as NotSplit, and congruent inputs agree,
    # within a wall-clock bound that root splitting by enumeration, or one
    # Frobenius power per root, would not keep at these sizes
    from matcanon.canon import canonicalize
    rng = random.Random(61)
    start = time.perf_counter()
    answered = 0
    for p in (65537, 1000003):
        ctx = prime_field(p)
        for n in (3, 4, 5, 6, 7, 8):
            for _ in range(5):
                a = ExactMatrix(ctx, [[rng.randrange(p) for _ in range(n)]
                                      for _ in range(n)])
                y = rand_invertible(ctx, rng, n)
                b = y.transpose() @ a @ y
                try:
                    fa, _ = canonicalize(a)
                except NotSplit:
                    with pytest.raises(NotSplit):
                        canonicalize(b)
                    continue
                fb, _ = canonicalize(b)
                assert fa.gabriel == fb.gabriel
                assert fa.blocks == fb.blocks
                answered += 1
    assert answered >= 40
    assert time.perf_counter() - start < 60


def test_frobenius_power_once_per_context(monkeypatch):
    """split_min_poly computes X^q mod f once per context it passes
    through, and takes the further roots from the list that gave the
    first: 1, else -1, else the least left, each partner 1/r peeled with
    it."""
    from matcanon import spectral
    calls = []
    real = spectral.frobenius_gcd

    def counted(ops, f, e):
        calls.append((e, len(f) - 1))
        return real(ops, f, e)

    monkeypatch.setattr(spectral, "frobenius_gcd", counted)
    p = 65537
    ctx = prime_field(p)
    two, three, five = (ctx.scalar(v) for v in (2, 3, 5))
    # six distinct roots in GF(p) besides -1: one computation, of degree 6
    # once -1 (a cheap candidate, no computation) is peeled
    roots = [two, two.inverse(), three, three.inverse(), five,
             five.inverse(), -ctx.one(), -ctx.one()]
    poly = _monic_from_roots(ctx, roots)
    out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
    assert out.ctx == ctx
    assert out.split_roots == [(-ctx.one(), 2), (two, 1), (two.inverse(), 1),
                               (three, 1), (three.inverse(), 1),
                               (five, 1), (five.inverse(), 1)]
    assert calls == [(p, 6)]
    # two irreducible palindromic quadratics besides 2 and 1/2: one
    # computation in GF(p), none more there; the palindrome's quadratic in
    # Y = X + 1/X and the quadratic left in GF(p^2) after the adjunction
    # are solved by a square root each, with no computation
    c = next(c for c in range(4, p)
             if pow(c * c - 4, (p - 1) // 2, p) == p - 1)
    assert pow(3 * 3 - 4, (p - 1) // 2, p) == p - 1
    poly = _monic_from_roots(ctx, [two, two.inverse()],
                             extra=[1, -3 - c, 2 + 3 * c, -3 - c])
    del calls[:]
    out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
    assert len(out.ctx.tower) == 1
    assert len(out.split_roots) == 6
    assert calls == [(p, 6)]


def _listed_root(poly):
    """The root a search that lists roots picks for a monic quadratic: 1,
    else -1, else the first root listed (_finite_field_roots over GF(q),
    _rational_root over Q), else the root quadratic_roots adjoins."""
    from matcanon.field import quadratic_roots
    from matcanon.spectral import _finite_field_roots, _rational_root
    ctx = poly[0].ctx
    one = ctx.one()
    if ctx.kind == "rational":
        listed = [one, -one, _rational_root(poly)]
    else:
        listed = [one, -one] + _finite_field_roots(poly)
    found = [r for r in listed
             if r is not None and poly_eval(poly, r).is_zero()]
    if found:
        return found[0]
    return quadratic_roots(one, poly[1], poly[0], EXTEND)[0]


def _quadratic_fields():
    from matcanon.field import gf4
    f3, big = prime_field(3), prime_field(65521)
    return [("GF(13)", prime_field(13)), ("GF(65521)", big),
            ("GF(4)", gf4()), ("GF(3)(sqrt-1)", f3.adjoin_sqrt(f3.scalar(-1))),
            ("GF(65521)(sqrt17)", big.adjoin_sqrt(big.scalar(17))),
            ("Q", rationals())]


@pytest.mark.parametrize("name, ctx", _quadratic_fields(),
                         ids=[name for name, _ in _quadratic_fields()])
def test_quadratic_roots_without_listing(name, ctx, monkeypatch):
    """A quadratic minimal polynomial is solved by quadratic_roots, with no
    X^q listing and no rational-root search, and split_min_poly takes the
    root the listing picks: 1, else -1, else the least in the field, else
    the one adjoined.  Split quadratics (X - a)(X - 1/a) and irreducible
    palindromes X^2 - mu X + 1 alike."""
    from matcanon import spectral
    from matcanon.field import format_scalar, random_elements
    one = ctx.one()
    if ctx.kind == "rational":
        rng = random.Random(name)
        draws = (ctx.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                 for _ in itertools.count())
    else:
        draws = random_elements(ctx)
    polys = [_monic_from_roots(ctx, [one, -one]),
             _monic_from_roots(ctx, [one, one]),
             _monic_from_roots(ctx, [-one, -one])]
    mus = []
    while len(polys) < 12 or len(mus) < 4:
        a = next(draws)
        if a.is_zero():
            continue
        if len(polys) < 12 and a != one and a != -one:
            polys.append(_monic_from_roots(ctx, [a, a.inverse()]))
        # X^2 - a X + 1 when it has no root in ctx
        if len(mus) < 4 and _listed_root([one, -a, one]).ctx != ctx:
            mus.append(a)
    polys += [[one, -mu, one] for mu in mus]
    expected = [_listed_root(poly) for poly in polys]
    assert any(r.ctx == ctx and r != one and r != -one for r in expected)
    assert any(r.ctx != ctx for r in expected)

    def refuse(*args):
        raise AssertionError("a quadratic was sent to a root search")

    monkeypatch.setattr(spectral, "frobenius_gcd", refuse)
    monkeypatch.setattr(spectral, "_rational_root", refuse)
    for poly, want in zip(polys, expected):
        out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
        got = out.split_roots[0][0]
        assert (got.ctx, format_scalar(got)) == \
            (want.ctx, format_scalar(want)), [format_scalar(c) for c in poly]


@pytest.mark.parametrize("ctx", [rationals(), prime_field(3)],
                         ids=["Q", "GF(3)"])
def test_minimal_polynomial_stops_at_first_dependence(ctx, monkeypatch):
    """A 3 x 3 block repeated three times has a cubic minimal polynomial,
    found with at most 3 products, not the 9 of all powers up to S^9."""
    block = ExactMatrix(ctx, [[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    s = ExactMatrix.block_diag(ctx, [block] * 3)
    products = []
    matmul = ExactMatrix.__matmul__

    def counted(a, b):
        products.append((a.nrows, b.ncols))
        return matmul(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
    poly = _minimal_polynomial(s)
    monkeypatch.undo()
    d = len(poly) - 1
    assert d == 3 and poly[-1] == ctx.one()
    assert len(products) <= d
    assert [c.coords for c in _minimal_polynomial(block)] == \
        [c.coords for c in poly]
    value = ExactMatrix.zeros(ctx, 9, 9)
    for c in reversed(poly):  # Horner: sum c_i S^i
        value = value @ s + ExactMatrix.identity(ctx, 9).scale(c)
    assert value.is_zero()

"""The asymmetry's minimal polynomial and elementary divisors against sympy.

For seeded random matrices, and for scrambled direct sums of one random
block repeated (so that the minimal polynomial is a proper divisor of the
characteristic polynomial), over Q and GF(p) with n up to MAX_N = 12:
- the minimal polynomial of S = A^{-1} A' divides sympy's characteristic
  polynomial of S and has the same irreducible factors;
- at each root lam in the base field, elementary_divisor_multiplicities
  matches the ranks of (S - lam)^k computed by sympy's DomainMatrix, and
  the largest elementary divisor is the multiplicity of X - lam in the
  minimal polynomial.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from matcanon.exactmat import ExactMatrix, inverse_or_rank  # noqa: E402
from matcanon.field import prime_field, rationals  # noqa: E402
from matcanon.spectral import asymmetry  # noqa: E402

from filtration import elementary_divisor_multiplicities  # noqa: E402

X = sympy.Symbol("x")
MAX_N = 12
FIELDS = {"Q": rationals(), "GF(2)": prime_field(2), "GF(3)": prime_field(3),
          "GF(13)": prime_field(13), "GF(65521)": prime_field(65521)}


def random_entry(ctx, rng):
    if ctx.kind == "rational":
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return rng.randrange(ctx.p)


def random_matrix(ctx, rng, n):
    return ExactMatrix(ctx, [[random_entry(ctx, rng) for _ in range(n)]
                             for _ in range(n)])


def scrambled_repeat(ctx, rng, block, copies):
    """Y' (block + ... + block) Y for a random unit lower-triangular Y."""
    big = ExactMatrix.block_diag(ctx, [block] * copies)
    n = big.nrows
    y = ExactMatrix(ctx, [[1 if i == j else
                           random_entry(ctx, rng) if i > j else 0
                           for j in range(n)] for i in range(n)])
    return y.transpose() @ big @ y


def cases(ctx, rng):
    """Invertible inputs: random n x n (n = 1..MAX_N, twice each) and
    repeated blocks (sizes 1..4, two or more copies, n <= MAX_N)."""
    out = [random_matrix(ctx, rng, n) for n in range(1, MAX_N + 1)
           for _ in range(2)]
    for size in range(1, 5):
        for copies in range(2, MAX_N // size + 1):
            block = random_matrix(ctx, rng, size)
            out.append(scrambled_repeat(ctx, rng, block, copies))
    return [a for a in out if inverse_or_rank(a).inverse is not None]


def domain(ctx):
    return sympy.QQ if ctx.kind == "rational" else sympy.GF(ctx.p)


def to_domain(ctx, s):
    """A base-field scalar as an element of the sympy domain."""
    c = s.coords[0]
    if ctx.kind == "rational":
        return sympy.QQ(c.numerator, c.denominator)
    return domain(ctx)(c)


def to_domain_matrix(ctx, a):
    return DomainMatrix([[to_domain(ctx, e) for e in row] for row in a.rows],
                        (a.nrows, a.ncols), domain(ctx))


def to_poly(ctx, coeffs_high_to_low):
    if ctx.kind == "rational":
        return sympy.Poly(coeffs_high_to_low, X, domain=sympy.QQ)
    return sympy.Poly([int(c) % ctx.p for c in coeffs_high_to_low], X,
                      modulus=ctx.p)


def monic_factors(poly):
    """{monic irreducible factor coefficients: multiplicity}."""
    return {tuple(f.monic().all_coeffs()): k
            for f, k in poly.factor_list()[1]}


def sympy_multiplicities(s_dm, lam, n):
    dom = s_dm.domain
    m0 = s_dm - DomainMatrix.eye(n, dom) * lam
    ranks = [n]
    power = DomainMatrix.eye(n, dom)
    for _ in range(n + 1):
        power = power * m0
        ranks.append(power.rank())
    return {m: ranks[m - 1] - 2 * ranks[m] + ranks[m + 1]
            for m in range(1, n + 1)
            if ranks[m - 1] - 2 * ranks[m] + ranks[m + 1]}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_minimal_polynomial_and_divisors_match_sympy(name):
    ctx = FIELDS[name]
    rng = random.Random("sympy " + name)
    inputs = cases(ctx, rng)
    assert len(inputs) >= 10
    for a in inputs:
        n = a.nrows
        asym = asymmetry(a)
        s_dm = to_domain_matrix(ctx, asym.s)
        charpoly = to_poly(ctx, s_dm.charpoly())
        minpoly = to_poly(ctx, [to_domain(ctx, c)
                                for c in reversed(asym.min_poly)])
        assert asym.min_poly[-1] == ctx.one()
        assert charpoly.rem(minpoly).is_zero
        min_factors = monic_factors(minpoly)
        assert set(min_factors) == set(monic_factors(charpoly))
        for factor, mult in min_factors.items():
            if len(factor) != 2:
                continue
            root = -factor[1]
            lam = ctx.scalar(Fraction(int(root.p), int(root.q))
                             if ctx.kind == "rational" else int(root) % ctx.p)
            mults = elementary_divisor_multiplicities(asym.s, lam)
            assert mults == sympy_multiplicities(s_dm, to_domain(ctx, lam), n)
            assert max(mults) == mult

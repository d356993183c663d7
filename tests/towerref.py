"""Reference arithmetic of tower elements on coordinates, for the tests.

A tower element is a tuple of base-field coordinates, one per monomial g_S
of the multiplicative basis (Scalar.coords).  tower_mul multiplies two by
recursion on the top generator, and tower_inv inverts one by norm descent,
reading the tower records (c1, d), g^2 = c1 g + d, straight from the
context.  Base elements are Fractions over Q, ints over GF(p) and
coefficient tuples over GF(p^k), multiplied as polynomials reduced modulo
the modulus.  Nothing here uses the raw arithmetic of matcanon.field, so
the tests compare that arithmetic against this one.
"""

from fractions import Fraction

from matcanon.errors import DivisionByZero
from matcanon.field import power


def bzero(ctx):
    if ctx.kind == "rational":
        return Fraction(0)
    if ctx.kind == "gfp":
        return 0
    return (0,) * len(ctx.modulus)


def bone(ctx):
    if ctx.kind == "rational":
        return Fraction(1)
    if ctx.kind == "gfp":
        return 1
    return (1,) + (0,) * (len(ctx.modulus) - 1)


def badd(ctx, x, y):
    if ctx.kind == "rational":
        return x + y
    if ctx.kind == "gfp":
        return (x + y) % ctx.p
    return tuple((a + b) % ctx.p for a, b in zip(x, y))


def bneg(ctx, x):
    if ctx.kind == "rational":
        return -x
    if ctx.kind == "gfp":
        return (-x) % ctx.p
    return tuple((-a) % ctx.p for a in x)


def bmul(ctx, x, y):
    if ctx.kind == "rational":
        return x * y
    if ctx.kind == "gfp":
        return (x * y) % ctx.p
    k, p = len(ctx.modulus), ctx.p
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] = (prod[i + j] + a * b) % p
    # reduce modulo the monic modulus X^k + sum(mod[i] X^i)
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j, m in enumerate(ctx.modulus):
                prod[i - k + j] = (prod[i - k + j] - c * m) % p
    return tuple(prod[:k])


def binv(ctx, x):
    if x == bzero(ctx):
        raise DivisionByZero("base division by zero")
    if ctx.kind == "rational":
        return 1 / x
    if ctx.kind == "gfp":
        return pow(x, ctx.p - 2, ctx.p)
    return power(x, ctx.p ** len(ctx.modulus) - 2,
                 lambda u, v: bmul(ctx, u, v), bone(ctx))


def tower_mul(ctx, xs, ys, level):
    """Multiply coordinate vectors at the given tower level (recursively).

    Promoted base-field values have zero high halves; branching on those
    keeps the recursion linear for the common sparse cases.
    """
    if level == 0:
        return (bmul(ctx, xs[0], ys[0]),)
    half = 1 << (level - 1)
    a, b = xs[:half], xs[half:]
    c, e = ys[:half], ys[half:]
    zero = (bzero(ctx),) * half
    b_zero, e_zero = b == zero, e == zero
    if b_zero and e_zero:
        return tower_mul(ctx, a, c, level - 1) + zero
    if b_zero:
        return (tower_mul(ctx, a, c, level - 1)
                + tower_mul(ctx, a, e, level - 1))
    if e_zero:
        return (tower_mul(ctx, a, c, level - 1)
                + tower_mul(ctx, b, c, level - 1))
    c1, d = ctx.tower[level - 1]
    ac = tower_mul(ctx, a, c, level - 1)
    be = tower_mul(ctx, b, e, level - 1)
    ae = tower_mul(ctx, a, e, level - 1)
    bc = tower_mul(ctx, b, c, level - 1)
    bed = tower_mul(ctx, be, d, level - 1)
    low = tuple(badd(ctx, u, v) for u, v in zip(ac, bed))
    high = tuple(badd(ctx, u, v) for u, v in zip(ae, bc))
    if c1:
        # g^2 = g + d: the be part feeds both halves
        high = tuple(badd(ctx, u, v) for u, v in zip(high, be))
    return low + high


def tower_inv(ctx, xs, level):
    """Inverse of a tower element by norm descent.

    For x = a + b g with g^2 = c1 g + d, the conjugate (a + c1 b) - b g
    gives x ((a + c1 b) - b g) = a (a + c1 b) - d b^2, the norm, which lives
    one level down.
    """
    if level == 0:
        return (binv(ctx, xs[0]),)
    half = 1 << (level - 1)
    a, b = xs[:half], xs[half:]
    zero = (bzero(ctx),) * half
    if b == zero:
        return tower_inv(ctx, a, level - 1) + zero
    c1, d = ctx.tower[level - 1]
    # a + c1 b
    conj_lo = tuple(badd(ctx, u, v) for u, v in zip(a, b)) if c1 else a
    a_conj = tower_mul(ctx, a, conj_lo, level - 1)
    bbd = tower_mul(ctx, tower_mul(ctx, b, b, level - 1), d, level - 1)
    norm = tuple(badd(ctx, u, bneg(ctx, v)) for u, v in zip(a_conj, bbd))
    norm_inv = tower_inv(ctx, norm, level - 1)
    lo = tower_mul(ctx, conj_lo, norm_inv, level - 1)
    hi = tower_mul(ctx, tuple(bneg(ctx, v) for v in b), norm_inv, level - 1)
    return lo + hi

"""Roots of polynomials with Scalar coefficients, low to high: the raw
polynomials of poly.py are not seen above this module.

find_one_root takes roots one at a time: 1, else -1, else the least in the
field, else one adjoined to it.  A quadratic goes straight to
field.quadratic_roots, one square root (or Artin-Schreier root) whatever
the field, and the preference picks among the roots it returns.  Over GF(q)
(a tower included) the roots of f of degree >= 3 in the field are listed
once per context: one search lists them until an adjunction changes q.  An
asymmetry S is similar to S^-1, so once 1 and -1 are peeled f is usually a
palindrome of degree 2k, f = X^k h(X + 1/X); its roots are then those in
the field of X^2 - mu X + 1 (square or Artin-Schreier roots, under the
strict policy) over the roots mu of h in the field, which a quadratic h
gives the same way.  The roots of h of degree >= 3, or of f when it is no
palindrome, are those of g = gcd(h, X^q - X), which poly.frobenius_gcd
computes on raw values (the routine of Rabin's irreducibility test, with
another exponent).  g is split into linear factors by Cantor-Zassenhaus:
gcd(g, (X + a)^((q-1)/2) - 1) for odd q, or gcd(g, Tr(aX) mod g) with
Tr(Y) = Y + Y^2 + ... + Y^(2^(m-1)) for q = 2^m, over shifts a drawn from
field.random_elements.  The work is polynomial in log q, and the list is
in iter_elements order whatever the draws.

Over Q the rational roots of f of degree >= 3 come from its roots mod a
prime (Loos, SIAM J. Comput. 12, 1983).  The squarefree part of f, cleared
to integers, has simple roots mod the least odd prime p dividing neither
its leading coefficient nor its discriminant, and each rational root
reduces to one of them.  No root mod p (the common case) means no rational
root; otherwise each is Hensel-lifted past 2 |f_0| |f_n| (von zur Gathen
and Gerhard, ch. 15), read back by rational reconstruction (ch. 5) and
kept if it is a root in exact integers.  The least denominator wins, then
the least |numerator|, + before -.  Factors with no root are quadratics or
palindromes, reached by adjunction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InternalDegenerate, NoRootStrictPolicy, NotSplit
from .field import (EXTEND, STRICT, Scalar, enumeration_key, prime_field,
                    quadratic_roots, random_elements)
from .poly import (axpy, deflate, divide, frobenius_gcd, gcd, is_prime,
                   mulmod, powmod, trim)

# a shift splits a factor with two or more roots with probability about 1/2
# or better; 64 failures in a row mean the context is not a field
_SPLIT_TRIES = 64


def poly_eval(p, x):
    acc = x.ctx.zero()
    for c in reversed(p):
        acc = acc * x + c
    return acc


def extract_root(poly, root):
    """poly / (X - root)^m for the largest such m, and m, in root's
    context, by synthetic division."""
    ctx, ops = root.ctx, root.ctx.ops
    raw, mult = [c.promote(ctx).raw for c in poly], 0
    while len(raw) > 1:
        quot, rem = deflate(ops, raw, root.raw)
        if rem != ops.zero:
            break
        raw, mult = quot, mult + 1
    return [Scalar(ctx, c) for c in raw], mult


def find_one_root(poly, listed=None):
    """One root of a monic polynomial whose coefficients share one context:
    1, else -1, else the least in that context, else one adjoined to it.
    listed, None or poly's roots there (least first), is returned with the
    root: found here if needed, None after an adjunction (q has changed)."""
    # h and mus, the roots in ctx of h, as the listing read them
    ctx, pal, mus = poly[0].ctx, None, None
    if len(poly) == 2:
        return -poly[0] / poly[1], listed
    if listed is None and len(poly) > 3:
        cand = next((c for c in (ctx.one(), -ctx.one())
                     if poly_eval(poly, c).is_zero()), None)
        if cand is None and ctx.kind != "rational":
            listed, pal, mus = _finite_field_roots(poly)
        elif cand is None and all(not c.trim().ctx.tower for c in poly):
            cand = _rational_root(poly)
        if cand is not None:
            return cand, None
    if listed:  # made when 1 and -1 were not roots, so neither is listed
        return listed[0], listed
    if len(poly) == 3:
        return _preferred_root(_quadratic_roots(poly, EXTEND), ctx), None
    pal = pal or _palindrome_transform(poly)
    if pal is not None:
        mu = _preferred_root(mus, ctx) if mus else find_one_root(pal)[0]
        # X^2 - mu X + 1 = 0
        one = mu.ctx.one()
        return _quadratic_roots([one, -mu, one], EXTEND)[0], None
    raise NotSplit("irreducible factor of degree %d is not reachable by "
                   "quadratic adjunctions" % (len(poly) - 1))


def _finite_field_roots(poly):
    """(the distinct roots of a polynomial in the finite field ctx of its
    coefficients, in iter_elements order; h and the roots mu of h it read,
    or None and None).  Through h with poly = X^k h(X + 1/X) when poly is a
    palindrome of degree 2k >= 4, each root mu of h giving the roots of
    X^2 - mu X + 1 in the field (see the module docstring)."""
    pal = _palindrome_transform(poly) if len(poly) > 4 else None
    if pal is None:
        return _frobenius_roots(poly), None, None
    mus = (_quadratic_roots(pal, STRICT) if len(pal) == 3
           else _frobenius_roots(pal))
    one = poly[0].ctx.one()
    roots = {r for mu in mus for r in _quadratic_roots([one, -mu, one],
                                                        STRICT)}
    return sorted(roots, key=enumeration_key), pal, mus  # mu = +-2: +-1 twice


def _frobenius_roots(poly):
    """The roots _finite_field_roots lists, by gcd(poly, X^q - X) and
    Cantor-Zassenhaus."""
    ctx = poly[0].ctx
    ops, q = ctx.ops, ctx.order()
    g = frobenius_gcd(ops, [c.raw for c in poly], q)
    shifts = (a.raw for a in random_elements(ctx))
    roots = []
    pending = [g] if len(g) > 1 else []
    while pending:
        h = pending.pop()
        if len(h) == 2:
            roots.append(ops.neg(h[0]))
            continue
        for _ in range(_SPLIT_TRIES):
            d = gcd(ops, h, _splitting_poly(ops, h, next(shifts), q))
            if 1 < len(d) < len(h):
                break
        else:
            raise InternalDegenerate("no shift split a degree-%d factor in "
                                     "%d tries" % (len(h) - 1, _SPLIT_TRIES))
        pending += [d, divide(ops, h, d)[0]]
    return sorted((Scalar(ctx, r) for r in roots), key=enumeration_key)


def _splitting_poly(ops, h, a, q):
    """w with gcd(h, w) collecting the roots r of h (deg h >= 2) on one side
    of the shift a: (r + a)^((q-1)/2) = 1 for odd q, Tr(a r) = 0 for q = 2^m.
    """
    if q % 2:
        w = powmod(ops, [a, ops.one], (q - 1) // 2, h)
        return axpy(ops, w, ops.one, [ops.one])
    y = [ops.zero, a]  # aX, already reduced since deg h >= 2
    trace = y
    for _ in range(q.bit_length() - 2):  # m - 1 squarings
        y = mulmod(ops, y, y, h)
        trace = axpy(ops, trace, ops.one, y)  # - is + in char 2
    return trace


def _quadratic_roots(poly, policy):
    """The roots of a quadratic, made monic (X^2 + c1 X + c0) first, by
    field.quadratic_roots: both when they lie in poly's context, else the
    one adjoined to it (a square or Artin-Schreier root), or none under the
    strict policy.  In characteristic 2 the other root of r is r + c1, and
    r is double when c1 = 0."""
    c0, c1 = poly[0] / poly[2], poly[1] / poly[2]
    try:
        roots = quadratic_roots(c1.ctx.one(), c1, c0, policy)
    except NoRootStrictPolicy:
        return []
    r = roots[0]
    if c1.ctx.characteristic == 2 and r.ctx == c1.ctx and not c1.is_zero():
        roots.append(r + c1)
    return roots


def _preferred_root(roots, ctx):
    """The root a search of ctx would pick among roots that lie in it: 1,
    else -1, else the least (in iter_elements order over GF(q); over Q, when
    the roots are rational, in the _rational_order that _rational_root
    picks by: least denominator, then least |numerator|, + before -);
    otherwise roots[0]."""
    if roots[0].ctx != ctx:
        return roots[0]  # adjoined
    for eps in (ctx.one(), -ctx.one()):
        if eps in roots:
            return eps
    if ctx.kind != "rational":
        return min(roots, key=enumeration_key)
    if all(not r.trim().ctx.tower for r in roots):
        return min(roots, key=lambda r: _rational_order(r.coords[0]))
    return roots[0]


def _palindrome_transform(poly):
    """g with poly(X) = X^k g(X + 1/X) when poly is palindromic, else None."""
    ctx = poly[0].ctx
    n = len(poly) - 1
    if n % 2 or any(poly[i] != poly[n - i] for i in range(n + 1)):
        return None
    k = n // 2
    ops = ctx.ops
    raw, p_prev = [c.raw for c in poly], [ctx.scalar(2).raw]
    # P_j(Y) = X^j + X^-j: P_0 = 2, P_1 = Y, P_j = Y P_{j-1} - P_{j-2}
    p_cur, g = [ops.zero, ops.one], [raw[k]]
    for j in range(1, k + 1):
        if j > 1:
            p_prev, p_cur = p_cur, axpy(ops, [ops.zero] + p_cur, ops.one,
                                        p_prev)
        g = axpy(ops, g, ops.neg(raw[k + j]), p_cur)
    return [Scalar(ctx, c) for c in trim(ops, g)]


def _rational_root(poly):
    """The least rational root of a polynomial with rational coefficients in
    _rational_order, or None, by lifting its roots mod a prime (see the
    module docstring)."""
    ctx = poly[0].ctx
    # each raw value is (n, 0, ..., 0, den) with gcd(n, den) = 1
    lcm = math.lcm(*[c.raw[-1] for c in poly])
    f = [c.raw[0] * (lcm // c.raw[-1]) for c in poly]
    if f[0] == 0:
        return ctx.zero()
    f = _squarefree_part(ctx.truncated(0).ops, f)
    df = _derivative(f)
    gf = _unramified_field(f, df)
    # a root a/b in lowest terms has |a| <= |f_0| and b <= |f_n|, so its
    # residue mod any m > 2 |f_0| |f_n| gives it back
    bound = abs(f[0])
    lift_past = 2 * bound * abs(f[-1])
    roots = []
    for r in _finite_field_roots([gf.scalar(c) for c in f])[0]:
        x = _reconstruct(*_hensel_lift(f, df, r.raw, gf.p, lift_past), bound)
        if _vanishes_at(f, x):
            roots.append(x)
    return ctx.scalar(min(roots, key=_rational_order)) if roots else None


def _rational_order(x):
    """The order among rational roots: least denominator, then least
    |numerator|, + before -."""
    return x.denominator, abs(x.numerator), x < 0


def _squarefree_part(ops, f):
    """f / gcd(f, f') for an integer polynomial f, as a primitive integer
    polynomial, computed on the raw values of ops (those of Q)."""
    raw = [ops.from_int(c) for c in f]
    d = gcd(ops, raw, [ops.from_int(c) for c in _derivative(f)])
    if len(d) == 1:
        return f
    raw = divide(ops, raw, d)[0]  # (numerator, denominator) pairs
    lcm = math.lcm(*[den for _n, den in raw])
    ints = [n * (lcm // den) for n, den in raw]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _unramified_field(f, df):
    """GF(p) for the least odd prime p dividing neither the leading
    coefficient of the squarefree integer polynomial f nor its
    discriminant: f mod p keeps its degree and stays prime to f' mod p."""
    for p in itertools.count(3, 2):
        if not is_prime(p) or f[-1] % p == 0:
            continue
        gf = prime_field(p)
        fp, dfp = [c % p for c in f], [c % p for c in df]
        if len(gcd(gf.ops, fp, dfp)) == 1:
            return gf


def _hensel_lift(f, df, r, p, bound):
    """(r', m): the root r' mod m = p^(2^k) of the integer polynomial f
    (derivative df) congruent to its simple root r mod p, for the least
    such m > bound, by Newton steps r <- r - f(r) / f'(r), each squaring
    the modulus."""
    m = p
    while m <= bound:
        m *= m
        r = (r - _horner(f, r, m) * pow(_horner(df, r, m), -1, m)) % m
    return r, m


def _horner(f, x, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _reconstruct(r, m, bound):
    """The fraction a/b with a = b r mod m and |a| <= bound at which the
    extended Euclidean algorithm on (m, r) stops.  When some a/b with
    0 < b <= m / (bound + 1) has a = b r mod m, it is that fraction (von zur
    Gathen and Gerhard, Theorem 5.26)."""
    r0, t0, r1, t1 = m, 0, r, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return Fraction(r1, t1)  # |t1| grows from 1, so it is never 0


def _vanishes_at(f, x):
    """f(a/b) = 0, tested as b^n f(a/b) = 0 in integers."""
    a, b, n = x.numerator, x.denominator, len(f) - 1
    return sum(c * a ** i * b ** (n - i) for i, c in enumerate(f)) == 0

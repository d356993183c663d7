"""Integer and raw-polynomial arithmetic, below the fields: this module
imports nothing from the package.

power is the package's one square and multiply (Scalar powers, GF(p^k) base
inverses, polynomial powers, square roots, ExactMatrix.power), and is_prime
certifies a characteristic.  A polynomial is a list of raw values of one
context, low to high, computed on by that context's ops (field.py).
frobenius_gcd(ops, f, e), the monic gcd(f, X^e - X), serves root finding
over GF(q) (e = q) and is_irreducible, Rabin's test of a GF(p^k) modulus
(e = p^k and p^(k/r), over GF(p)).
"""

from __future__ import annotations

import operator

# Miller-Rabin with these witnesses is exact for every n < 3.3 * 10**24
# (Sorenson and Webster, 2015), which covers all 64-bit n
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n):
    n = operator.index(n)
    if n < 2:
        return False
    for d in _MR_BASES:
        if n % d == 0:
            return n == d
    if n < 41 * 41:
        return True
    if n >= _MR_EXACT_BELOW:
        raise ValueError("characteristic %d is too large to certify as "
                         "prime" % n)
    s, m = two_adic(n - 1)
    for a in _MR_BASES:
        x = pow(a, m, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def two_adic(n):
    """(s, m) with n = 2^s m and m odd, for n > 0."""
    s = (n & -n).bit_length() - 1
    return s, n >> s


def power(x, e, mul, one):
    """x^e for e >= 0 by square and multiply: e = 0 gives one, which is never
    multiplied, so x^e costs popcount(e) - 1 + floor(log2 e) products.
    ValueError for e < 0."""
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


# -- polynomials (raw coefficients of one context, low to high) ---------------

def trim(ops, p):
    while len(p) > 1 and p[-1] == ops.zero:
        p = p[:-1]
    return p or [ops.zero]


def axpy(ops, p, c, q):
    """p - c q."""
    n = max(len(p), len(q))
    return ops.axpy(p + [ops.zero] * (n - len(p)), c,
                    q + [ops.zero] * (n - len(q)))


def mulmod(ops, a, b, f):
    """a b mod monic f: each coefficient of a adds a scaled row b, and each
    coefficient above deg f takes a scaled row of f away."""
    n = len(f) - 1
    zero = ops.zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            out[i:i + len(b)] = ops.axpy(out[i:i + len(b)], ops.neg(x), b)
    low = f[:n]
    for i in range(len(out) - 1, n - 1, -1):
        if out[i] != zero:  # X^i = X^(i-n) (X^n - f)
            out[i - n:i] = ops.axpy(out[i - n:i], out[i], low)
    return trim(ops, out[:n])


def powmod(ops, base, e, f):
    """base^e mod monic f, for a base already reduced mod f."""
    return power(base, e, lambda x, y: mulmod(ops, x, y, f), [ops.one])


def divide(ops, a, b):
    """Quotient and remainder of a by a nonzero b, dividing by b made monic
    and scaling the quotient back."""
    lead_inv = ops.inverse(b[-1])
    b = ops.scale(b, lead_inv)
    rem = trim(ops, list(a))
    quot = [ops.zero] * max(len(rem) - len(b) + 1, 1)
    while len(rem) >= len(b) and not (len(rem) == 1 and rem[0] == ops.zero):
        off = len(rem) - len(b)
        quot[off] = rem[-1]
        rem[off:] = ops.axpy(rem[off:], rem[-1], b)
        rem = trim(ops, rem[:-1])  # the top coefficient cancelled
    return ops.scale(quot, lead_inv), rem


def deflate(ops, p, root):
    """(quotient, remainder) of p by X - root, by synthetic division."""
    acc = [p[-1]]  # the quotient, highest term first, then the remainder
    for c in reversed(p[:-1]):
        acc.append(ops.add(c, ops.mul(root, acc[-1])))
    return acc[-2::-1], acc[-1]


def gcd(ops, a, b):
    """The monic gcd of a and b ([zero] when both are zero)."""
    a, b = trim(ops, list(a)), trim(ops, list(b))
    while not (len(b) == 1 and b[0] == ops.zero):
        a, b = b, divide(ops, a, b)[1]
    if a[-1] != ops.zero:
        a = ops.scale(a, ops.inverse(a[-1]))
    return a


def frobenius_gcd(ops, f, e):
    """The monic gcd(f, X^e - X) of a polynomial f of degree >= 1 over a
    finite field, with X^e mod f by square and multiply.

    For e = q, the order of the field, it is the product of X - r over the
    distinct roots r of f in the field (root finding).  Over GF(p), f of
    degree k is irreducible iff e = p^k gives f and e = p^(k/r) gives 1 for
    every prime r | k (Rabin, SIAM J. Comput. 9, 1980).
    """
    f = ops.scale(f, ops.inverse(f[-1]))
    x = [ops.zero, ops.one]
    return gcd(ops, f, axpy(ops, powmod(ops, x, e, f), ops.one, x))


def is_irreducible(ops, f):
    """Rabin's test of a monic f of degree k >= 1 over GF(p), the field of
    ops (frobenius_gcd)."""
    p, k = ops.p, len(f) - 1
    return (frobenius_gcd(ops, f, p ** k) == f
            and all(len(frobenius_gcd(ops, f, p ** (k // r))) == 1
                    for r in range(2, k + 1) if k % r == 0 and is_prime(r)))

"""Reference rational-root search by the rational-root theorem, for the
tests.

A rational root a/b in lowest terms of an integer polynomial
f_0 + f_1 X + ... + f_n X^n with f_0 != 0 has a | f_0 and b | f_n.
rational_root tries every such pair, least b first, then least |a|, +a
before -a, and returns the first that is a root: the order in which
matcanon.roots._rational_root chooses among the roots it finds by
lifting them mod a prime.  Candidates are tested by exact Fraction
evaluation, with no arithmetic of matcanon.field, and the divisors are
found by trial division, so keep the coefficients small.
"""

import math
from fractions import Fraction


def divisors(n):
    """The positive divisors of n > 0, ascending."""
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def rational_root(f):
    """The first rational root of the integer polynomial f (coefficients
    low to high, f[-1] != 0) in the order above, or None."""
    if f[0] == 0:
        return Fraction(0)
    for b in divisors(abs(f[-1])):
        for a in divisors(abs(f[0])):
            if math.gcd(a, b) != 1:
                continue
            for x in (Fraction(a, b), Fraction(-a, b)):
                if sum(c * x ** i for i, c in enumerate(f)) == 0:
                    return x
    return None

"""Exact field arithmetic with on-demand quadratic and Artin-Schreier closure.

A FieldContext is an exact base field (rationals, GF(p), or GF(p^k) given by a
modulus polynomial) together with an ordered tower of degree-2 adjunctions.
Each adjunction is one record (c1, d): its generator g is a root of
g^2 = c1 g + d over the level below, with c1 = 0 for a square root and c1 = 1
for an Artin-Schreier root (characteristic 2, g^2 + g = d).  A Scalar has
coordinates over the base field in the multiplicative basis of the tower;
every operation is exact.  The records are read here only: one multiply and
one inverse serve both kinds, other modules read them through
adjunctions(ctx) as (c1, d) pairs, and RECORD_KINDS holds their names in
JSON and in the extension report.

Arithmetic shared by the package is written here once.  power is its one
square and multiply: Scalar powers, GF(p^k) base inverses, polynomial powers,
square roots and ExactMatrix.power all call it.  An element has one
representation, its raw value (see Scalar), and ctx.ops, built once per
field by _raw_ops, computes on it an element at a time (add, neg, mul,
inverse) or a row at a time (scale, axpy, matmul), in one of three ways:
  - GF(p) with no adjunction: ints mod p (_FlatOps);
  - any other finite field of at most 256 elements: element indices, with
    exp/log tables built once per field (_TableOps, _Tables): a product
    adds logarithms, a sum is XOR in characteristic 2 and one Zech
    logarithm otherwise (Givaro's GF(q), Dumas, Gautier and Pernet, ISSAC
    2002; Huber, IEEE Trans. Inf. Theory 36, 1990);
  - Q and its towers, and larger finite fields (_VectorOps): integer
    numerators over the monomial basis t^i g_S (t the generator of a
    GF(p^k) base) followed by one denominator, multiplied by one flat pass
    over the nonzero coordinate pairs that reads the monomial products
    from a _MonomialTable, filled one pair at a time by recurrence on the
    tower records, and inverted by norm descent down the tower (after
    Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    ch. 2 and 4.2; von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 4).  The two kinds differ in the coefficient rule alone, applied
    once to each result entry, a matrix product's dot products included:
    over Q the vector is divided by its gcd, over GF(p) each numerator is
    reduced mod p over the denominator 1.  At height 1 over GF(p) a
    product is the record's closed form on ints mod p (_PairOps).
Over GF(p) for p <= 13 and GF(p^2) for p <= 11, matrix products run on byte
lanes of Python ints (_packed_columns) while no lane can carry, and over GF(p)
for p <= 13 and the table fields of characteristic 2 the eliminations
reduce rows of bytes (_ByteRows), both with translate tables built once per
field; the values are those of the entry loops.
promote and trim move raw values directly.  The Scalar operators,
exactmat's kernels and the polynomial layer (raw coefficients, low to high)
all run on these ops: the products, division and gcd of root finding,
frobenius_gcd(ops, f, e), the monic gcd(f, X^e - X), which serves both root
finding over GF(q) (e = q) and Rabin's irreducibility test of a GF(p^k)
modulus (e = p^k and p^(k/r), over GF(p)), and square roots over GF(q):
Euler's criterion by norm descent down the tower (_is_finite_square), then
Tonelli-Shanks with one non-residue power per field.  Coordinates
(Scalar.coords) are read off raw values for tower records, canonical order
and printing.  format_scalar writes the text grammar, and parse_scalar
reads it in one pass over its tokens, the sums around open parentheses on
a stack, so nesting depth is unbounded.

A field is one FieldContext instance (_fields_cache) that keeps its ops
(with exp/log tables and byte lanes), _MonomialTable and non-residue power,
so it is checked and its tables built once.  Its constants by size or index
are kept by cached in dicts named *_cache, keyed by the interned context:
_generators_cache, exactmat._identity_cache, unipotent._gamma_blocks_cache,
_cyclic_grams_cache and _gamma_reduction_cache.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
import re
from collections import namedtuple
from fractions import Fraction

from .errors import (ContextMismatch, DivisionByZero, InternalDegenerate,
                     NoRootStrictPolicy, ParseError, TowerCapExceeded,
                     WrongCharacteristic)

STRICT = "strict"
EXTEND = "extend"

# random_elements streams are seeded so that every search drawing from them
# (root splitting, Tonelli-Shanks non-residues) is deterministic
_RANDOM_SEED = 0x6d6174
# each draw succeeds with probability about 1/2: 64 failures in a row mean
# the context is not a field
_NONRESIDUE_TRIES = 64


# Miller-Rabin with these witnesses is exact for every n < 3.3 * 10**24
# (Sorenson and Webster, 2015), which covers all 64-bit n
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981

_FRACTION_ZERO = Fraction(0)  # immutable: one object serves every context

# finite contexts of at most this many elements, other than GF(p) itself,
# compute on exp/log tables (_TableOps, _Tables)
_TABLE_MAX_ORDER = 256


def _is_prime(n):
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
    m, s = n - 1, 0
    while m % 2 == 0:
        m //= 2
        s += 1
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


# (kind, p, modulus, tower, tower_cap) -> the one FieldContext of that field
_fields_cache = {}
# (ctx, i) -> the raw value of the generator g_i of ctx
_generators_cache = {}


def cached(cache, key, build):
    """cache[key], or build() kept there; key[0] is a context.  A kept value
    serves every equal field under the cap it was built under (== ignores
    the cap), so one that must carry its caller's instance is kept raw."""
    cap, value = cache.get(key, (None, None))
    if cap != key[0].tower_cap:
        value = build()
        cache[key] = key[0].tower_cap, value
    return value


class FieldContext:
    """Immutable exact field: base kind plus a tower of quadratic adjunctions.

    kind is 'rational', 'gfp' or 'gfq'.  The tower is a tuple of (c1, coords)
    records, one per adjunction, meaning g^2 = c1 g + d: c1 is 0 (a square
    root) or 1 (an Artin-Schreier root, characteristic 2 only), and coords
    are the coordinates of d in the context existing before the adjunction.
    The constructor reads coords as scalar() does and checks each record
    as _adjoin does: x^2 = c1 x + d must have no root one level down, or
    the result has zero divisors; a gfq modulus must be irreducible over
    GF(p) (Rabin's test), for the same reason.  Elsewhere read the records
    with adjunctions().

    Every construction, here or by _adjoin, returns the field's one
    instance (_fields_cache), checked once.  Equality and hash are by key,
    so a field built again after the memo is emptied equals the old one.
    """

    def __new__(cls, kind, p=0, modulus=None, tower=(), tower_cap=16):
        if kind not in ("rational", "gfp", "gfq"):
            raise ValueError("unknown field kind %r" % (kind,))
        if kind == "rational":
            p = 0
        elif not _is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        modulus = tuple(c % p for c in modulus) if kind == "gfq" else None
        if modulus == ():
            raise ValueError("gfq modulus must have degree >= 1")
        base = _fields_cache.get((kind, p, modulus, (), tower_cap))
        if base is None:
            if modulus and not _modulus_is_irreducible(p, modulus):
                raise ValueError("gfq modulus %s (low coefficients of a "
                                 "monic degree-%d polynomial) is reducible "
                                 "over GF(%d)" % (list(modulus),
                                                  len(modulus), p))
            base = _interned(kind, p, modulus, (), tower_cap, ())
        tower = tuple(tower)
        if any(c1 not in (0, 1) for c1, _d in tower):
            raise ValueError("a tower record (c1, d) needs c1 = 0 (a square "
                             "root) or c1 = 1 (an Artin-Schreier root)")
        if p != 2 and any(c1 for c1, _d in tower):
            raise WrongCharacteristic(
                "Artin-Schreier adjunction outside characteristic 2")
        level = base  # the base field reads each coordinate
        for c1, d in tower:
            d = level.element([base.scalar(c).coords[0] for c in d])
            level = level._adjoin(c1, d, False)
        return level

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FieldContext) and self._key == other._key

    def __hash__(self):
        return self._hash  # the memos' keys hash a context at every lookup

    def __repr__(self):
        if self.kind == "rational":
            base = "Q"
        elif self.kind == "gfp":
            base = "GF(%d)" % self.p
        else:
            base = "GF(%d^%d)" % (self.p, len(self.modulus))
        if self.tower:
            return "%s+%d adjunctions" % (base, len(self.tower))
        return base

    @property
    def characteristic(self):
        return self.p

    @property
    def dim(self):
        """Coordinate dimension over the base field: 2**len(tower)."""
        return 1 << len(self.tower)

    @property
    def base_degree(self):
        return 1 if self.kind != "gfq" else len(self.modulus)

    def order(self):
        """Number of elements, or None for characteristic 0."""
        if self.kind == "rational":
            return None
        return self.p ** (self.base_degree * self.dim)

    def is_prefix_of(self, other):
        return (self.kind == other.kind and self.p == other.p
                and self.modulus == other.modulus
                and self.tower == other.tower[:len(self.tower)])

    def common(self, other):
        """The larger of two prefix-compatible contexts."""
        if other is self or self.is_prefix_of(other):
            return other
        if other.is_prefix_of(self):
            return self
        raise ContextMismatch("contexts are not prefix-compatible")

    # -- scalar constructors -----------------------------------------------

    def zero(self):
        return Scalar(self, self.ops.zero)

    def one(self):
        return Scalar(self, self.ops.one)

    def element(self, coords):
        """The scalar with these base-field coordinates, one per monomial."""
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length %d does not match context "
                             "dimension %d" % (len(coords), self.dim))
        return Scalar(self, self.ops.from_coords(coords))

    def scalar(self, value):
        """Build a scalar from an int, Fraction, or base element."""
        if isinstance(value, Scalar):
            return value.promote(self)
        if isinstance(value, int):
            return Scalar(self, self.ops.from_int(value))
        if isinstance(value, Fraction) and self.kind != "rational":
            num, den = value.numerator, value.denominator
            return self.scalar(num) / self.scalar(den)
        if self.kind == "gfq" and isinstance(value, tuple):
            value = tuple(c % self.p for c in value)
        elif not isinstance(value, Fraction):
            raise TypeError("cannot coerce %r into %r" % (value, self))
        return self.base_element(value)

    def generator(self, index):
        """The index-th (1-based) tower generator as a scalar."""
        if not 1 <= index <= len(self.tower):
            raise ValueError("no generator g%d in this context" % index)

        def build():
            base = self.truncated(0)
            coords = [base.zero().coords[0]] * self.dim
            coords[1 << (index - 1)] = base.one().coords[0]
            return self.element(coords).raw
        return Scalar(self, cached(_generators_cache, (self, index), build))

    def base_element(self, value):
        """A scalar whose only nonzero coordinate is the given base element."""
        return self.truncated(0).element((value,)).promote(self)

    def iter_elements(self):
        """Deterministic enumeration of all elements (finite fields only)."""
        if self.kind == "rational":
            raise ValueError("cannot enumerate the rationals")
        if self.kind == "gfp":
            base = list(range(self.p))
        else:
            base = [tuple(reversed(c)) for c in itertools.product(
                range(self.p), repeat=len(self.modulus))]
        for combo in itertools.product(base, repeat=self.dim):
            yield self.element(combo)

    # -- adjunctions ---------------------------------------------------------

    def adjoin_sqrt(self, d, rootless=False):
        """New context with a generator g, g^2 = d.

        d must be a non-square, or the result has zero divisors; ValueError
        unless it is.  rootless=True skips the search for a square root when
        the caller has just shown there is none.
        """
        return self._adjoin(0, d, rootless)

    def adjoin_artin_schreier(self, a, rootless=False):
        """New context with a generator g, g^2 + g = a (characteristic 2).

        x^2 + x = a must have no root in this context, or the result has
        zero divisors; ValueError unless so.  rootless=True skips the search
        when the caller has just shown there is none.
        """
        if self.p != 2:
            raise WrongCharacteristic(
                "Artin-Schreier adjunction requires characteristic 2")
        return self._adjoin(1, a, rootless)

    def _adjoin(self, c1, d, rootless):
        """The context with one more record (c1, d), g^2 = c1 g + d: its
        interned instance, or a new one once the record is checked."""
        d = d.promote(self)
        if len(self.tower) >= self.tower_cap:
            exc = TowerCapExceeded("tower height cap %d reached"
                                   % self.tower_cap)
            exc.records = adjunctions(self) + [(c1, d)]
            raise exc
        tower = self.tower + ((c1, d.coords),)
        ctx = _fields_cache.get((self.kind, self.p, self.modulus, tower,
                                  self.tower_cap))
        if ctx is None:
            kind = RECORD_KINDS[c1]
            if not rootless and kind.find_root(d) is not None:
                raise ValueError(kind.has_root % (format_scalar(d), self))
            ctx = _interned(self.kind, self.p, self.modulus, tower,
                            self.tower_cap, self._prefixes + (self,))
        return ctx

    def truncated(self, height):
        """The prefix context with the first `height` adjunctions: the same
        instance at each call."""
        return self._prefixes[height] if height < len(self.tower) else self


def _interned(kind, p, modulus, tower, tower_cap, prefixes):
    """The FieldContext of a checked field, with the instances of its proper
    prefixes, lowest first (see truncated), the products of its monomial
    basis (monomials) and its arithmetic of raw values (ops), entered in
    _fields_cache."""
    ctx = object.__new__(FieldContext)
    # every instance sets its attributes in this order, so that instances
    # share one layout and attribute reads stay on CPython's fast path
    ctx.kind, ctx.p, ctx.modulus = kind, p, modulus
    ctx.tower, ctx.tower_cap = tower, tower_cap
    ctx._key = (kind, p, modulus, tower)
    ctx._hash = hash(ctx._key)
    ctx._prefixes = prefixes
    ctx.monomials = _MonomialTable(ctx)
    ctx.ops = _raw_ops(ctx)
    ctx._nonresidue = None
    _fields_cache[(kind, p, modulus, tower, tower_cap)] = ctx
    return ctx


class Scalar:
    """Immutable element of a FieldContext: the pair (ctx, raw), raw being
    the value that ctx.ops computes on:
      - GF(p) with no adjunction (_FlatOps): the int in [0, p);
      - other finite contexts of at most _TABLE_MAX_ORDER elements
        (_TableOps): the element's index in the context's tables;
      - Q and its towers, and larger finite contexts (_VectorOps): the int
        tuple (n_0, ..., n_(N-1), den) of the numerators of its flat
        coordinates over the prime field and their common denominator,
        with den > 0 and gcd 1 over Q, and den = 1 and each n_i in [0, p)
        over GF(p).
    An element has one raw value per context, which == compares and hash
    reads.  coords (Fractions, ints or GF(p^k) tuples) is derived from raw;
    ctx.element builds a scalar from coordinates, and ctx.scalar(n) builds
    the raw value of an int n directly (from_int).
    """

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx, raw):
        self.ctx = ctx
        self.raw = raw

    @property
    def coords(self):
        return self.ctx.ops.to_coords(self.raw)

    # -- promotion ---------------------------------------------------------

    def promote(self, ctx):
        """The same element in a context whose tower extends this scalar's."""
        if self.ctx is ctx or self.ctx == ctx:
            return self
        if not self.ctx.is_prefix_of(ctx):
            raise ContextMismatch("cannot promote %r scalar into %r"
                                  % (self.ctx, ctx))
        return Scalar(ctx, ctx.ops.move(self.raw, self.ctx.ops))

    def _pair(self, other):
        if not isinstance(other, Scalar):
            other = self.ctx.scalar(other)
        if self.ctx is other.ctx or self.ctx == other.ctx:
            return self, other
        ctx = self.ctx.common(other.ctx)
        return self.promote(ctx), other.promote(ctx)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return Scalar(a.ctx, a.ctx.ops.add(a.raw, b.raw))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, self.ctx.ops.neg(self.raw))

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._pair(other)
        return Scalar(a.ctx, a.ctx.ops.mul(a.raw, b.raw))

    __rmul__ = __mul__

    def inverse(self):
        return Scalar(self.ctx, self.ctx.ops.inverse(self.raw))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        ops = self.ctx.ops
        base = ops.inverse(self.raw) if e < 0 else self.raw
        return Scalar(self.ctx, power(base, abs(e), ops.mul, ops.one))

    # -- predicates and comparison -------------------------------------------

    def trim(self):
        """The same scalar in the smallest prefix context that holds it."""
        ctx, ops = self.ctx, self.ctx.ops
        height = ops.height(self.raw)
        if height == len(ctx.tower):
            return self
        sub = ctx.truncated(height)
        return Scalar(sub, sub.ops.move(self.raw, ops))

    def is_zero(self):
        return self.raw == self.ctx.ops.zero

    def __eq__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        try:
            a, b = self._pair(other)
        except ContextMismatch:
            return False
        return a.raw == b.raw

    def __hash__(self):
        # promotions compare equal: hash the raw value in the trimmed context
        return hash(self.trim().raw)

    def __repr__(self):
        return "Scalar(%s)" % format_scalar(self)

    def __bool__(self):
        return not self.is_zero()


def enumeration_key(x):
    """Sort key that orders finite-field scalars as iter_elements lists them."""
    if x.ctx.kind == "gfq":
        return tuple(c[::-1] for c in x.coords)
    return x.coords


def random_elements(ctx):
    """Endless, seeded stream of uniformly random elements of a finite field
    context; every call restarts the same stream."""
    rng = random.Random(_RANDOM_SEED)
    k = ctx.base_degree
    while True:
        if ctx.kind == "gfp":
            coords = tuple(rng.randrange(ctx.p) for _ in range(ctx.dim))
        else:
            coords = tuple(tuple(rng.randrange(ctx.p) for _ in range(k))
                           for _ in range(ctx.dim))
        yield ctx.element(coords)


# -- raw values: the arithmetic of Scalars, kernels and polynomials ----------
#
# Each ops class has zero and one; add, neg, mul and inverse (DivisionByZero
# on zero); the kernels' scale, axpy (row - f prow) and matmul; from_int,
# from_coords and to_coords; height(x), the height of the least prefix
# context holding x; and move(x, ops), the raw value here of x, a raw value
# of ops, the ops of a prefix or an extension of this context.  indexed: raw
# values are element indices, the same in every context of a tower that has
# them, whose base-p digits, lowest first, are the coordinates over GF(p)
# in the order of the numerators of _VectorOps.  work is the form of the
# rows that the eliminations reduce (exactmat._rref, first_dependence): the
# ops itself, whose raw rows are reduced as they are (_RawRows), except over
# Q itself (_IntRows) and over GF(p) for p <= 13 and the table fields of
# characteristic 2, whose rows are bytes (_ByteRows).

class _RawRows:
    """Working rows that are the raw rows: enter and leave change nothing,
    and unit scales a row to 1 at column c."""

    @property
    def work(self):
        return self

    @staticmethod
    def enter(rows):
        pass

    leave = enter

    def unit(self, row, c):
        return self.scale(row, self.inverse(row[c]))

    def inserted(self, row, i):
        """row with a zero entry inserted at index i."""
        return [*row[:i], self.zero, *row[i:]]


class _IntRows:
    """Working rows over Q itself: a row of raw values (n, d) is cleared to
    integers over one positive row denominator, [n_0, ..., n_(k-1), den],
    and reduced integer-preservingly, one content gcd per row operation
    (Bareiss, Math. Comp. 22, 1968; Cohen, GTM 138, 2.2); leave normalizes
    each entry once, where it is read back.  The coordinates come first, so
    a zero inserted at a coordinate index lands before den."""

    zero = 0

    @staticmethod
    def enter(rows):
        """Clear each row of raw values, in place."""
        for i, row in enumerate(rows):
            den, nums = _cleared(row)
            rows[i] = [*nums, den]

    @staticmethod
    def leave(rows):
        """Each row back to normalized raw values, in place."""
        for i, row in enumerate(rows):
            den = row.pop()
            rows[i] = [(n, 1) for n in row] if den == 1 else [
                (n // (g := math.gcd(n, den)), den // g) for n in row]

    @staticmethod
    def unit(row, c):
        """row scaled to 1 at column c: its numerators over row[c], signs
        flipped to keep den positive."""
        nums = row[:-1] if row[c] > 0 else [-n for n in row[:-1]]
        nums.append(abs(row[c]))
        return _content_free(nums)

    @staticmethod
    def axpy(row, f, prow):
        """row - f prow, f the numerator of row at the pivot column of prow,
        a unit row (so its den is its numerator there)."""
        pd = prow[-1]
        nums = [pd * x - f * y for x, y in zip(row, prow)]
        nums[-1] = row[-1] * pd
        return _content_free(nums)

    @staticmethod
    def inserted(row, i):
        return [*row[:i], 0, *row[i:]]


class _ByteRows:
    """The byte lanes of a finite context of q <= 256 elements, built on
    first use and kept by its ops (_IndexedOps.lanes): translate tables,
    and the working rows of one byte per element that GF(p) for p <= 13
    and the table fields of characteristic 2 reduce.  mod reduces a byte
    mod p, mul[c] multiplies by c and inv[c] is the inverse of c; planes,
    for q = p^2 alone, is (hi, t_lo, t_hi, p_mod): an index x = x_0 + x_1 t
    (t the element p) has digits mod[x] and hi[x], t y has digits t_lo[y]
    and t_hi[y], and p_mod[x] is p (x mod p).

    A row is one bytes object, so unit is one translate by the multiply-by-
    the-inverse-pivot table and axpy one big-int operation on the whole
    row.  Over GF(p), row - f prow is row + (p - f) prow, each byte below
    p (p - 1) < 256, so no lane carries, then one translate mod p; in
    characteristic 2 it is row XOR (f prow), f prow one translate.
    Indexing a row gives an int, so the loop's pivot tests and swaps read
    the same values as on raw rows."""

    zero = 0

    def __init__(self, ctx):
        ops, p, q = ctx.ops, ctx.p, ctx.order()
        lanes = range(_LANE_BOUND)
        self.p = p
        self.mod = bytes([x % p for x in lanes])
        self.mul = [bytes([ops.mul(c, x % q) for x in lanes])
                    for c in range(q)]
        self.inv = [0, *map(ops.inverse, range(1, q))]
        self.planes = None
        if q == p * p:
            self.planes = (bytes([x // p % p for x in lanes]),
                           bytes([y % p for y in self.mul[p]]),
                           bytes([y // p for y in self.mul[p]]),
                           bytes([x % p * p for x in lanes]))

    @staticmethod
    def enter(rows):
        for i, row in enumerate(rows):
            rows[i] = bytes(row)

    @staticmethod
    def leave(rows):
        for i, row in enumerate(rows):
            rows[i] = list(row)

    def unit(self, row, c):
        return row.translate(self.mul[self.inv[row[c]]])

    def axpy(self, row, f, prow):
        """row - f prow."""
        n, p = len(row), self.p
        if p == 2:
            return (int.from_bytes(row, "big") ^ int.from_bytes(
                prow.translate(self.mul[f]), "big")).to_bytes(n, "big")
        return (int.from_bytes(row, "big") + (p - f) * int.from_bytes(
            prow, "big")).to_bytes(n, "big").translate(self.mod)

    @staticmethod
    def inserted(row, i):
        return row[:i] + b"\0" + row[i:]


class _IndexedOps(_RawRows):
    """The ops whose raw values are element indices, ints below q: GF(p)
    (_FlatOps) and the table fields (_TableOps).  work is their byte lanes
    (_ByteRows) where byte_rows holds.  The lanes are fetched on first use
    into an attribute that __init__ sets: an attribute added to an instance
    later (a functools.cached_property) slows every attribute read of it
    in CPython, and these ops are read at every operation."""

    indexed = True

    def __init__(self, ctx, byte_rows):
        self.ctx = ctx
        self.zero, self.one = 0, 1
        self.byte_rows, self._lanes = byte_rows, None

    @property
    def lanes(self):
        if self._lanes is None:
            self._lanes = _ByteRows(self.ctx)
        return self._lanes

    @property
    def work(self):
        return self.lanes if self.byte_rows else self


# The byte-lane matrix product holds one digit per byte lane of a Python
# int, and each output row is one big-int multiply (Kronecker substitution
# with packed reduction: Dumas, Fousse and Salvy, J. Symb. Comput. 46,
# 2011): the row, read in reverse, times B's columns packed at a stride of
# 2m - 1 lanes (m the inner dimension, _packed_columns) holds its dot
# product with column j in lane (2m - 1) j + m - 1.  A lane sums at most m
# products of digits below p, so it is exact while m (p - 1)^2 < 256, and
# k m (p - 1)^2 < 256 for the k digit planes of a field of p^k elements
# (_lane_depth): GF(p) for p <= 13 and GF(p^2) for p <= 11.  Past the
# bound, and over larger fields, the entry-by-entry loops run.
_LANE_BOUND = 256


def _lane_depth(k, p):
    """The largest inner dimension m of a product on byte lanes over p^k
    elements, k m (p - 1)^2 < 256; 0 for none."""
    return (_LANE_BOUND - 1) // (k * (p - 1) ** 2)


def _packed_columns(cols, m, tables):
    """B's columns of m digits as one int of byte lanes, column j at lane
    (2m - 1) j, read through each translate table in turn (None reads them
    as they are) and set side by side: column j through table i is column
    i len(cols) + j."""
    pad = bytes(m - 1)
    packed = pad.join(map(bytes, cols)) + pad
    return int.from_bytes(b"".join([packed.translate(t) for t in tables]),
                          "little")


class _FlatOps(_IndexedOps):
    """GF(p) without adjunctions: raw values are ints in [0, p), and a dot
    product is reduced mod p once, not once per operation.  Rows are
    reduced on bytes while row + (p - f) prow stays below 256: p <= 13."""

    def __init__(self, ctx):
        super().__init__(ctx, ctx.p * (ctx.p - 1) < _LANE_BOUND)
        self.p = ctx.p
        self.lane_depth = _lane_depth(1, ctx.p)

    def from_int(self, n):
        return n % self.p

    def from_coords(self, coords):
        return coords[0]

    def to_coords(self, x):
        return (x,)

    def height(self, x):
        return 0

    def move(self, x, ops):
        return x if ops.indexed else x[0]

    def add(self, x, y):
        return (x + y) % self.p

    def neg(self, x):
        return -x % self.p

    def mul(self, x, y):
        return x * y % self.p

    def inverse(self, x):
        if not x:
            raise DivisionByZero("scalar division by zero")
        return pow(x, self.p - 2, self.p)

    def scale(self, row, c):
        p = self.p
        return [x * c % p for x in row]

    def axpy(self, row, f, prow):
        """row - f * prow."""
        p = self.p
        return [(x - f * y) % p for x, y in zip(row, prow)]

    def matmul(self, a_rows, b_cols):
        """One multiply on byte lanes (_packed_columns) and one translate
        mod p per output row while the lanes hold, else a dot product per
        entry."""
        p, m = self.p, len(b_cols[0])
        if m <= self.lane_depth:
            mod, stride = self.lanes.mod, 2 * m - 1
            packed = _packed_columns(b_cols, m, (None,))
            size = stride * len(b_cols)
            return [(int.from_bytes(r, "big") * packed).to_bytes(
                size, "little")[m - 1::stride].translate(mod) for r in a_rows]
        return [[sum(map(operator.mul, r, c)) % p for c in b_cols]
                for r in a_rows]


class _TableOps(_IndexedOps):
    """Finite contexts of at most _TABLE_MAX_ORDER elements other than GF(p)
    itself: raw values are element indices (see _Tables).  A product adds
    logarithms, a sum is XOR in characteristic 2 and one Zech logarithm
    otherwise; a zero factor reads the zero padding of exp, unbranched.
    Rows are reduced on bytes in characteristic 2, where a sum is XOR."""

    def __init__(self, ctx):
        super().__init__(ctx, ctx.p == 2)
        self.tables = tables = _build_tables(ctx)
        self.from_coords = tables.index.__getitem__
        self.to_coords = tables.coords.__getitem__
        self.exp, self.log, self.zech = tables.exp, tables.log, tables.zech
        self.units, self.minus_one = tables.order - 1, tables.minus_one
        # the indices below p^(k 2^h) are the elements of height h or less
        self.bounds = [ctx.p ** (ctx.base_degree << h)
                       for h in range(len(ctx.tower) + 1)]
        # products on byte lanes over p^2 elements alone
        self.lane_depth = (_lane_depth(2, ctx.p)
                           if tables.order == ctx.p ** 2 else 0)

    def from_int(self, n):
        return n % self.ctx.p  # the lowest digit

    def height(self, x):
        return bisect.bisect_right(self.bounds, x)

    def move(self, x, ops):
        if ops.indexed:
            return x
        return self.from_coords(ops.to_coords(x)[:self.ctx.dim])

    def add(self, x, y):
        if self.zech is None:
            return x ^ y
        if not (x and y):
            return x or y
        lx = self.log[x]  # x + y = g^lx (1 + g^(ly - lx))
        return self.exp[lx + self.zech[self.log[y] - lx]]

    def neg(self, x):
        return self.exp[self.log[x] + self.minus_one]

    def mul(self, x, y):
        return self.exp[self.log[x] + self.log[y]]

    def inverse(self, x):
        if not x:
            raise DivisionByZero("scalar division by zero")
        return self.exp[self.units - self.log[x]]

    def scale(self, row, c):
        exp, log = self.exp, self.log
        lc = log[c]
        return [exp[lc + log[x]] for x in row]

    def axpy(self, row, f, prow):
        """row - f * prow."""
        exp, log, zech = self.exp, self.log, self.zech
        lf = log[self.neg(f)]  # the logarithm of -f
        if zech is None:
            return [x ^ exp[lf + log[y]] for x, y in zip(row, prow)]
        if not f:
            return list(row)
        out = []
        for x, y in zip(row, prow):
            if y:
                t = lf + log[y]
                if x:  # x - f y = g^lx (1 + g^(t - lx))
                    lx = log[x]
                    x = exp[lx + zech[t - lx]]
                else:
                    x = exp[t]
            out.append(x)
        return out

    def matmul(self, a_rows, b_cols):
        m = len(b_cols[0])
        if m <= self.lane_depth:
            return self._plane_matmul(a_rows, b_cols, m)
        exp, log, zech = self.exp, self.log, self.zech
        a_logs = [[log[x] for x in r] for r in a_rows]
        b_logs = [[log[y] for y in c] for c in b_cols]
        if zech is None:
            xor, add, at = operator.xor, operator.add, exp.__getitem__
            return [[functools.reduce(xor, map(at, map(add, r, c)), 0)
                     for c in b_logs] for r in a_logs]
        zero_log = log[0]
        out = []
        for r in a_logs:
            support = [(k, lx) for k, lx in enumerate(r) if lx != zero_log]
            out_row = []
            for c in b_logs:
                acc = 0
                for k, lx in support:
                    ly = c[k]
                    if ly != zero_log:
                        t = lx + ly
                        if acc:
                            la = log[acc]
                            acc = exp[la + zech[t - la]]
                        else:
                            acc = exp[t]
                out_row.append(acc)
            out.append(out_row)
        return out

    def _plane_matmul(self, a_rows, b_cols, m):
        """A product over p^2 elements on byte lanes.  With x = x_0 + x_1 t,
        digit u of x y is x_0 (digit u of y) + x_1 (digit u of t y), so the
        row's two digit planes, times B's columns read through those digit
        tables (digits 0 and 1 side by side, 2n columns), give the lanes of
        both digits of the n entries, below 2m (p - 1)^2; each is reduced
        mod p and the index is digit 0 plus p times digit 1."""
        mod = self.lanes.mod
        hi, t_lo, t_hi, p_mod = self.lanes.planes
        n, stride = len(b_cols), 2 * m - 1
        low = _packed_columns(b_cols, m, (mod, hi))
        high = _packed_columns(b_cols, m, (t_lo, t_hi))
        out = []
        for r in a_rows:
            r = bytes(r)
            lanes = (int.from_bytes(r.translate(mod), "big") * low
                     + int.from_bytes(r.translate(hi), "big") * high
                     ).to_bytes(stride * 2 * n, "little")[m - 1::stride]
            out.append((int.from_bytes(lanes[:n].translate(mod), "little")
                        + int.from_bytes(lanes[n:].translate(p_mod),
                                         "little")).to_bytes(n, "little"))
        return out


class _VectorOps(_RawRows):
    """Q and its towers, and finite contexts of more than _TABLE_MAX_ORDER
    elements: a raw value is one integer vector, the numerators of the
    coordinates over the prime field, one per monomial t^i g_S of the
    context's _MonomialTable (base coordinates first, Scalar.coords
    flattened), followed by their common denominator, (n_0, ..., n_(N-1),
    den).  The two kinds differ in the coefficient rule alone (reduced),
    which gives each element one raw value: over Q den > 0 and the vector
    has gcd 1, over GF(p) den is 1 and every numerator lies in [0, p).  A
    product is one integer accumulation over the nonzero coordinate pairs,
    reading the monomial products from the table, and each result entry, a
    matrix product's included, is reduced once; at height 1 over GF(p) the
    subclass _PairOps multiplies by the record's closed form instead.  The
    tables of smaller finite fields (_build_tables) take their powers with
    it too."""

    indexed = False

    def __init__(self, ctx):
        self.ctx = ctx
        self.p, self.k = ctx.p, ctx.base_degree
        self.level = len(ctx.tower)
        self.zero = (0,) * (ctx.dim * self.k) + (1,)
        self.one = (1,) + self.zero[1:]
        self.table = ctx.monomials
        # the coefficient rule: the raw value of nums / den
        self.reduced = (functools.partial(_mod_reduced, self.p) if self.p
                        else _rat_normalized)
        # the vector arithmetic one level down (inverse, norm): the prefix
        # context's own ops, unless they compute on ints or tables
        self.below = None
        if self.level:
            prefix = ctx.truncated(self.level - 1)
            self.below = (_VectorOps(prefix) if prefix.ops.indexed
                          else prefix.ops)

    @property
    def work(self):
        return self if self.level or self.p else _IntRows

    def from_int(self, n):
        return (n % self.p if self.p else int(n),) + self.zero[1:]

    @staticmethod
    def from_coords(coords):
        """The raw value of base coordinates: Fractions (or ints) over the
        lcm of their denominators, with which the numerators already have
        gcd 1; ints mod p, and GF(p^k) tuples of them flattened, over 1."""
        if isinstance(coords[0], tuple):
            coords = list(itertools.chain.from_iterable(coords))
        den = math.lcm(*[c.denominator for c in coords])
        return (*[c.numerator * (den // c.denominator) for c in coords], den)

    def to_coords(self, x):
        if self.ctx.kind == "gfq":  # GF(p^k) coordinates are tuples
            k = self.k
            return tuple(x[i:i + k] for i in range(0, len(x) - 1, k))
        if self.p:
            return x[:-1]
        den = x[-1]
        if den == 1:
            return tuple(map(Fraction, x[:-1]))
        return tuple(Fraction(n, den) if n else _FRACTION_ZERO
                     for n in x[:-1])

    def height(self, x):
        height, k = self.level, self.k
        while height and not any(x[k << (height - 1):k << height]):
            height -= 1
        return height

    def move(self, x, ops):
        if ops.indexed:  # the base-p digits of an index, over 1
            digits = []
            while x:
                x, c = divmod(x, self.p)
                digits.append(c)
            x = (*digits, 1)
        n, m = len(x), len(self.zero)
        if n < m:  # zero numerators are added before den, or dropped
            return x[:-1] + self.zero[n - 1:-1] + x[-1:]
        return x[:m - 1] + x[-1:] if n > m else x

    # add, neg, mul, scale, axpy and matmul apply the coefficient rule over
    # GF(p) inline: a call per entry would cost more than the reduction

    def add(self, x, y):
        p, xd, yd = self.p, x[-1], y[-1]
        if p:
            return (*[(a + b) % p for a, b in zip(x[:-1], y)], 1)
        if xd == yd:
            return _rat_normalized([a + b for a, b in zip(x[:-1], y)], xd)
        return _rat_normalized([a * yd + b * xd for a, b in zip(x[:-1], y)],
                               xd * yd)

    def neg(self, x):
        p = self.p
        if p:
            return (*[-n % p for n in x[:-1]], 1)
        return (*[-n for n in x[:-1]], x[-1])  # gcd and den unchanged

    def mul(self, x, y):
        p = self.p
        if p:
            return (*[a % p for a in self.table.mul(
                _support(x[:-1]), _support(y[:-1]))[0]], 1)
        if len(x) == 2:  # Q itself: no table
            return _rat_normalized((x[0] * y[0],), x[1] * y[1])
        acc, den = self.table.mul(_support(x[:-1]), _support(y[:-1]))
        return _rat_normalized(acc, x[-1] * y[-1] * den)

    def inverse(self, x):
        """By norm descent: x = (a + b g)/den, g^2 = c1 g + d, with integer
        vectors a and b one level down, has x^-1 = den ((a + c1 b) - b g) /
        (a (a + c1 b) - d b^2), the norm inverted one level down; at height
        1 over Q or GF(p), a, b and d are ints.  Q itself swaps numerator
        and denominator, and a GF(p^k) base inverts by x^(p^k - 2)."""
        if x == self.zero:
            raise DivisionByZero("scalar division by zero")
        if not self.level:
            if self.p:
                return power(x, self.p ** self.k - 2, self.mul, self.one)
            n, den = x
            return (den, n) if n > 0 else (-den, -n)
        table = self.table
        c1, d, d_den = table.c1, table.d, table.d_den
        if len(x) == 3:  # height 1 over one base coordinate
            a, b, den = x
            (_s, dn), = d
            conj = a + c1 * b
            norm = a * conj * d_den - dn * b * b
            den *= d_den
            if norm < 0:
                den, norm = -den, -norm
            return self.reduced((den * conj, -den * b), norm)
        sub = self.below
        half = len(x) // 2
        a, b, den = x[:half], x[half:-1], x[-1]
        if not any(b):
            inv = sub.inverse((*a, den))
            return (*inv[:-1], *b, inv[-1])
        mul = sub.table.mul
        sa, sb = _support(a), _support(b)
        sc = _support([u + v for u, v in zip(a, b)]) if c1 else sa
        aa, ta = mul(sa, sc)
        bb, tb = mul(sb, sb)
        dbb, tdbb = mul(d, _support(bb))
        tdbb *= d_den * tb
        inv = sub.inverse(sub.reduced(
            [u * tdbb - v * ta for u, v in zip(aa, dbb)], ta * tdbb))
        si = _support(inv[:-1])
        lo, tlo = mul(sc, si)
        hi, thi = mul(sb, si)
        return self.reduced([den * thi * u for u in lo]
                            + [-den * tlo * v for v in hi],
                            tlo * thi * inv[-1])

    def norm(self, x):
        """(N, ops): the norm x x' = a^2 - d b^2 of x = a + b g, g^2 = d,
        in a finite tower of odd characteristic, as a raw value N of ops,
        the ops of the prefix context one level down."""
        sub = self.below
        half = len(x) // 2
        a, b = (*x[:half], 1), (*x[half:-1], 1)
        d = sub.from_coords(self.ctx.tower[-1][1])
        n, = sub.axpy([sub.mul(a, a)], d, [sub.mul(b, b)])
        down = self.ctx.truncated(self.level - 1).ops
        return down.move(n, sub), down

    def scale(self, row, c):
        zero, p = self.zero, self.p
        mul, cs, cd = self.table.mul, _support(c[:-1]), c[-1]
        out = []
        for x in row:
            if x != zero:
                acc, den = mul(_support(x[:-1]), cs)
                x = (*[a % p for a in acc], 1) if p else \
                    _rat_normalized(acc, x[-1] * cd * den)
            out.append(x)
        return out

    def axpy(self, row, f, prow):
        """row - f * prow."""
        zero, p = self.zero, self.p
        if f == zero:
            return list(row)
        mul, fs, fd = self.table.mul, _support(f[:-1]), f[-1]
        out = []
        for x, y in zip(row, prow):
            if y != zero:
                acc, den = mul(fs, _support(y[:-1]))
                if p:
                    x = (*[(a - b) % p for a, b in zip(x, acc)], 1)
                else:
                    yd, xd = fd * y[-1] * den, x[-1]
                    x = _rat_normalized(
                        [a * yd - b * xd for a, b in zip(x, acc)], xd * yd)
            out.append(x)
        return out

    def matmul(self, a_rows, b_cols):
        """Each row and each column is put over one denominator and split
        into integer coordinate vectors, so an entry is a sum over pairs of
        coordinates of one integer dot product times m_s m_t, reduced once;
        with one coordinate, one integer dot product."""
        p, reduced = self.p, self.reduced
        if len(self.zero) == 2:
            cols = list(map(_cleared, b_cols))
            return [[reduced((sum(map(operator.mul, rn, cn)),), rd * cd)
                     for cd, cn in cols] for rd, rn in map(_cleared, a_rows)]
        mul = self.table.mul
        cols = [_rat_split(c, p) for c in b_cols]
        return [[(*[a % p for a in acc], 1) if p
                 else _rat_normalized(acc, rd * cd * den)
                 for cd, cs in cols for acc, den in [mul(rs, cs, _int_dot)]]
                for rd, rs in (_rat_split(r, p) for r in a_rows)]


class _PairOps(_VectorOps):
    """GF(p) with one adjunction g^2 = d, above _TABLE_MAX_ORDER elements
    (so p is odd and the record a square root): the raw values of
    _VectorOps, (a, b, 1) for a + b g, multiplied by the record's closed
    form on ints mod p, (a + b g)(c + e g) = (ac + d be) + (ae + bc) g,
    without the monomial table; a matrix product takes four integer dot
    products per entry, reduced once.  The norm is a^2 - d b^2 on ints, and
    the inverse is _VectorOps's height-1 branch."""

    def __init__(self, ctx):
        super().__init__(ctx)
        (_c1, (self.d,)), = ctx.tower

    def mul(self, x, y):
        p = self.p
        a, b, _ = x
        c, e, _ = y
        return ((a * c + self.d * b * e) % p, (a * e + b * c) % p, 1)

    def norm(self, x):
        a, b, _ = x
        return (a * a - self.d * b * b) % self.p, self.ctx.truncated(0).ops

    def scale(self, row, c):
        return [self.mul(x, c) for x in row]

    def axpy(self, row, f, prow):
        """row - f * prow."""
        p = self.p
        c, e, _ = f
        de = self.d * e
        return [((a - c * u - de * v) % p, (b - c * v - e * u) % p, 1)
                for (a, b, _), (u, v, _) in zip(row, prow)]

    def matmul(self, a_rows, b_cols):
        """Each row and column is split into its a and b coordinates, so an
        entry is (A.C + d B.E) + (A.E + B.C) g."""
        p, d = self.p, self.d

        def split(vector):
            return [x[0] for x in vector], [x[1] for x in vector]

        cols = list(map(split, b_cols))
        return [[((_int_dot(ra, ca) + d * _int_dot(rb, cb)) % p,
                  (_int_dot(ra, cb) + _int_dot(rb, ca)) % p, 1)
                 for ca, cb in cols]
                for ra, rb in map(split, a_rows)]


def _rat_normalized(nums, den):
    """The coefficient rule over Q: the raw value nums / den (den > 0),
    divided by its gcd."""
    g = math.gcd(den, *nums)
    if g == 1:
        return (*nums, den)
    return (*[n // g for n in nums], den // g)


def _mod_reduced(p, nums, den):
    """The coefficient rule over GF(p): the raw value nums / den (den prime
    to p), each entry reduced mod p, over 1."""
    if den != 1:
        inv = pow(den, -1, p)
        nums = [n * inv for n in nums]
    return (*[n % p for n in nums], 1)


def _cleared(values):
    """(den, [numerators over den]) for raw values of one coordinate, den
    the lcm of their denominators, so that den and the numerators have
    gcd 1."""
    den = math.lcm(*[d for _n, d in values])
    return den, [n if d == den else n * (den // d) for n, d in values]


def _content_free(nums):
    """An integer vector divided by its content, the gcd of its entries."""
    g = math.gcd(*nums)
    return nums if g == 1 else [n // g for n in nums]


def _support(nums):
    """The nonzero entries of an integer vector, as (coordinate, n) pairs."""
    return [(s, n) for s, n in enumerate(nums) if n]


def _rat_split(vector, p):
    """(den, [(s, coordinate s of every entry)]) for raw values of one
    length over GF(p), or over Q for p = 0: their numerators over den, the
    lcm of their denominators (1 over GF(p)), keeping the coordinates s
    that are nonzero in some entry."""
    den = 1 if p else math.lcm(*map(operator.itemgetter(-1), vector))
    if den != 1:
        vector = [x if x[-1] == den else [n * (den // x[-1]) for n in x]
                  for x in vector]
    # the last column, the denominators, is nonzero in every entry
    return den, [(s, v) for s, v in enumerate(zip(*vector)) if any(v)][:-1]


class _MonomialTable:
    """The products m_s m_t of the monomial basis of a context, over Q or
    GF(p), in that basis: rows[s][t] lists (coordinate, numerator) pairs
    over the common denominator den, which stays 1 over GF(p), where the
    numerators are reduced mod p.  The monomial m_s is t^i g_S for s = i + k
    S (t the generator of a GF(p^k) base, 1 otherwise, and g_S the product
    of the generators g_j, j in the bitmask S), so a prefix context's
    monomials come first and the table of a prefix holds the products of
    its own.

    A pair is filled on first use, by recurrence on the top generator g of
    the tower, g^2 = c1 g + d: a pair of monomials below g is read from the
    prefix's table (its context's monomials, so towers that share a prefix
    share its products); if one monomial has g, the product
    is the one without g shifted up one half; if both have g, it is the
    product E without g times c1 g + d, that is, E d (one product one level
    down) plus c1 E shifted up.  At the base, t^i t^j is read off the
    modulus.  A pair whose denominator does not divide den raises den and
    rescales every entry, and a product that saw den change is computed
    again.  A row is made on first use too: at the height cap of 16 a full
    table would have 2^32 slots."""

    def __init__(self, ctx):
        self.p = ctx.p
        self.den = 1
        self.rows = [None] * (ctx.dim * ctx.base_degree)
        self.below = None
        if ctx.tower:
            self.below = ctx.truncated(len(ctx.tower) - 1).monomials
            self.c1, d = ctx.tower[-1]  # d on flat coordinates, over d_den
            *d, self.d_den = _VectorOps.from_coords(d)
            self.d = _support(d)
        elif ctx.kind == "gfq":  # t^n for n < 2k - 1, reduced
            x, self.base = (1,) + (0,) * (len(ctx.modulus) - 1), []
            for _ in range(2 * len(ctx.modulus) - 1):
                self.base.append(tuple(_support(x)))
                x = tuple((low - x[-1] * m) % self.p  # t x
                          for low, m in zip((0,) + x[:-1], ctx.modulus))
        else:
            self.base = [((0, 1),)]

    def row(self, s):
        row = self.rows[s] = [None] * len(self.rows)
        return row

    def entry(self, s, t):
        return (self.rows[s] or self.row(s))[t] or self.fill(s, t)

    def fill(self, s, t):
        below, den = self.below, 1
        if below is None:
            pairs = self.base[s + t]
        else:
            half = len(self.rows) // 2
            if s < half and t < half:
                pairs = below.entry(s, t)
                den = below.den
            elif s >= half and t >= half:
                low = below.entry(s - half, t - half)
                low_den = below.den
                acc, den = below.mul(low, self.d)
                den *= low_den * self.d_den
                if self.p:
                    acc = [a % self.p for a in acc]
                pairs = _support(acc)
                if self.c1:  # characteristic 2, so den is 1
                    pairs += [(k + half, n) for k, n in low]
            else:
                low = below.entry(s - half, t) if s >= half else \
                    below.entry(s, t - half)
                den = below.den
                pairs = [(k + half, n) for k, n in low]
        # raise self.den to a multiple of den (over GF(p) both stay 1)
        g = math.gcd(den, *[n for _k, n in pairs])
        den //= g
        if self.den % den:
            grow = den // math.gcd(self.den, den)
            self.den *= grow
            for row in filter(None, self.rows):
                row[:] = [e and tuple((k, n * grow) for k, n in e)
                          for e in row]
        pairs = [(k, n // g * (self.den // den)) for k, n in pairs]
        entry = tuple(pairs)
        for a, b in ((s, t), (t, s)):
            (self.rows[a] or self.row(a))[b] = entry
        return entry

    def mul(self, xs, ys, times=operator.mul):
        """(numerators, den) of the sum of times(x, y) m_s m_t over the pairs
        (s, x) of xs and (t, y) of ys, as numerators / den: the product of
        two integer vectors given by their supports (_support), or with
        _int_dot the dot product of two split vectors (_rat_split).
        Over GF(p) den is 1 and the numerators are not reduced."""
        rows, fill = self.rows, self.fill
        while True:
            den = self.den
            acc = [0] * len(rows)
            for s, x in xs:
                row = rows[s] or self.row(s)
                for t, y in ys:
                    c = times(x, y)
                    if c:
                        for k, n in row[t] or fill(s, t):
                            acc[k] += c * n
            if den == self.den:
                return acc, den


def _int_dot(xv, yv):
    return sum(map(operator.mul, xv, yv))


def _raw_ops(ctx):
    if ctx.kind == "gfp" and not ctx.tower:
        return _FlatOps(ctx)
    if ctx.kind != "rational" and ctx.order() <= _TABLE_MAX_ORDER:
        return _TableOps(ctx)
    if ctx.kind == "gfp" and len(ctx.tower) == 1:
        return _PairOps(ctx)
    return _VectorOps(ctx)


# The tables of a finite context with q elements and a primitive element g.
# An element's index is the integer whose base-p digits, lowest first, are
# its coordinates over GF(p): Scalar.coords flattened, base coordinates
# first, so zero is 0 and one is 1.  coords lists Scalar.coords by index and
# index inverts it.  log[i] is the logarithm of the element i to the base g,
# in [0, q - 1), and log[0] is the sentinel 2(q - 1) - 1; exp[n] is the
# index of g^n for n below the sentinel and 0 from it on, so exp[log[a] +
# log[b]] is the product a b, a zero factor included.  zech[n] is log(1 +
# g^n) for n in [0, 2(q - 1)) (the sentinel where 1 + g^n = 0), so that
# negative differences of logarithms index it too; None in characteristic
# 2, where sums are XOR.  minus_one is the logarithm of -1.  Every table
# has O(q) entries.
_Tables = namedtuple("_Tables", "order coords index exp log zech minus_one")

def _build_tables(ctx):
    """The _Tables of a finite context: a primitive element is the first
    index whose powers, taken by _VectorOps on its digits over the
    denominator 1, reach q - 1 elements."""
    p, q, k = ctx.p, ctx.order(), ctx.base_degree
    units = q - 1
    # product() counts with its last digit fastest: reversed, the lowest
    flat = [(*t[::-1], 1)
            for t in itertools.product(range(p), repeat=ctx.dim * k)]
    digits = {d: i for i, d in enumerate(flat)}
    ops = _VectorOps(ctx)
    one = flat[1]
    for g in flat[1:]:
        powers, x = [1], g
        # bounded in case a zero divisor sends the powers to 0, never to 1
        while x != one and len(powers) < q:
            powers.append(digits[x])
            x = ops.mul(x, g)
        if len(powers) == units:
            break
    else:
        raise InternalDegenerate("no primitive element in %r" % (ctx,))
    sentinel = 2 * units - 1
    exp = (powers * 2)[:sentinel] + [0] * (2 * units)
    log = [sentinel] * q
    for n, i in enumerate(powers):
        log[i] = n
    zech = None
    if p != 2:
        # 1 + x adds 1 to the lowest digit of the index of x
        zech = [log[i - i % p + (i + 1) % p] for i in powers] * 2
    coords = [ops.to_coords(d) for d in flat]
    return _Tables(q, coords, {c: i for i, c in enumerate(coords)}, exp, log,
                   zech, 0 if p == 2 else units // 2)


# -- total order -------------------------------------------------------------

def canonical_compare(x, y):
    """Strict total order on scalars: -1, 0 or 1, in their common context.

    Lexicographic on coordinate vectors from the highest tower coordinate
    down; base coordinates use numeric order over Q and the integer
    representative order over GF (gfq tuples compared highest degree first).
    """
    x, y = x._pair(y)
    kx, ky = enumeration_key(x)[::-1], enumeration_key(y)[::-1]
    return (kx > ky) - (kx < ky)


# -- polynomials (raw coefficients of one context, low to high) ---------------

def _poly_trim(ops, p):
    while len(p) > 1 and p[-1] == ops.zero:
        p = p[:-1]
    return p or [ops.zero]


def _poly_axpy(ops, p, c, q):
    """p - c q."""
    n = max(len(p), len(q))
    return ops.axpy(p + [ops.zero] * (n - len(p)), c,
                    q + [ops.zero] * (n - len(q)))


def _poly_mulmod(ops, a, b, f):
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
    return _poly_trim(ops, out[:n])


def _poly_powmod(ops, base, e, f):
    """base^e mod monic f, for a base already reduced mod f."""
    return power(base, e, lambda x, y: _poly_mulmod(ops, x, y, f), [ops.one])


def _poly_divmod(ops, a, b):
    """Quotient and remainder of a by a nonzero b, dividing by b made monic
    and scaling the quotient back."""
    lead_inv = ops.inverse(b[-1])
    b = ops.scale(b, lead_inv)
    rem = _poly_trim(ops, list(a))
    quot = [ops.zero] * max(len(rem) - len(b) + 1, 1)
    while len(rem) >= len(b) and not (len(rem) == 1 and rem[0] == ops.zero):
        off = len(rem) - len(b)
        quot[off] = rem[-1]
        rem[off:] = ops.axpy(rem[off:], rem[-1], b)
        rem = _poly_trim(ops, rem[:-1])  # the top coefficient cancelled
    return ops.scale(quot, lead_inv), rem


def _poly_gcd(ops, a, b):
    """The monic gcd of a and b ([zero] when both are zero)."""
    a, b = _poly_trim(ops, list(a)), _poly_trim(ops, list(b))
    while not (len(b) == 1 and b[0] == ops.zero):
        a, b = b, _poly_divmod(ops, a, b)[1]
    if a[-1] != ops.zero:
        a = ops.scale(a, ops.inverse(a[-1]))
    return a


def frobenius_gcd(ops, f, e):
    """The monic gcd(f, X^e - X) of a polynomial f of degree >= 1 over a
    finite field, raw coefficients of the context of ops, with X^e mod f by
    square and multiply.

    For e = q, the order of the field, it is the product of X - r over the
    distinct roots r of f in the field (root finding).  Over GF(p), f of
    degree k is irreducible iff e = p^k gives f and e = p^(k/r) gives 1 for
    every prime r | k (Rabin, SIAM J. Comput. 9, 1980).
    """
    f = ops.scale(f, ops.inverse(f[-1]))
    x = [ops.zero, ops.one]
    return _poly_gcd(ops, f, _poly_axpy(ops, _poly_powmod(ops, x, e, f),
                                        ops.one, x))


# -- roots --------------------------------------------------------------------

def sqrt_or_adjoin(x, policy=EXTEND):
    """Return (r, ctx) with r*r == x, adjoining a square root if needed."""
    r = _root_or_adjoin(0, x, policy)
    return r, r.ctx


def artin_schreier_root_or_adjoin(a, policy=EXTEND):
    """Return (x, ctx) with x*x + x == a over characteristic 2."""
    if a.ctx.characteristic != 2:
        raise WrongCharacteristic("Artin-Schreier roots need characteristic 2")
    r = _root_or_adjoin(1, a, policy)
    return r, r.ctx


def _root_or_adjoin(c1, d, policy):
    """r with r^2 = c1 r + d: a root in d's context, else, unless the policy
    is strict, the generator of the record (c1, d) adjoined to it."""
    kind = RECORD_KINDS[c1]
    r = kind.find_root(d)
    if r is not None:
        return r
    if policy == STRICT:
        raise NoRootStrictPolicy(kind.no_root % (format_scalar(d), d.ctx))
    ctx2 = adjoin_record(d.ctx, c1, d, rootless=True)
    return ctx2.generator(len(ctx2.tower))


def quadratic_roots(a, b, c, policy):
    """The roots of a X^2 + b X + c, adjoining one root when policy allows.

    Outside characteristic 2: (-b + r)/2a and (-b - r)/2a, in that order,
    with r a square root of the discriminant.  In characteristic 2, one
    root: sqrt(c/a) when b = 0, else b y/a with y^2 + y = ac/b^2 (the
    substitution X = b Y/a).  For a = 0 the linear root, and for a = b = 0
    [0] when c = 0 and no root otherwise.  A root lives in the context its
    arithmetic gives, extended when a root had to be adjoined.  Under the
    strict policy a missing root raises NoRootStrictPolicy.
    """
    if a.is_zero():
        if b.is_zero():
            return [c] if c.is_zero() else []
        return [-c / b]
    if a.ctx.characteristic == 2:
        if b.is_zero():
            return [_root_or_adjoin(0, c / a, policy)]
        y = _root_or_adjoin(1, a * c / (b * b), policy)
        return [b * y / a]
    r = _root_or_adjoin(0, b * b - 4 * a * c, policy)
    two_a = a + a
    return [(r - b) / two_a, (-r - b) / two_a]


def _find_sqrt(x):
    """A square root of x in its own context, or None.

    Over GF(q), q odd, Euler's criterion (_is_finite_square) decides first,
    and Tonelli-Shanks takes the root of a square only."""
    ctx = x.ctx
    if x.is_zero():
        return x
    if ctx.kind == "rational":
        return _rational_tower_sqrt(x)
    q = ctx.order()
    if ctx.characteristic == 2:
        # squaring is a bijection of GF(q): its inverse is x -> x^(q/2)
        return Scalar(ctx, power(x.raw, q // 2, ctx.ops.mul, ctx.ops.one))
    if not _is_finite_square(ctx.ops, x.raw):
        return None
    return Scalar(ctx, _tonelli_shanks(ctx.ops, x.raw, q))


def _is_finite_square(ops, x):
    """Euler's criterion, x^((q-1)/2) = 1, for a nonzero raw value x of
    ops, a finite field of odd order q.

    In a tower above the table cap, x = a + b g with g^2 = d is a square
    iff its norm a^2 - d b^2 is one, one level down: for q = r^2,
    x^((q-1)/2) = (x^(r+1))^((r-1)/2) and x^(r+1) = x x^r is the norm.  So
    the test descends to the first level that is GF(p), where it is
    pow(x, (p-1)/2, p), a table field, where x is a square iff log x is
    even, or a GF(p^k) base, where it is the power itself."""
    while not ops.indexed and ops.level:
        x, ops = ops.norm(x)
    if not ops.indexed:
        return power(x, (ops.p ** ops.k - 1) // 2, ops.mul,
                     ops.one) == ops.one
    if isinstance(ops, _TableOps):
        return not ops.log[x] % 2
    return pow(x, (ops.p - 1) // 2, ops.p) == 1


def _rational_tower_sqrt(x):
    """Recursive square root search in a tower over Q; None if absent."""
    ctx = x.ctx
    level = len(ctx.tower)
    if level == 0:
        n, d = x.raw  # gcd(n, d) = 1, so a root (rn, rd) is normalized
        rn, rd = math.isqrt(max(n, 0)), math.isqrt(d)
        if n >= 0 and rn * rn == n and rd * rd == d:
            return Scalar(ctx, (rn, rd))
        return None
    half = 1 << (level - 1)
    # only square roots occur over Q (Artin-Schreier needs characteristic 2)
    (_c1, d), = adjunctions(ctx, level - 1)
    sub, g = d.ctx, ctx.generator(level)
    raw = x.raw
    lo = Scalar(sub, _rat_normalized(raw[:half], raw[-1]))
    hi = Scalar(sub, _rat_normalized(raw[half:-1], raw[-1]))
    if hi.is_zero():
        r = _rational_tower_sqrt(lo)
        if r is not None:
            return r.promote(ctx)
        r = _rational_tower_sqrt(lo / d)
        if r is not None:
            return g * r
        return None
    # y = a + b g, y^2 = (a^2 + b^2 d) + 2ab g = lo + hi g
    norm = lo * lo - d * hi * hi
    s = _rational_tower_sqrt(norm)
    if s is None:
        return None
    two = sub.scalar(2)
    for sign in (s, -s):
        bsq = (lo + sign) / (two * d)
        b = _rational_tower_sqrt(bsq)
        if b is not None and not b.is_zero():
            cand = hi / (two * b) + g * b
            if cand * cand == x:
                return cand
    return None


def _tonelli_shanks(ops, x, q):
    """A square root of the nonzero square x, a raw value of ops, in a
    finite field of odd order q; x must be a square (_is_finite_square).

    With q - 1 = 2^s m, m odd, u = x^((m-1)/2) gives the first guess
    r = x^((m+1)/2) = u x, and t = x^m = u r has order dividing 2^(s-1).
    For s = 1 (t = 1) the guess is the root; otherwise c = z^m, z a
    non-residue, corrects it.  c is computed once per field and kept on
    its context: z is the first non-square drawn from the seeded
    random_elements stream, so c, and the root, do not depend on which
    square root was taken first.
    """
    mul, one = ops.mul, ops.one
    m = q - 1
    s = 0
    while m % 2 == 0:
        m //= 2
        s += 1
    u = power(x, (m - 1) // 2, mul, one)
    r = mul(u, x)
    t = mul(u, r)
    if t == one:
        return r
    ctx = ops.ctx
    c = ctx._nonresidue
    if c is None:
        c = ctx._nonresidue = power(_non_residue(ops), m, mul, one)
    while t != one:
        t2 = t
        i = 0
        while t2 != one:
            t2 = mul(t2, t2)
            i += 1
        b = power(c, 1 << (s - i - 1), mul, one)
        r = mul(r, b)
        c = mul(b, b)
        t = mul(t, c)
        s = i
    return r


def _non_residue(ops):
    """The first non-square of random_elements in the context of ops: half
    the nonzero elements are non-residues, so it is drawn, not scanned for
    (in GF(p^2) the first p elements in iter_elements order are all
    squares)."""
    for z in itertools.islice(random_elements(ops.ctx), _NONRESIDUE_TRIES):
        if z.raw != ops.zero and not _is_finite_square(ops, z.raw):
            return z.raw
    raise InternalDegenerate("no quadratic non-residue in %d draws"
                             % _NONRESIDUE_TRIES)


def _artin_schreier_root(a):
    """A root of x^2 + x = a in a's context (characteristic 2), or None.

    x -> x^2 + x is additive, so it is GF(2)-linear on the coordinate vector
    over the prime field, and the equation is a linear system over GF(2).
    """
    ctx = a.ctx
    flat = ctx.kind == "gfp"
    k = ctx.base_degree
    n = ctx.dim * k

    def to_bits(s):
        return [v for c in s.coords for v in ((c,) if flat else c)]

    def from_bits(bits):
        chunks = [tuple(bits[i:i + k]) for i in range(0, n, k)]
        return ctx.element([c[0] for c in chunks] if flat else chunks)

    cols = []
    for j in range(n):
        e = from_bits([int(i == j) for i in range(n)])
        cols.append(to_bits(e * e + e))
    from .exactmat import ExactMatrix, solve  # exactmat imports this module
    gf2 = prime_field(2)
    sol, _kernel = solve(ExactMatrix(gf2, cols).transpose(),
                         ExactMatrix(gf2, [to_bits(a)]).transpose())
    if sol is None:
        return None
    return from_bits([sol[i, 0].raw for i in range(n)])


# The two kinds of record, indexed by c1: the name in JSON towers and in
# extension reports, the public method that adjoins one, the root finder of
# x^2 = c1 x + d, and the messages for a root that exists or is missing
# (each formatted with d and the context).
RecordKind = namedtuple("RecordKind",
                        "json report adjoin find_root has_root no_root")
RECORD_KINDS = (
    RecordKind("sqrt", "sqrt", "adjoin_sqrt", _find_sqrt,
               "%s is a square in %r: adjoining its square root does not "
               "give a field", "no square root of %s in %r"),
    RecordKind("as", "artin_schreier", "adjoin_artin_schreier",
               _artin_schreier_root,
               "x^2+x=%s has a root in %r: adjoining one does not give a "
               "field", "x^2+x=%s has no root in %r"),
)


def adjunctions(ctx, start=0):
    """The records of ctx from height start up, as (c1, d) pairs: the
    generator g of each has g^2 = c1 g + d, d a Scalar of the level below."""
    return [(c1, ctx.truncated(height).element(d))
            for height, (c1, d) in enumerate(ctx.tower[start:], start)]


def adjoin_record(ctx, c1, d, rootless=False):
    """ctx with the record (c1, d) adjoined.  It calls the kind's public
    method, adjoin_sqrt or adjoin_artin_schreier, so that a wrapper of that
    method sees every adjunction."""
    return getattr(ctx, RECORD_KINDS[c1].adjoin)(d, rootless)


# -- parsing and formatting ----------------------------------------------------

def format_scalar(x):
    """Canonical text form; format_scalar and parse_scalar round-trip."""
    ctx = x.ctx
    zero = ctx.zero().coords[0]
    terms = []
    for idx, c in enumerate(x.coords):
        if c != zero:
            terms.append(_format_base(ctx, c) + "".join(
                "*g%d" % (i + 1) for i in range(len(ctx.tower))
                if idx & (1 << i)))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def _format_base(ctx, c):
    if ctx.kind == "rational":
        if c.denominator == 1:
            return str(c.numerator)
        return "%d/%d" % (c.numerator, c.denominator)
    if ctx.kind == "gfp":
        return str(c)
    parts = []
    for i, v in enumerate(c):
        if v == 0:
            continue
        if i == 0:
            parts.append(str(v))
        elif i == 1:
            parts.append("%d*t" % v if v != 1 else "t")
        else:
            parts.append("%d*t^%d" % (v, i) if v != 1 else "t^%d" % i)
    if not parts:
        return "0"
    body = "+".join(parts)
    return "(%s)" % body if len(parts) > 1 or ctx.tower else body


# a token of space-free scalar text: n or n/d, g<i>, t or t^e, or one
# character
_TOKEN = re.compile(r"(\d+)(?:/(\d*))?|g(\d*)|t(?:\^(\d*))?|.", re.S)
_SIGNS = {"+": 1, "-": -1}


def parse_scalar(text, ctx):
    """Parse the scalar grammar in the given context: signed terms, a term
    factors joined by '*', a factor n or n/d, g<i>, t or t^e over GF(p^k),
    or a sum in parentheses; a sign may open the text or a parenthesis.
    One pass over the tokens keeps the sum around each open parenthesis on
    a stack, so nesting depth is unbounded.  Spaces are dropped, except
    inside a number or a generator name: "1 2" and "g 1" are refused, not
    read as 12 and g1."""
    words = [w for w in text.split(" ") if w]
    for left, right in zip(words, words[1:]):
        if right[0].isdigit() and (left[-1].isdigit() or left[-1] == "g"):
            raise ParseError("space inside a number or generator name in %r"
                             % text)
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty scalar text", 0)
    # state: "(" after an opening, where a sign may come, "*" where a factor
    # must, and "f" after a factor
    outer = []  # (total, term, sign, position) around each open parenthesis
    total, term, sign, state = ctx.zero(), None, 1, "("
    for tok in _TOKEN.finditer(s):
        ch, pos = tok[0], tok.start()
        if state != "f":
            if ch == "(":
                outer.append((total, term, sign, pos))
                total, term, sign, state = ctx.zero(), None, 1, "("
            elif state == "(" and ch in _SIGNS:
                sign, state = _SIGNS[ch], "*"
            else:
                value = _factor(tok, ctx)
                term, state = value if term is None else term * value, "f"
        elif ch == "*":
            state = "*"
        elif ch in _SIGNS:
            total = total + (term if sign == 1 else -term)
            term, sign, state = None, _SIGNS[ch], "*"
        elif ch == ")" and outer:
            value = total + (term if sign == 1 else -term)
            total, term, sign, _ = outer.pop()
            term = value if term is None else term * value
        else:
            raise ParseError("expected '+' or '-' in %r" % text, pos)
    if outer:
        raise ParseError("unbalanced parenthesis", outer[-1][3])
    if state != "f":
        raise ParseError("unexpected end of scalar text", len(s))
    return total + (term if sign == 1 else -term)


def _factor(tok, ctx):
    """The scalar of a factor token of parse_scalar; a token that is none
    is an unexpected character."""
    num, den, index, exp = tok.groups()
    pos = tok.start()
    if num is not None:
        num = int(num)  # int() refuses more than its digit limit
        if den is None:
            return ctx.scalar(num)
        if not den:
            raise ParseError("denominator expected", tok.start(2))
        den = int(den)
        if ctx.scalar(den).is_zero():
            raise ParseError("zero denominator %d in %r over %r"
                             % (den, tok[0], ctx), tok.start(2))
        return ctx.scalar(Fraction(num, den))
    if index == "":
        raise ParseError("generator needs an index", pos)
    if index is not None:
        index = int(index)
        if not 1 <= index <= len(ctx.tower):
            raise ParseError("no generator g%d in context" % index, pos)
        return ctx.generator(index)
    if tok[0][0] != "t":
        raise ParseError("unexpected character %r" % tok[0], pos)
    if ctx.kind != "gfq":
        raise ParseError("'t' only valid over GF(p^k)", pos)
    if exp == "":
        raise ParseError("exponent expected after '^'", tok.start(4))
    power, k = 1 if exp is None else int(exp), len(ctx.modulus)
    if k < 2:
        raise ParseError("'t' needs extension degree >= 2", pos)
    return ctx.base_element((0, 1) + (0,) * (k - 2)) ** power


# -- context merging -----------------------------------------------------------

def merge_contexts(dst, src):
    """Extend dst so that every adjunction of src has a root in it.

    Both contexts must share the base field.  Returns the merged context
    and the images there of src's generators, one per record: a record the
    two towers share (their common prefix) keeps its own generator, and the
    roots of the others are located (or adjoined) in src's tower order, so
    merging is deterministic.
    """
    if (dst.kind, dst.p, dst.modulus) != (src.kind, src.p, src.modulus):
        raise ContextMismatch("cannot merge towers over different bases")
    shared = next((h for h, (r, s) in enumerate(zip(dst.tower, src.tower))
                   if r != s), min(len(dst.tower), len(src.tower)))
    cur = dst
    images = [dst.generator(i) for i in range(1, shared + 1)]
    for c1, d in adjunctions(src, shared):
        r = _root_or_adjoin(c1, embed_scalar(d, cur, images), EXTEND)
        cur = r.ctx
        images.append(r)
    return cur, [g.promote(cur) for g in images]


def coordinate_map(src, dst, images):
    """The raw values of src mapped to dst's by the field map that fixes
    the base field and sends src's generators to images (scalars of
    prefixes of dst, one per record): sum c_S g_S goes to sum c_S g'_S, g'_S
    the product of the images of the generators in S.  The images of the
    monomials are formed once; an element index (at most 256 values) is
    mapped once by the ops, and an integer vector by one integer linear
    map, flat coordinate t^i g_S going to t^i g'_S over one denominator."""
    ops, src_ops = dst.ops, src.ops
    monomials = [ops.one]  # g'_S, S read as the bits of the index
    for g in images:
        monomials += [ops.mul(m, g.promote(dst).raw) for m in monomials]
    if src_ops.indexed:
        zero, pad = src.zero().coords[0], dst.zero().coords[1:]

        @functools.cache
        def mapped(x):
            total = ops.zero
            for c, m in zip(src_ops.to_coords(x), monomials):
                if c != zero:
                    total = ops.add(total,
                                    ops.mul(ops.from_coords((c, *pad)), m))
            return total
        return mapped
    # dst holds src, so both compute on integer vectors
    one, zero = (1,), ops.zero
    cols = [ops.mul(zero[:i] + one + zero[i + 1:], m) for m in monomials
            for i in range(src.base_degree)]
    den = math.lcm(*[c[-1] for c in cols])
    cols = [[n * (den // c[-1]) for n in c[:-1]] for c in cols]

    def mapped(x):
        nums = [0] * len(cols[0])
        for n, col in zip(x, cols):
            if n:
                nums = [a + n * b for a, b in zip(nums, col)]
        return ops.reduced(nums, x[-1] * den)
    return mapped


def embed_scalar(s, ctx, images):
    """s mapped into ctx by coordinate_map, images holding those of the
    generators of a context whose prefix s lives in."""
    src = s.ctx
    return Scalar(ctx, coordinate_map(src, ctx, images[:len(src.tower)])(s.raw))


# -- convenience constructors ---------------------------------------------------

def rationals(tower_cap=16):
    return FieldContext("rational", tower_cap=tower_cap)


def prime_field(p, tower_cap=16):
    return FieldContext("gfp", p, tower_cap=tower_cap)


def finite_field(p, modulus, tower_cap=16):
    """GF(p^k) with the given monic modulus X^k + c_{k-1}X^{k-1} + ... + c_0,
    passed as the low coefficient list (c_0, ..., c_{k-1}).

    The modulus must be irreducible over GF(p) (ValueError otherwise), or
    the quotient ring has zero divisors.
    """
    return FieldContext("gfq", p, tuple(modulus), tower_cap=tower_cap)


def _modulus_is_irreducible(p, modulus):
    """Rabin's test of the degree-k modulus f over GF(p) (frobenius_gcd)."""
    k = len(modulus)
    ops = prime_field(p).ops
    f = list(modulus) + [1]  # reduced ints: raw GF(p) coefficients
    return (frobenius_gcd(ops, f, p ** k) == f
            and all(len(frobenius_gcd(ops, f, p ** (k // r))) == 1
                    for r in range(2, k + 1) if k % r == 0 and _is_prime(r)))


def gf4(tower_cap=16):
    """GF(4) as GF(2)[t]/(t^2+t+1)."""
    return finite_field(2, (1, 1), tower_cap=tower_cap)

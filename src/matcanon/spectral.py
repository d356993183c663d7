"""Asymmetry of a non-degenerate form and its eigenvalue-based splitting.

For invertible A the asymmetry is S = A^{-1} A'.  Its minimal polynomial is
split into linear factors, extending the field by quadratic or Artin-Schreier
adjunctions where needed; the space then decomposes into generalized
eigenspaces, orthogonal except for the pairing of V_lam with V_{1/lam}.
Paired classes reduce to hyperbolic blocks ((0, J_m(lam)), (I, 0)).  A +-1
class carries S - eps on its basis B, I on its free rows, so S B is B times
its free rows; when eps is the only root B = I, and none is formed.
An automorphism sigma over S's field (that of A) sends ker (S - lam)^m onto
ker (S - sigma(lam))^m raw value for raw value, as elimination reads an
entry only as zero or nonzero; so one space is computed per orbit found,
over Q under the signed generator permutations that respect the records,
over GF(q) under the top record's conjugation.  For a simple root lam of
a cyclic S above S's field, V_lam = q(S) F^n, q = min_poly / (X - lam),
is read off S's Krylov matrices (Giesbrecht 1995); the rest is eliminated.
The search always extends: whether an answer beyond the input's field is
refused is decided once, in canon, on the split's and the answer's field.

Roots are taken one at a time: 1, else -1, else the least in the field.
A quadratic goes straight to field.quadratic_roots, one square root (or
Artin-Schreier root) whatever the field, and the preference picks among
the roots it returns.  Over GF(q) (a tower included) the roots of f of
degree >= 3 in the field are listed once per context: one search lists
them until an adjunction changes q.  S is similar to S^-1, so once 1 and
-1 are peeled f is usually a palindrome of degree 2k, f = X^k h(X + 1/X);
its roots are then those in the field of X^2 - mu X + 1 (square or
Artin-Schreier roots, under the strict policy) over the roots mu of h in
the field, which a quadratic h gives the same way.  The roots of h of
degree >= 3, or of f when it is no palindrome, are those of
g = gcd(h, X^q - X), which field.frobenius_gcd computes on raw values
(the routine of Rabin's irreducibility test, with another exponent).  g is
split into linear factors by Cantor-Zassenhaus: gcd(g, (X + a)^((q-1)/2)
- 1) for odd q, or gcd(g, Tr(aX) mod g) with Tr(Y) = Y + Y^2 + ... +
Y^(2^(m-1)) for q = 2^m, over shifts a drawn from field.random_elements.
The work is polynomial in log q, and the list is in iter_elements order
whatever the draws.

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

The splitting stages return bases and X, not the matrices these reach,
and do not check them (the eigen classes' orthogonality, the Jordan chains,
the hyperbolic normal form): a wrong one is caught where canon certifies
the composed congruence, against the canonical matrix it assembles once.
The raises left stop a bounded search, report a missing dependence or
inverse, and keep the roots closed under inversion, without which a defect
would be refused as NotSplit.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import cache, cmp_to_key, partial

from .errors import (InternalDegenerate, NoRootStrictPolicy, NotSplit,
                     SingularInput)
from .exactmat import ExactMatrix, first_dependence, inverse_or_rank, solve
from .field import (EXTEND, STRICT, Scalar, _is_prime, _poly_axpy,
                    _poly_divmod, _poly_gcd, _poly_mulmod, _poly_powmod,
                    _poly_trim, adjunctions, canonical_compare,
                    coordinate_map, enumeration_key, frobenius_gcd,
                    prime_field, quadratic_roots, random_elements)

# a shift splits a factor with two or more roots with probability about 1/2
# or better; 64 failures in a row mean the context is not a field
_SPLIT_TRIES = 64


class Asymmetry:
    """S = A^{-1}A' with its minimal polynomial and (optional) split roots.

    ctx is where the roots were found, which splitting may extend beyond
    the context of S; the arithmetic lifts S and its polynomial there.
    """

    def __init__(self, s, min_poly, ctx, split_roots=None):
        self.s = s
        self.min_poly = min_poly      # monic, low-to-high Scalar coefficients
        self.ctx = ctx
        self.split_roots = split_roots  # list of (root, multiplicity) or None


def asymmetry(a, ctx=None, s=None):
    """Asymmetry of an invertible Gram matrix, with exact minimal polynomial,
    both in a's field; ctx, a tower over it (a's own by default), is where
    the root search starts; s, if given, is S (asymmetry_or_kernel)."""
    if s is None:
        s = asymmetry_matrix(a)
    return Asymmetry(s, _minimal_polynomial(s), a.ctx if ctx is None else ctx)


def asymmetry_matrix(a):
    """S = A^{-1} A' for an invertible Gram matrix A; a singular A raises
    SingularInput."""
    s, _kernel = asymmetry_or_kernel(a)
    if s is None:
        raise SingularInput("asymmetry needs an invertible Gram matrix")
    return s


def asymmetry_or_kernel(a):
    """(S, A's right kernel) for a square A from the one elimination of
    [A | A'], solving A S = A': S and an empty kernel when A is invertible,
    else None and the kernel, A's own, as the pivots are searched in A's
    columns alone."""
    s, kernel = solve(a, a.transpose())
    return None if kernel.ncols else s, kernel


def _minimal_polynomial(s):
    """Monic minimal polynomial: the first dependence among I, S, S^2, ...

    The powers are formed one at a time and each, flattened, is reduced
    against the ones before it (exactmat.first_dependence), so a minimal
    polynomial of degree d costs d - 1 products, not the n of all powers up
    to S^n.
    """
    n = s.nrows

    def powers():
        yield ExactMatrix.identity(s.ctx, n)
        p = s
        for _ in range(n):  # S^n depends on I, ..., S^(n-1) (Cayley-Hamilton)
            yield p
            p = p @ s

    poly = first_dependence(powers())
    if poly is None:
        raise InternalDegenerate("I, S, ..., S^n are independent")
    return poly


# -- evaluation (coefficients low-to-high) ------------------------------------

def poly_eval(p, x):
    acc = x.ctx.zero()
    for c in reversed(p):
        acc = acc * x + c
    return acc


# -- root finding ------------------------------------------------------------------

def split_min_poly(asym):
    """Factor the minimal polynomial into linear factors, extending the field.

    Returns a new Asymmetry with split_roots filled and a possibly larger
    context; each root is searched for in the tower the one before it
    reached.  Raises NotSplit when a factor cannot be reached by quadratic
    (or Artin-Schreier) adjunctions.
    """
    ctx = asym.ctx
    work = [c.promote(ctx) for c in asym.min_poly]
    roots = []
    # None, or the roots of work in its context not yet peeled, least first:
    # X^q mod work is computed once per context, not once per root
    listed = None
    while len(work) >= 2:
        root, listed = _find_one_root(work, listed)
        ctx = root.ctx
        work = [c.promote(ctx) for c in work]
        work, mult = _extract_root(work, root)
        if mult == 0:
            raise InternalDegenerate("claimed root does not divide")
        roots.append((root, mult))
        # keep the remaining factor inversion-closed: the partner 1/root
        # lives in the same tower, so peel it now
        partner = root.inverse()
        if partner != root and len(work) > 1 \
                and poly_eval(work, partner).is_zero():
            work, mult2 = _extract_root(work, partner)
            roots.append((partner, mult2))
        listed = listed and [r for r in listed if r not in (root, partner)]
    _check_inverse_closed(roots)
    return Asymmetry(asym.s, asym.min_poly, ctx, split_roots=roots)


def _extract_root(work, root):
    """work / (X - root)^m for the largest such m, and m (one context)."""
    ctx = root.ctx
    raw, mult = [c.raw for c in work], 0
    while len(raw) > 1:
        quot, rem = _deflated(ctx.ops, raw, root.raw)
        if rem != ctx.ops.zero:
            break
        raw, mult = quot, mult + 1
    return [Scalar(ctx, c) for c in raw], mult


def _deflated(ops, raw, root):
    """(quotient, remainder) of a polynomial by X - root, by synthetic
    division: raw values of ops, coefficients low to high."""
    acc = [raw[-1]]  # the quotient, highest term first, then the remainder
    for c in reversed(raw[:-1]):
        acc.append(ops.add(c, ops.mul(root, acc[-1])))
    return acc[-2::-1], acc[-1]


def _check_inverse_closed(roots):
    for r, m in roots:
        rinv = r.inverse()
        found = [(s, k) for s, k in roots if s == rinv]
        if not found or found[0][1] != m:
            raise InternalDegenerate(
                "asymmetry roots are not closed under inversion")


def _find_one_root(poly, listed=None):
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
            listed, pal, mus = _listing(poly)
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
        mu = _preferred_root(mus, ctx) if mus else _find_one_root(pal)[0]
        # X^2 - mu X + 1 = 0
        one = mu.ctx.one()
        return _quadratic_roots([one, -mu, one], EXTEND)[0], None
    raise NotSplit("irreducible factor of degree %d is not reachable by "
                   "quadratic adjunctions" % (len(poly) - 1))


def _finite_field_roots(poly):
    """The distinct roots of a polynomial in the finite field ctx of its
    coefficients, in iter_elements order (see the module docstring for the
    method): through h with poly = X^k h(X + 1/X) when poly is a
    palindrome of degree 2k >= 4, each root mu of h giving the roots of
    X^2 - mu X + 1 in the field."""
    return _listing(poly)[0]


def _listing(poly):
    """(_finite_field_roots(poly), h and the roots mu of h it read, or None
    and None)."""
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
    """_finite_field_roots by gcd(poly, X^q - X) and Cantor-Zassenhaus."""
    ctx = poly[0].ctx
    ops = ctx.ops
    q = ctx.order()
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
            d = _poly_gcd(ops, h, _splitting_poly(ops, h, next(shifts), q))
            if 1 < len(d) < len(h):
                break
        else:
            raise InternalDegenerate("no shift split a degree-%d factor in "
                                     "%d tries" % (len(h) - 1, _SPLIT_TRIES))
        pending += [d, _poly_divmod(ops, h, d)[0]]
    return sorted((Scalar(ctx, r) for r in roots), key=enumeration_key)


def _splitting_poly(ops, h, a, q):
    """w with gcd(h, w) collecting the roots r of h (deg h >= 2) on one side
    of the shift a: (r + a)^((q-1)/2) = 1 for odd q, Tr(a r) = 0 for q = 2^m.
    """
    if q % 2:
        w = _poly_powmod(ops, [a, ops.one], (q - 1) // 2, h)
        return _poly_axpy(ops, w, ops.one, [ops.one])
    y = [ops.zero, a]  # aX, already reduced since deg h >= 2
    trace = y
    for _ in range(q.bit_length() - 2):  # m - 1 squarings
        y = _poly_mulmod(ops, y, y, h)
        trace = _poly_axpy(ops, trace, ops.one, y)  # - is + in char 2
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
            p_prev, p_cur = p_cur, _poly_axpy(ops, [ops.zero] + p_cur,
                                              ops.one, p_prev)
        g = _poly_axpy(ops, g, ops.neg(raw[k + j]), p_cur)
    return [Scalar(ctx, c) for c in _poly_trim(ops, g)]


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
    for r in _finite_field_roots([gf.scalar(c) for c in f]):
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
    d = _poly_gcd(ops, raw, [ops.from_int(c) for c in _derivative(f)])
    if len(d) == 1:
        return f
    raw = _poly_divmod(ops, raw, d)[0]  # (numerator, denominator) pairs
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
        if not _is_prime(p) or f[-1] % p == 0:
            continue
        gf = prime_field(p)
        fp, dfp = [c % p for c in f], [c % p for c in df]
        if len(_poly_gcd(gf.ops, fp, dfp)) == 1:
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
    a, b = x.numerator, x.denominator
    acc, b_power = 0, 1
    for c in reversed(f):
        acc = acc * a + c * b_power
        b_power *= b
    return acc == 0


# -- eigen splitting -----------------------------------------------------------------

# gram B'AB and operator S - eps on B (None when 1 x 1), in gram's field
UnipotentClass = namedtuple("UnipotentClass", "eigenvalue basis gram operator")
# basis spans V_lam (its first half) and V_1/lam; image is None, or (j, f)
# when the class is the image of classes[j], f the automorphism's matrix map
PairClass = namedtuple("PairClass", "lam lam_inv basis gram image")


def named_pair(lam):
    """The pair {lam, 1/lam} as (rep, other): rep, the one that names the
    pair, is the lesser by canonical_compare."""
    inv = lam.inverse()
    return (lam, inv) if canonical_compare(lam, inv) <= 0 else (inv, lam)


def eigen_split(a, asym):
    """Split into unipotent classes (eigenvalue +-1) and hyperbolic pairs.

    Returns the classes: their bases B side by side are X, and X'AX is the
    block diagonal of their Gram matrices B'AB (trimmed at +-1); canon tiles
    X, in its final context.  The +-1 eigenspaces are taken in S's field,
    each pair's in the field of S and its root: a pair class whose rep is
    sigma of an earlier class's rep takes sigma of its basis, V_1/lam is
    sigma of V_lam when sigma(lam) = 1/lam, and the other spaces are
    computed (_automorphisms, _eigenline).
    """
    n, s_ctx = a.nrows, asym.s.ctx
    one = s_ctx.one()
    roots = [r for r, _m in asym.split_roots]
    automorphisms = cache(lambda level: _automorphisms(level, s_ctx))
    krylov = cache(lambda j: asym.s.krylov(
        ExactMatrix.unit_column(s_ctx, n, j), n))

    def gen_eigenspace(lam):
        # the min-poly multiplicity bounds the nilpotency index on V_lam
        expo = next((m for r, m in asym.split_roots if r == lam), n)
        if expo == 1 and len(asym.min_poly) == n + 1 \
                and len(lam.trim().ctx.tower) > len(s_ctx.tower):
            return _eigenline(asym.min_poly, lam, krylov), None
        m = asym.s.minus_scalar(lam)
        ker = inverse_or_rank(m.power(expo), rank_only=True)
        return ker.kernel, [i for i in range(n) if i not in ker.pivots]

    def image(x, y):
        # the matrix map of a sigma of the field of x and y with sigma(x) = y
        level = x.ctx.common(y.ctx)
        x, y = x.promote(level).raw, y.promote(level).raw
        sigma = next((f for f in automorphisms(level) if f(x) == y), None)
        return sigma and (lambda m: m.promote(level).mapped(sigma, level))

    classes = []
    for eps in dict.fromkeys((one, -one)):  # one entry in characteristic 2
        if eps not in roots:
            continue
        if roots == [eps]:  # the class fills the core: basis I, Gram A
            basis, gram, op = ExactMatrix.identity(s_ctx, n), a.trim(), asym.s
        else:  # S B = B (S B)[free], as B is I on its free rows
            basis, free = gen_eigenspace(eps)
            gram = (basis.transpose() @ a @ basis).trim()
            op = (asym.s.submatrix(free, range(n)) @ basis
                  if len(free) > 1 else None)
        classes.append(UnipotentClass(eps, basis, gram, op.minus_scalar(
            eps).trim(len(gram.ctx.tower)) if gram.nrows > 1 else None))
    paired = []
    for r in roots:
        if r not in (one, -one) and not any(r in pr for pr in paired):
            paired.append(named_pair(r))
    paired.sort(key=lambda pr: cmp_to_key(canonical_compare)(pr[0]))
    for rep, other in paired:
        height = len(s_ctx.common(rep.ctx).tower)  # where it is eliminated
        found = next(((j, f) for j, cl in enumerate(classes)
                      if isinstance(cl, PairClass)
                      for f in [image(cl.lam, rep)] if f), None)
        if found:
            src = classes[found[0]]
            basis, gram = (found[1](m).trim(height)
                           for m in (src.basis, src.gram))
        else:
            basis, f = gen_eigenspace(rep)[0], image(rep, other)
            basis = ExactMatrix.blocks(basis.ctx, [[basis, (
                f(basis).trim(height) if f else gen_eigenspace(other)[0])]])
            gram = basis.transpose() @ a @ basis
        classes.append(PairClass(rep, other, basis, gram, found))

    if sum(cl.basis.ncols for cl in classes) != n:
        raise InternalDegenerate("generalized eigenspaces do not fill the "
                                 "space")
    return classes


def _eigenline(min_poly, lam, krylov):
    """ker (S - lam), lam a simple root of cyclic S's minimal polynomial: the
    first nonzero q(S) e_j = krylov(j) q, 1 at its last nonzero entry, for
    q = min_poly / (X - lam)."""
    ctx = lam.ctx
    q = _deflated(ctx.ops, [c.promote(ctx).raw for c in min_poly], lam.raw)[0]
    q = ExactMatrix(ctx, [[Scalar(ctx, c)] for c in q])
    v = next((v for j in range(q.nrows) for v in [krylov(j) @ q]
              if not v.is_zero()), None)
    if v is None:
        raise InternalDegenerate("q(S) e_j = 0 for every j")
    last = max(i for i in range(v.nrows) if not v[i, 0].is_zero())
    return v.scale(v[last, 0].inverse())


def _automorphisms(ctx, s_ctx):
    """The automorphisms of ctx over s_ctx that eigen_split tries, as raw
    maps: over a finite field the top record's conjugation, if above
    s_ctx; over Q each that sends every generator g_i above s_ctx to +-g_j,
    found generator by generator, j where the image of d_i is d_j (a ring
    map from a field is one to one, so no j is taken twice)."""
    h0, h = len(s_ctx.tower), len(ctx.tower)
    if ctx.kind != "rational":
        return [top_conjugation(ctx)] if h > h0 else []
    records = [d.promote(ctx).raw for _c1, d in adjunctions(ctx)]
    tables = [[(t, 1) for t in range(1 << h0)]]  # S's field is fixed
    for i in range(h0, h):
        tables = [table + [(t | 1 << j, s * sign) for t, s in table]
                  for table in tables for j in range(h0, h)
                  if _signed(table, records[i]) == records[j]
                  for sign in (1, -1)]
    return [partial(_signed, table) for table in tables]


def _signed(table, x):
    """x, a raw value of a Q tower, with g_S sent to sign g_T for (T, sign)
    = table[S]: a signed permutation of its numerators."""
    out = [0] * (len(x) - 1)
    for (t, sign), c in zip(table, x):
        out[t] = sign * c
    return (*out, x[-1])


def top_conjugation(ctx):
    """The raw map of the automorphism of ctx over the level below its top
    record g^2 = c1 g + d: it fixes g_1, ..., g_(h-1) and sends g = g_h to
    the other root c1 - g."""
    h = len(ctx.tower)
    c1 = ctx.tower[-1][0]
    images = [ctx.generator(i) for i in range(1, h)]
    return coordinate_map(ctx, ctx, images + [c1 - ctx.generator(h)])


# -- Jordan structure ---------------------------------------------------------------

def nilpotent_jordan_chains(nmat):
    """Jordan chains of a nilpotent matrix: a list of matrices with the
    columns v, Nv, ..., heights descending; deterministic."""
    ctx = nmat.ctx
    m = nmat.nrows
    if m == 0:
        return []
    kernels = [ExactMatrix.zeros(ctx, m, 0)]  # kernels[j]: a basis of ker N^j
    power = nmat
    heights = 0
    while True:
        ker = inverse_or_rank(power, rank_only=True).kernel
        kernels.append(ker)
        if ker.ncols == m:
            heights = len(kernels) - 1
            break
        power = power @ nmat
        if len(kernels) > m + 1:
            raise InternalDegenerate("matrix is not nilpotent")
    chains = []
    for h in range(heights, 0, -1):
        # new chain tops: the vectors of ker N^h independent of ker N^{h-1},
        # of the existing chains' elements of height h (chain[len - h]) and
        # of the tops already taken, i.e. the pivot columns among them
        below = [kernels[h - 1], *(c.columns([c.ncols - h])
                                   for c in chains if c.ncols >= h)]
        r = sum(b.ncols for b in below)
        pivots = inverse_or_rank(ExactMatrix.blocks(
            ctx, [[*below, kernels[h]]]), rank_only=True).pivots
        for p in pivots:
            if p >= r:
                top = kernels[h].columns([p - r])
                chains.append(nmat.krylov(top, h))
    chains.sort(key=lambda c: -c.ncols)
    return chains


# -- hyperbolic classes -------------------------------------------------------------

def hyperbolic_canonical(class_gram, lam):
    """Reduce one paired class to a direct sum of ((0, J_m(lam)), (I, 0)).

    class_gram is the Gram matrix on bases of V_lam and V_1/lam, ((0, U),
    (W, 0)) as both are isotropic; lam the chosen eigenvalue, whose side is
    Jordan-reduced by S = W^-1 U' on V_lam.  Returns (X, blocks): the
    block sizes m (Jordan sizes on the lam side) and X with X' class_gram X
    the block diagonal of hyperbolic_block_matrix(ctx, m, lam) over them,
    which canon builds once, as the target of its certificate.
    """
    ctx = class_gram.ctx
    n2, m = class_gram.nrows, class_gram.nrows // 2
    if m == 1:  # one G2(lam): the X the chains below give
        return ExactMatrix(ctx, [[1, 0],
                                 [0, class_gram[1, 0].inverse()]]), [1]
    pairing = class_gram.submatrix(range(m, n2), range(m))  # W
    # Jordan-reduce the lam side
    s_lam, kernel = solve(pairing, class_gram.submatrix(
        range(m), range(m, n2)).transpose())
    if kernel.ncols:
        raise InternalDegenerate("lam pairing is degenerate")
    chains = nilpotent_jordan_chains(s_lam.minus_scalar(lam))
    sizes = [c.ncols for c in chains]
    # reversed chains, highest power of N first; duals on the
    # inverse-eigenvalue side: f(t_j, s_i) = delta_ij; with P = (f(c_l, s_i))
    # for the inverse-side unit vectors c_l, the coordinates of t_j are row j
    # of P^{-1}
    smat = ExactMatrix.blocks(ctx, [[
        c.columns(range(c.ncols - 1, -1, -1)) for c in chains]])
    pinv = inverse_or_rank(pairing @ smat).inverse
    if pinv is None:
        raise InternalDegenerate("lam pairing is degenerate")
    x1 = ExactMatrix.block_diag(ctx, [smat, pinv.transpose()])
    # interleave into per-block hyperbolic cells: the s-side of each block,
    # then its t-side
    order = []
    off = 0
    for sz in sizes:
        order += [*range(off, off + sz), *range(m + off, m + off + sz)]
        off += sz
    return x1.columns(order), sizes


def hyperbolic_block_matrix(ctx, m, lam):
    """The canonical paired-class cell ((0, J_m(lam)), (I_m, 0))."""
    z = ExactMatrix.zeros(ctx, m, m)
    return ExactMatrix.blocks(ctx, [
        [z, ExactMatrix.jordan_block(ctx, m, lam)],
        [ExactMatrix.identity(ctx, m), z]])

"""Asymmetry of a non-degenerate form and its eigenvalue-based splitting.

For invertible A the asymmetry is S = A^{-1} A'.  Its minimal polynomial is
split into linear factors (extending the field by quadratic or
Artin-Schreier adjunctions when allowed); the space then decomposes into
generalized eigenspaces, orthogonal except for the pairing of V_lam with
V_{1/lam}.  Paired classes reduce to hyperbolic blocks ((0, J_m(lam)), (I, 0)).

Roots are taken one at a time: 1, else -1, else the least in the field.
A quadratic goes straight to field.quadratic_roots, one square root (or
Artin-Schreier root) whatever the field, and the preference picks among
the roots it returns.  Over GF(q) (a tower included) the roots of f of
degree >= 3 in the field are those of g = gcd(f, X^q - X), which
field.frobenius_gcd computes on raw values (the routine of Rabin's
irreducibility test, with another exponent) once per context: one search
lists the roots until an adjunction changes q.  g is split into linear
factors by Cantor-Zassenhaus: gcd(g, (X + a)^((q-1)/2) - 1) for odd q, or
gcd(g, Tr(aX) mod g) with Tr(Y) = Y + Y^2 + ... + Y^(2^(m-1)) for q = 2^m,
over shifts a drawn from field.random_elements.  The work is polynomial in
log q, and the list is in iter_elements order whatever the draws.

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
from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key

from .errors import (DegenerateRestriction, InternalDegenerate,
                     NoArtinSchreierRootStrict, NoRootStrictPolicy, NotSplit,
                     SingularInput)
from .exactmat import ExactMatrix, first_dependence, inverse_or_rank
from .field import (EXTEND, Scalar, _is_prime, _poly_axpy, _poly_divmod,
                    _poly_gcd, _poly_mulmod, _poly_powmod, _poly_trim,
                    canonical_compare, enumeration_key, frobenius_gcd,
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


def asymmetry(a, ctx=None):
    """Asymmetry of an invertible Gram matrix, with exact minimal polynomial,
    both in a's field; ctx, a tower over it (a's own by default), is where
    the root search starts."""
    s = asymmetry_matrix(a)
    return Asymmetry(s, _minimal_polynomial(s), a.ctx if ctx is None else ctx)


def asymmetry_matrix(a):
    """S = A^{-1} A' for an invertible Gram matrix A."""
    inv = inverse_or_rank(a).inverse
    if inv is None:
        raise SingularInput("asymmetry needs an invertible Gram matrix")
    return inv @ a.transpose()


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

def split_min_poly(asym, policy=EXTEND):
    """Factor the minimal polynomial into linear factors, extending if allowed.

    Returns a new Asymmetry with split_roots filled and a possibly larger
    context; each root is searched for in the tower the one before it
    reached.  Raises NotSplit when a factor cannot be reached by quadratic
    (or Artin-Schreier) adjunctions or the policy forbids extending.
    """
    ctx = asym.ctx
    work = [c.promote(ctx) for c in asym.min_poly]
    roots = []
    # None, or the roots of work in its context not yet peeled, least first:
    # X^q mod work is computed once per context, not once per root
    listed = None
    while len(work) >= 2:
        root, listed = _find_one_root(work, policy, listed)
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
    ops = ctx.ops
    raw, linear = [c.raw for c in work], [ops.neg(root.raw), ops.one]
    mult = 0
    while len(raw) > 1:
        quot, rem = _poly_divmod(ops, raw, linear)
        if rem != [ops.zero]:
            break
        raw, mult = quot, mult + 1
    return [Scalar(ctx, c) for c in raw], mult


def _check_inverse_closed(roots):
    for r, m in roots:
        rinv = r.inverse()
        found = [(s, k) for s, k in roots if s == rinv]
        if not found or found[0][1] != m:
            raise InternalDegenerate(
                "asymmetry roots are not closed under inversion")


def _find_one_root(poly, policy, listed=None):
    """One root of a monic polynomial whose coefficients share one context:
    1, else -1, else the least in that context, else one adjoined to it.
    listed, None or poly's roots there (least first), is returned with the
    root: found here if needed, None after an adjunction (q has changed)."""
    ctx = poly[0].ctx
    if len(poly) == 2:
        return -poly[0] / poly[1], listed
    if listed is None and len(poly) > 3:
        cand = next((c for c in (ctx.one(), -ctx.one())
                     if poly_eval(poly, c).is_zero()), None)
        if cand is None and ctx.kind != "rational":
            listed = _finite_field_roots(poly)
        elif cand is None and all(not c.trim().ctx.tower for c in poly):
            cand = _rational_root(poly)
        if cand is not None:
            return cand, None
    if listed:  # made when 1 and -1 were not roots, so neither is listed
        return listed[0], listed
    if len(poly) == 3:
        return _preferred_root(_quadratic_roots(poly, policy), ctx), None
    pal = _palindrome_transform(poly)
    if pal is not None:
        mu, _ = _find_one_root(pal, policy)
        # X^2 - mu X + 1 = 0
        one = mu.ctx.one()
        return _quadratic_roots([one, -mu, one], policy)[0], None
    raise NotSplit("irreducible factor of degree %d is not reachable by "
                   "quadratic adjunctions" % (len(poly) - 1))


def _finite_field_roots(poly):
    """The distinct roots of a polynomial in the finite field ctx of its
    coefficients, in iter_elements order (see the module docstring for the
    method)."""
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
    one adjoined to it (a square or Artin-Schreier root).  In characteristic
    2 the other root of r is r + c1, and r is double when c1 = 0."""
    c0, c1 = poly[0] / poly[2], poly[1] / poly[2]
    try:
        roots = quadratic_roots(c1.ctx.one(), c1, c0, policy)
    except NoArtinSchreierRootStrict:
        raise NotSplit("quadratic factor needs an Artin-Schreier "
                       "extension under strict policy")
    except NoRootStrictPolicy:
        raise NotSplit("quadratic factor has non-square discriminant "
                       "under strict policy")
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

UnipotentClass = namedtuple("UnipotentClass", "eigenvalue basis")
PairClass = namedtuple("PairClass", "lam lam_inv basis_lam basis_inv")
EigenSplit = namedtuple("EigenSplit", "classes x gram")


def eigen_split(a, asym):
    """Split into unipotent classes (eigenvalue +-1) and hyperbolic pairs.

    Returns EigenSplit(classes, x, gram) where gram = X'AX is the Gram
    matrix in the new basis (block diagonal across classes).  The +-1
    eigenspaces are taken in S's field, each pair's in the field of S and
    its root.
    """
    if asym.split_roots is None:
        raise InternalDegenerate("eigen_split needs split_roots")
    ctx = asym.ctx
    n = a.nrows
    one = asym.s.ctx.one()
    roots = [r for r, _m in asym.split_roots]

    def gen_eigenspace(lam):
        # the min-poly multiplicity bounds the nilpotency index on V_lam
        expo = next((m for r, m in asym.split_roots if r == lam), n)
        m = asym.s.minus_scalar(lam)
        return inverse_or_rank(m.power(expo), rank_only=True).kernel

    unipotent = []
    for eps in (one, -one):
        if any(r == eps for r in roots):
            basis = gen_eigenspace(eps)
            unipotent.append(UnipotentClass(eps, basis))
            if ctx.characteristic == 2:
                break  # +1 and -1 coincide
    paired = []
    seen = []
    for r in roots:
        if r == one or r == -one or any(r == s_ for s_ in seen):
            continue
        rinv = r.inverse()
        rep = r if canonical_compare(r, rinv) <= 0 else rinv
        other = rinv if rep == r else r
        seen.extend([r, rinv])
        paired.append((rep, other))
    paired.sort(key=lambda pr: cmp_to_key(canonical_compare)(pr[0]))
    classes = list(unipotent)
    for rep, other in paired:
        classes.append(PairClass(rep, other,
                                 gen_eigenspace(rep), gen_eigenspace(other)))

    bases = [[cl.basis] if isinstance(cl, UnipotentClass)
             else [cl.basis_lam, cl.basis_inv] for cl in classes]
    x = ExactMatrix.blocks(ctx, [[b for bs in bases for b in bs]])
    if x.ncols != n:
        raise NotSplit("generalized eigenspaces do not fill the space")
    gram = x.transpose() @ a @ x
    ends = list(itertools.accumulate(sum(b.ncols for b in bs) for bs in bases))
    diag = [gram.submatrix(range(o, e), range(o, e))
            for o, e in zip([0] + ends, ends)]
    if gram != ExactMatrix.block_diag(ctx, diag):
        raise InternalDegenerate("eigen classes failed to be orthogonal")
    return EigenSplit(classes, x, gram)


# -- restricted operators and Jordan structure -----------------------------------------

def restrict_operator(s, bmat):
    """Matrix of S on the span of the independent columns of B.

    One elimination T B = [I; 0] gives the coordinates T S B, whose rows
    below the first m must vanish.
    """
    m = bmat.ncols
    coords = inverse_or_rank(bmat, transform=True).transform @ (s @ bmat)
    if not coords.submatrix(range(m, s.nrows), range(m)).is_zero():
        raise InternalDegenerate("operator does not preserve the span")
    return coords.submatrix(range(m), range(m))


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
    if sum(c.ncols for c in chains) != m:
        raise InternalDegenerate("Jordan chains do not span")
    chains.sort(key=lambda c: -c.ncols)
    return chains


# -- hyperbolic classes -------------------------------------------------------------

HyperbolicResult = namedtuple("HyperbolicResult", "x blocks gram")


def hyperbolic_canonical(class_gram, s_class, lam, m_lam):
    """Reduce one paired class to a direct sum of ((0, J_m(lam)), (I, 0)).

    class_gram is the Gram matrix on (basis_lam, basis_inv); s_class the
    asymmetry restricted to the class in the same basis; lam the chosen
    eigenvalue whose side is Jordan-reduced; m_lam = dim V_lam.  Returns X
    with X' class_gram X the canonical matrix, the list of block sizes m
    (Jordan sizes on the lam side), and the canonical matrix itself.
    """
    ctx = class_gram.ctx
    n2 = class_gram.nrows
    m = m_lam
    if n2 != 2 * m:
        raise DegenerateRestriction("paired class dimensions differ")
    # Jordan-reduce the lam side
    s_lam = s_class.submatrix(range(m), range(m))
    nmat = s_lam.minus_scalar(lam)
    chains = nilpotent_jordan_chains(nmat)
    sizes = [c.ncols for c in chains]
    # reversed chains, highest power of N first; duals on the
    # inverse-eigenvalue side: f(t_j, s_i) = delta_ij; with P = (f(c_l, s_i))
    # for the inverse-side unit vectors c_l, the coordinates of t_j are row j
    # of P^{-1}
    smat = ExactMatrix.blocks(ctx, [[
        c.columns(range(c.ncols - 1, -1, -1)) for c in chains]])
    pinv = inverse_or_rank(
        class_gram.submatrix(range(m, n2), range(m)) @ smat).inverse
    if pinv is None:
        raise DegenerateRestriction("lam pairing is degenerate")
    x1 = ExactMatrix.block_diag(ctx, [smat, pinv.transpose()])
    g1 = x1.transpose() @ class_gram @ x1
    # interleave into per-block hyperbolic cells: the s-side of each block,
    # then its t-side
    order = []
    off = 0
    for sz in sizes:
        order += [*range(off, off + sz), *range(m + off, m + off + sz)]
        off += sz
    g2 = g1.submatrix(order, order)
    target = ExactMatrix.block_diag(ctx, [
        hyperbolic_block_matrix(ctx, sz, lam) for sz in sizes])
    if g2 != target:
        raise InternalDegenerate("hyperbolic normalization mismatch")
    return HyperbolicResult(x1.columns(order), sizes, g2)


def hyperbolic_block_matrix(ctx, m, lam):
    """The canonical paired-class cell ((0, J_m(lam)), (I_m, 0))."""
    z = ExactMatrix.zeros(ctx, m, m)
    return ExactMatrix.blocks(ctx, [
        [z, ExactMatrix.jordan_block(ctx, m, lam)],
        [ExactMatrix.identity(ctx, m), z]])

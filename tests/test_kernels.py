"""Cross-checks of the raw matmul and elimination kernels and of the raw
polynomial layer.

Every kernel result is compared with a naive reference written here on the
Scalar operators, over base fields and towers, on each of the four raw
paths: ints mod p (GF(p) itself), exp/log tables (finite fields of at most
256 elements), normalized integer vectors (Q and its towers, up to a
height-3 tower whose last records lie at level 1) and coordinate tuples
(larger finite fields).  The kernel rewraps its results without the checks
of ExactMatrix(), so every returned entry is also checked to be a Scalar of
the right context with canonical coordinates.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from matcanon import exactmat, field
from matcanon.errors import ContextMismatch, DimensionMismatch
from matcanon.exactmat import ExactMatrix, inverse_or_rank, solve
from matcanon.field import (Scalar, _CoordOps, _FlatOps, _poly_divmod,
                            _poly_gcd, _poly_mulmod, _poly_powmod, _poly_trim,
                            _RatOps, _raw_ops, _TableOps,
                            artin_schreier_root_or_adjoin, frobenius_gcd, gf4,
                            parse_scalar, prime_field, rationals)
from matcanon.spectral import restrict_operator


def _contexts():
    q = rationals()
    f3 = prime_field(3)
    f4 = gf4()
    _r, f4_as = artin_schreier_root_or_adjoin(f4.base_element((0, 1)))
    assert f4_as.tower  # t has no Artin-Schreier root in GF(4)
    f65521 = prime_field(65521)
    # the tower of the seed-1 small-batch case 18 of the benchmark: d2 and
    # d3 lie at level 1 (g3^2 = 214/3 - 3 g1), so products in it do not
    # reduce to rational squares
    q3 = q
    for d in ("796/3", "214/3+3*g1", "214/3-3*g1"):
        q3 = q3.adjoin_sqrt(parse_scalar(d, q3))
    return {
        "Q": q,
        "GF(2)": prime_field(2),
        "GF(3)": f3,
        "GF(4)": f4,
        "GF(65521)": f65521,
        # 17 is the least non-square mod 65521
        "GF(65521)(sqrt17)": f65521.adjoin_sqrt(f65521.scalar(17)),
        "Q(sqrt2)": q.adjoin_sqrt(q.scalar(2)),
        "Q+3 adjunctions": q3,
        "GF(3)(sqrt-1)": f3.adjoin_sqrt(f3.scalar(-1)),
        "GF(4)+AS": f4_as,
    }


CONTEXTS = _contexts()


def test_contexts_cover_every_raw_path():
    paths = {name: type(_raw_ops(ctx)) for name, ctx in CONTEXTS.items()}
    assert {name for name, ops in paths.items() if ops is _FlatOps} == \
        {"GF(2)", "GF(3)", "GF(65521)"}
    assert {name for name, ops in paths.items() if ops is _TableOps} == \
        {"GF(4)", "GF(3)(sqrt-1)", "GF(4)+AS"}
    assert {name for name, ops in paths.items() if ops is _RatOps} == \
        {"Q", "Q(sqrt2)", "Q+3 adjunctions"}
    assert {name for name, ops in paths.items() if ops is _CoordOps} == \
        {"GF(65521)(sqrt17)"}


@pytest.mark.parametrize("name", [n for n in sorted(CONTEXTS)
                                  if CONTEXTS[n].kind == "rational"])
def test_rational_raw_values_are_normalized(name):
    """A raw rational value is (n_0, ..., n_(dim-1), den) with den > 0 and
    gcd 1, so each element has one raw value: unwrap, every kernel result
    and the zero of the ops agree with it, and there is one raw zero."""
    ctx = CONTEXTS[name]
    ops = _raw_ops(ctx)
    rng = random.Random("normalized " + name)

    def check(x):
        assert type(x) is tuple and len(x) == ctx.dim + 1
        assert all(type(n) is int for n in x)
        assert x[-1] > 0 and math.gcd(*x) == 1

    a = rand_matrix(ctx, rng, 4, 4)
    raw = ops.unwrap(a.rows)
    products = ops.matmul(raw, ops.unwrap(a.transpose().rows))
    pivot = next(x for x in itertools.chain(*raw) if x != ops.zero)
    derived = [ops.scale(raw[1], pivot), ops.axpy(raw[1], pivot, raw[2]),
               ops.axpy(raw[1], ops.one, raw[1]), [ops.inverse(pivot)],
               [ops.neg(x) for x in raw[3]]] + products
    for x in itertools.chain(*raw, *derived):
        check(x)
        # the raw value of the element x denotes
        assert ops.unwrap(ops.wrap([[x]]))[0][0] == x
    check(ops.zero)
    check(ops.one)
    zeros = {x for x in itertools.chain(*derived)
             if ops.wrap([[x]])[0][0].is_zero()}
    assert zeros == {ops.zero}
    assert ops.unwrap([[ctx.zero(), -ctx.zero(), ctx.one() - ctx.one()]]) \
        == [[ops.zero] * 3]


def test_rational_tables_live_in_one_cache():
    """The monomial tables of the rational ops live in one module dict of
    field whose name ends in _cache, keyed by context key, which the bench
    empties before each measured pass; refilled, they give the same
    products."""
    ctx = CONTEXTS["Q+3 adjunctions"]
    ops = _raw_ops(ctx)
    assert [name for name, value in vars(field).items()
            if name.endswith("_cache") and isinstance(value, dict)
            and value.get(ctx._key) is ops.table] == ["_monomial_tables_cache"]
    a = rand_matrix(ctx, random.Random("cache"), 3, 3)
    before = coords((a @ a).rows)
    field._monomial_tables_cache.clear()
    assert coords((a @ a).rows) == before
    assert field._monomial_tables_cache[ctx._key] is not ops.table


def test_rational_tables_grow_by_use():
    """At the default tower cap of 16 a full table of g_S g_T would have
    2^32 slots: a product of two base elements there builds one row."""
    ctx = rationals()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        ctx = ctx.adjoin_sqrt(ctx.scalar(p), rootless=True)
    assert ctx.dim == 1 << 16
    a = ExactMatrix(ctx, [[Fraction(2, 3)]])
    tracemalloc.start()
    try:
        prod = a @ a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prod[0, 0] == ctx.scalar(Fraction(4, 9))
    assert peak < 64 << 20
    assert sum(row is not None for row in _raw_ops(ctx).table.rows) == 1


def rand_scalar(ctx, rng):
    """A random element, zero about one time in three."""
    if rng.random() < 1 / 3:
        return ctx.zero()
    total = ctx.zero()
    for idx in range(ctx.dim):
        if ctx.kind == "rational":
            coef = ctx.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        elif ctx.kind == "gfp":
            coef = ctx.scalar(rng.randrange(ctx.p))
        else:
            coef = ctx.scalar(tuple(rng.randrange(ctx.p)
                                    for _ in ctx.modulus))
        for bit in range(len(ctx.tower)):
            if idx >> bit & 1:
                coef = coef * ctx.generator(bit + 1)
        total = total + coef
    return total


def rand_matrix(ctx, rng, n, m):
    return ExactMatrix(ctx, [[rand_scalar(ctx, rng) for _ in range(m)]
                             for _ in range(n)])


def singular_square(ctx, rng, n):
    """n x n with its last row a combination of the first two."""
    rows = [list(r) for r in rand_matrix(ctx, rng, n, n).rows]
    c = rand_scalar(ctx, rng)
    rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
    return ExactMatrix(ctx, rows)


def shapes(ctx, rng):
    """(label, matrix) pairs: square, singular, rectangular and empty."""
    return [("square", rand_matrix(ctx, rng, 4, 4)),
            ("square", rand_matrix(ctx, rng, 3, 3)),
            ("singular", singular_square(ctx, rng, 4)),
            ("zero", ExactMatrix.zeros(ctx, 3, 3)),
            ("wide", rand_matrix(ctx, rng, 2, 5)),
            ("tall", rand_matrix(ctx, rng, 5, 2)),
            ("n x 0", ExactMatrix(ctx, [[], [], []])),
            ("0 x 0", ExactMatrix(ctx, [])),
            ("0 x 5", ExactMatrix.zeros(ctx, 0, 5)),
            ("0 x 3",
             ExactMatrix.zeros(ctx, 0, 5) @ rand_matrix(ctx, rng, 5, 3)),
            ("0 x 4", ExactMatrix.zeros(ctx, 4, 0).transpose())]


# -- naive Scalar-level references ---------------------------------------------

def ref_matmul(a, b):
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)),
                 a.ctx.zero()) for j in range(b.ncols)]
            for i in range(a.nrows)]


def ref_matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), a.ctx.zero())
            for row in a.rows]


def ref_rank(rows, ncols):
    work = [list(r) for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work))
                    if not work[i][c].is_zero()), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def ref_trim(p):
    while len(p) > 1 and p[-1].is_zero():
        p = p[:-1]
    return p


def ref_divmod(a, b):
    """Schoolbook long division of Scalar polynomials by a nonzero b."""
    ctx = b[-1].ctx
    rem = ref_trim(list(a))
    quot = [ctx.zero()] * max(len(rem) - len(b) + 1, 1)
    while len(rem) >= len(b) and not (len(rem) == 1 and rem[0].is_zero()):
        c = rem[-1] / b[-1]
        off = len(rem) - len(b)
        quot[off] = c
        rem = [x - c * b[i - off] if i >= off else x
               for i, x in enumerate(rem)]
        rem = ref_trim(rem[:-1]) if len(rem) > 1 else [ctx.zero()]
    return quot, rem


def ref_mul(a, b):
    prod = [a[0].ctx.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = prod[i + j] + x * y
    return prod


def ref_mulmod(a, b, f):
    return ref_divmod(ref_mul(a, b), f)[1]


def ref_powmod(base, e, f):
    """base^e mod f, squaring from the top bit of e down."""
    out = [f[-1].ctx.one()]
    for bit in bin(e)[2:]:
        out = ref_mulmod(out, out, f)
        if bit == "1":
            out = ref_mulmod(out, base, f)
    return out


def ref_gcd(a, b):
    a, b = ref_trim(list(a)), ref_trim(list(b))
    while not (len(b) == 1 and b[0].is_zero()):
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if not a[-1].is_zero() else a


# -- canonical form of returned entries -----------------------------------------

def assert_canonical(s, ctx):
    assert isinstance(s, Scalar)
    assert s.ctx == ctx
    assert isinstance(s.coords, tuple) and len(s.coords) == ctx.dim
    for c in s.coords:
        if ctx.kind == "rational":
            assert type(c) is Fraction
            assert c.denominator > 0
            assert math.gcd(c.numerator, c.denominator) == 1
        elif ctx.kind == "gfp":
            assert type(c) is int and 0 <= c < ctx.p
        else:
            assert type(c) is tuple and len(c) == len(ctx.modulus)
            assert all(type(v) is int and 0 <= v < ctx.p for v in c)


def assert_matrix_canonical(a, ctx, nrows, ncols):
    assert a.ctx == ctx
    assert (a.nrows, a.ncols) == (nrows, ncols)
    assert isinstance(a.rows, tuple)
    for row in a.rows:
        assert isinstance(row, tuple) and len(row) == ncols
        for e in row:
            assert_canonical(e, ctx)


def coords(rows):
    return [[e.coords for e in row] for row in rows]


# -- the checks ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_matmul_matches_reference(name):
    ctx = CONTEXTS[name]
    rng = random.Random("matmul " + name)
    for n, k, m in ((4, 4, 4), (3, 3, 3), (2, 5, 3), (5, 1, 2), (3, 2, 0),
                    (1, 6, 1)):
        a = rand_matrix(ctx, rng, n, k)
        b = rand_matrix(ctx, rng, k, m)
        c = a @ b
        assert_matrix_canonical(c, ctx, n, m)
        assert coords(c.rows) == coords(ref_matmul(a, b))
    empty = ExactMatrix(ctx, [])
    assert (empty @ empty).nrows == 0


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_inverse_or_rank_matches_reference(name):
    ctx = CONTEXTS[name]
    rng = random.Random("elim " + name)
    for _round in range(3):
        for label, a in shapes(ctx, rng):
            n, m = a.nrows, a.ncols
            res = inverse_or_rank(a)
            rank = ref_rank(a.rows, m)
            assert res.rank == rank == len(res.pivots), label
            assert len(res.kernel) == m - rank
            for v in res.kernel:
                assert len(v) == m
                for e in v:
                    assert_canonical(e, ctx)
                assert all(e.is_zero() for e in ref_matvec(a, v)), label
            assert ref_rank(res.kernel, m) == len(res.kernel)
            if n == m and rank == n:
                inv = res.inverse
                assert_matrix_canonical(inv, ctx, n, n)
                ident = ExactMatrix.identity(ctx, n)
                assert coords(ref_matmul(inv, a)) == coords(ident.rows)
                assert coords(ref_matmul(a, inv)) == coords(ident.rows)
            else:
                assert res.inverse is None
            # the transform reduces A to echelon form on the pivots
            t = inverse_or_rank(a, transform=True).transform
            assert_matrix_canonical(t, ctx, n, n)
            assert ref_rank(t.rows, n) == n
            reduced = ref_matmul(t, a)
            for i, pc in enumerate(res.pivots):
                column = [reduced[r][pc] for r in range(n)]
                assert all(e == (1 if r == i else 0)
                           for r, e in enumerate(column))
            assert all(e.is_zero() for row in reduced[rank:] for e in row)
            # rank_only reduces A alone: the same rank, kernel and pivots
            light = inverse_or_rank(a, rank_only=True)
            assert light.inverse is None and light.transform is None, label
            assert light.rank == res.rank and light.pivots == res.pivots
            for v in light.kernel:
                for e in v:
                    assert_canonical(e, ctx)
            assert [coords([v]) for v in light.kernel] == \
                [coords([v]) for v in res.kernel], label


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_solve_matches_reference(name):
    ctx = CONTEXTS[name]
    rng = random.Random("solve " + name)
    for _round in range(3):
        for label, a in shapes(ctx, rng):
            n, m = a.nrows, a.ncols
            x0 = [rand_scalar(ctx, rng) for _ in range(m)]
            for b in (ref_matvec(a, x0),
                      [rand_scalar(ctx, rng) for _ in range(n)]):
                part, kernel = solve(a, b)
                consistent = (ref_rank([list(r) + [v] for r, v
                                        in zip(a.rows, b)], m + 1)
                              == ref_rank(a.rows, m))
                assert (part is not None) == consistent, label
                if part is not None:
                    assert len(part) == m
                    for e in part:
                        assert_canonical(e, ctx)
                    assert ([e.coords for e in ref_matvec(a, part)]
                            == [e.coords for e in b])
                assert len(kernel) == m - ref_rank(a.rows, m)
                for v in kernel:
                    for e in v:
                        assert_canonical(e, ctx)
                    assert all(e.is_zero() for e in ref_matvec(a, v))


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_zero_row_shapes(name):
    """A matrix with no rows keeps its column count."""
    ctx = CONTEXTS[name]
    rng = random.Random("empty " + name)
    wide = ExactMatrix.zeros(ctx, 0, 5)
    assert_matrix_canonical(wide, ctx, 0, 5)
    assert_matrix_canonical(wide @ rand_matrix(ctx, rng, 5, 3), ctx, 0, 3)
    assert_matrix_canonical(ExactMatrix.zeros(ctx, 4, 0).transpose(),
                            ctx, 0, 4)
    assert_matrix_canonical(wide.transpose(), ctx, 5, 0)
    assert_matrix_canonical(rand_matrix(ctx, rng, 3, 4).submatrix([], [0, 2]),
                            ctx, 0, 2)
    assert_matrix_canonical(ExactMatrix(ctx, [[], []]) @ wide, ctx, 2, 5)
    assert len(inverse_or_rank(wide).kernel) == 5


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_empty_products_skip_the_kernel(name, monkeypatch):
    """A product with no rows, no inner dimension or no columns is the zero
    matrix of its shape, built without the raw kernel."""
    ctx = CONTEXTS[name]
    rng = random.Random("empty product " + name)
    pairs = ((ExactMatrix.zeros(ctx, 3, 0), ExactMatrix.zeros(ctx, 0, 4)),
             (rand_matrix(ctx, rng, 3, 2), ExactMatrix.zeros(ctx, 2, 0)),
             (ExactMatrix.zeros(ctx, 0, 2), rand_matrix(ctx, rng, 2, 3)))

    def no_kernel(_ctx):
        raise AssertionError("the raw kernel ran on an empty product")

    monkeypatch.setattr(exactmat, "_raw_ops", no_kernel)
    for a, b in pairs:
        c = a @ b
        assert_matrix_canonical(c, ctx, a.nrows, b.ncols)
        assert c.is_zero()


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_from_columns_keeps_its_shape(name):
    """from_columns gives nrows x len(cols), also when either is 0."""
    ctx = CONTEXTS[name]
    rng = random.Random("columns " + name)
    assert_matrix_canonical(ExactMatrix.from_columns(ctx, 3, []), ctx, 3, 0)
    assert_matrix_canonical(ExactMatrix.from_columns(ctx, 0, [[], []]),
                            ctx, 0, 2)
    a = rand_matrix(ctx, rng, 3, 2)
    cols = a.transpose().rows
    assert ExactMatrix.from_columns(ctx, 3, cols) == a
    with pytest.raises(DimensionMismatch):
        ExactMatrix.from_columns(ctx, 2, cols)
    ident = ExactMatrix.identity(ctx, 3)
    assert_matrix_canonical(restrict_operator(ident, []), ctx, 0, 0)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_power_matches_reference(name):
    ctx = CONTEXTS[name]
    rng = random.Random("power " + name)
    inputs = shapes(ctx, rng) + [("nilpotent",
                                  ExactMatrix.jordan_block(ctx, 4))]
    for label, a in inputs:
        n = a.nrows
        if not a.is_square():
            with pytest.raises(DimensionMismatch):
                a.power(2)
            continue
        ref = ExactMatrix.identity(ctx, n)
        for k in range(7):
            got = a.power(k)
            assert_matrix_canonical(got, ctx, n, n)
            assert coords(got.rows) == coords(ref.rows), (label, k)
            ref = ExactMatrix(ctx, ref_matmul(ref, a)) if n else ref
    # Scalar powers against repeated products, and one negative exponent
    for x in [rand_scalar(ctx, rng) for _ in range(3)] + [ctx.one()]:
        ref = ctx.one()
        for k in range(7):
            assert (x ** k).coords == ref.coords, (x, k)
            ref = ref * x
        if not x.is_zero():
            inv = x.inverse()
            assert (x ** -3).coords == (inv * inv * inv).coords, x
    # polynomial powers modulo a monic cubic against repeated products
    ops = _raw_ops(ctx)
    f = ops.unwrap([[rand_scalar(ctx, rng) for _ in range(3)]
                    + [ctx.one()]])[0]
    base = _poly_trim(ops, ops.unwrap([[rand_scalar(ctx, rng)
                                        for _ in range(3)]])[0])
    ref = [ops.one]
    for k in range(7):
        got = _poly_powmod(ops, base, k, f)
        assert got == ref, k
        ref = _poly_mulmod(ops, ref, base, f)


def rand_poly(ctx, rng, degree, monic=False):
    """A Scalar polynomial of the given degree (nonzero top coefficient)."""
    top = ctx.one() if monic else next(
        x for x in iter(lambda: rand_scalar(ctx, rng), None)
        if not x.is_zero())
    return [rand_scalar(ctx, rng) for _ in range(degree)] + [top]


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_polynomial_layer_matches_reference(name):
    """mulmod, powmod, divmod, gcd and frobenius_gcd on raw coefficients
    give the coefficients of the naive Scalar versions above, wrapped back
    as canonical scalars."""
    ctx = CONTEXTS[name]
    ops = _raw_ops(ctx)
    rng = random.Random("polynomials " + name)

    def raw(poly):
        return ops.unwrap([poly])[0]

    def back(coeffs):
        out = list(ops.wrap([coeffs])[0])
        for c in out:
            assert_canonical(c, ctx)
        return [c.coords for c in out]

    def want(poly):
        return [c.coords for c in poly]

    # X^e - X over Q is no Frobenius map, but it exercises the same layer
    e = ctx.order() or 7
    for _ in range(6):
        f = rand_poly(ctx, rng, rng.randint(1, 4), monic=True)
        a = ref_divmod(rand_poly(ctx, rng, rng.randint(0, 5)), f)[1]
        b = ref_divmod(rand_poly(ctx, rng, rng.randint(0, 5)), f)[1]
        assert back(_poly_mulmod(ops, raw(a), raw(b), raw(f))) == \
            want(ref_mulmod(a, b, f))
        # in the rational height-3 tower the coefficients of a^1000 mod f
        # have thousands of digits, and the Scalar reference alone takes
        # about 10 s: that tower stops at 12
        for k in (0, 1, 2, 5, 12) + ((1000,) if ctx.dim < 8 else ()):
            assert back(_poly_powmod(ops, raw(a), k, raw(f))) == \
                want(ref_powmod(a, k, f)), k
        num = rand_poly(ctx, rng, rng.randint(0, 7))
        den = rand_poly(ctx, rng, rng.randint(0, 3))
        quot, rem = _poly_divmod(ops, raw(num), raw(den))
        ref_quot, ref_rem = ref_divmod(num, den)
        assert (back(quot), back(rem)) == (want(ref_quot), want(ref_rem))
        common = rand_poly(ctx, rng, rng.randint(0, 2), monic=True)
        a2, b2 = ref_mul(a, common), ref_mul(b, common)
        assert back(_poly_gcd(ops, raw(a2), raw(b2))) == want(ref_gcd(a2, b2))
        g = rand_poly(ctx, rng, rng.randint(1, 4))
        x = [ctx.zero(), ctx.one()]
        xe = ref_powmod(ref_divmod(x, g)[1], e, g)
        ref = ref_gcd(g, [u - v for u, v in itertools.zip_longest(
            xe, x, fillvalue=ctx.zero())])
        assert back(frobenius_gcd(ops, raw(g), e)) == want(ref)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_krylov_matches_reference(name):
    ctx = CONTEXTS[name]
    rng = random.Random("krylov " + name)
    inputs = shapes(ctx, rng) + [("nilpotent",
                                  ExactMatrix.jordan_block(ctx, 4))]
    for label, a in inputs:
        n = a.nrows
        if not a.is_square():
            continue
        v = [rand_scalar(ctx, rng) for _ in range(n)]
        for length in range(6):
            got = a.krylov(v, length)
            assert_matrix_canonical(got, ctx, n, length)
            col = v
            for j in range(length):
                assert ([got[i, j].coords for i in range(n)]
                        == [e.coords for e in col]), (label, length, j)
                col = ref_matvec(a, col)


# -- the context rule: contexts meet in the arithmetic -------------------------

# (field, extension) pairs of CONTEXTS
EXTENSIONS = [("Q", "Q(sqrt2)"), ("GF(3)", "GF(3)(sqrt-1)"),
              ("GF(4)", "GF(4)+AS")]


@pytest.mark.parametrize("base, ext", EXTENSIONS)
def test_krylov_lives_in_the_common_context(base, ext):
    """A vector over an extension of M's field, and one that mixes entries
    of both with a field entry first, give the columns over the extension,
    the same as with everything promoted first."""
    small, big = CONTEXTS[base], CONTEXTS[ext]
    rng = random.Random("lift " + ext)
    a = rand_matrix(small, rng, 4, 4)
    wide = [rand_scalar(big, rng) for _ in range(4)]
    mixed = [rand_scalar(small, rng), rand_scalar(big, rng), small.zero(),
             big.generator(len(big.tower))]
    for v in (wide, mixed):
        for length in (1, 4):
            got = a.krylov(v, length)
            assert_matrix_canonical(got, big, 4, length)
            want = a.promote(big).krylov([e.promote(big) for e in v], length)
            assert coords(got.rows) == coords(want.rows)


@pytest.mark.parametrize("base, ext", EXTENSIONS)
def test_constructors_live_in_the_common_context(base, ext):
    """ExactMatrix(ctx, rows), from_columns and block_diag with entries
    over an extension of ctx give the matrix over the extension; promote
    still refuses to leave a context."""
    small, big = CONTEXTS[base], CONTEXTS[ext]
    rng = random.Random("construct " + ext)
    rows = [[rand_scalar(small, rng), 2, rand_scalar(big, rng)],
            [big.generator(len(big.tower)), small.one(), 0]]
    got = ExactMatrix(small, rows)
    assert_matrix_canonical(got, big, 2, 3)
    assert coords(got.rows) == coords(ExactMatrix(big, rows).rows)
    cols = [list(col) for col in got.transpose().rows]
    got = ExactMatrix.from_columns(small, 2, cols)
    assert_matrix_canonical(got, big, 2, 3)
    assert coords(got.rows) == coords(ExactMatrix(big, rows).rows)
    blocks = [rand_matrix(small, rng, 2, 2), rand_matrix(big, rng, 1, 2)]
    got = ExactMatrix.block_diag(small, blocks)
    want = ExactMatrix.block_diag(big, [b.promote(big) for b in blocks])
    assert_matrix_canonical(got, big, 3, 4)
    assert coords(got.rows) == coords(want.rows)
    with pytest.raises(ContextMismatch):
        got.promote(small)


@pytest.mark.parametrize("base, ext", EXTENSIONS)
def test_minus_scalar_is_m_minus_c_identity(base, ext):
    """M - cI changes the diagonal alone, in the common context of M and c."""
    small, big = CONTEXTS[base], CONTEXTS[ext]
    a = rand_matrix(small, random.Random("shift " + ext), 3, 3)
    for c in (big.generator(len(big.tower)), small.scalar(2), 2):
        want = a - ExactMatrix.identity(small, 3).scale(c)
        assert_matrix_canonical(a.minus_scalar(c), want.ctx, 3, 3)
        assert coords(a.minus_scalar(c).rows) == coords(want.rows)

"""Cross-checks of the raw matmul and elimination kernels and of the raw
polynomial layer.

Every kernel result is compared with a naive reference written here on the
Scalar operators, over base fields and towers, on each of the three raw
paths: ints mod p (GF(p) itself), exp/log tables (finite fields of at most
256 elements) and integer vectors over a denominator (Q and its towers, up
to a height-3 tower whose last records lie at level 1, and the larger
finite fields: towers over GF(p) and GF(4) up to height 3, and a GF(p^2)
base), whose height-1 towers over GF(p) multiply by the record's closed
form.  The kernel builds its result matrices on raw values without
the checks of ExactMatrix(), so every returned entry is also read out and
checked to be a Scalar of the right context with canonical coordinates.  The raw value
of an int and the building of ops once per context instance are checked
here too.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from matcanon import field
from matcanon.errors import (ContextMismatch, DimensionMismatch,
                             InternalDegenerate, SingularInput)
from matcanon.exactmat import (ExactMatrix, first_dependence,
                               inverse_or_rank, solve)
from matcanon.field import (Scalar, _ByteRows, _FlatOps, _PairOps,
                            _TableOps, _VectorOps, adjunctions,
                            artin_schreier_root_or_adjoin, finite_field,
                            gf4, parse_scalar, prime_field,
                            rationals, sqrt_or_adjoin)
from matcanon.poly import divide, frobenius_gcd, gcd, mulmod, powmod, trim
from matcanon.spectral import asymmetry_matrix
from matcanon.unipotent import _module_duals, _restricted


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
    # GF(3^8): -1, 1 + g1 and g2 have no square roots where they are
    # adjoined, and GF(9) and GF(81) below it compute on tables
    f6561 = f3
    for d in ("-1", "1+g1", "g2"):
        f6561 = f6561.adjoin_sqrt(parse_scalar(d, f6561))
    # 17 is the least non-square mod 65521 and no fourth power
    big2 = f65521.adjoin_sqrt(f65521.scalar(17))
    # GF(4^8) by three Artin-Schreier roots, GF(256) below it on tables
    f4_as3 = f4_as
    for _ in range(2):
        f4_as3 = f4_as3.adjoin_artin_schreier(next(
            x for x in f4_as3.iter_elements()
            if field._artin_schreier_root(x) is None))
    return {
        "Q": q,
        "GF(2)": prime_field(2),
        "GF(3)": f3,
        "GF(4)": f4,
        "GF(65521)": f65521,
        # 17 is the least non-square mod 65521
        "GF(65521)(sqrt17)": big2,
        "GF(65521) height 2": big2.adjoin_sqrt(big2.generator(1)),
        # the same field as a base, t^2 = 17: vectors mod p at height 0
        "GF(65521^2)": finite_field(65521, (65521 - 17, 0)),
        "GF(3) height 3": f6561,
        "GF(4)+3 AS": f4_as3,
        "Q(sqrt2)": q.adjoin_sqrt(q.scalar(2)),
        "Q+3 adjunctions": q3,
        "GF(3)(sqrt-1)": f3.adjoin_sqrt(f3.scalar(-1)),
        "GF(4)+AS": f4_as,
    }


CONTEXTS = _contexts()


def test_contexts_cover_every_raw_path():
    paths = {name: type(ctx.ops) for name, ctx in CONTEXTS.items()}
    assert {name for name, ops in paths.items() if ops is _FlatOps} == \
        {"GF(2)", "GF(3)", "GF(65521)"}
    assert {name for name, ops in paths.items() if ops is _TableOps} == \
        {"GF(4)", "GF(3)(sqrt-1)", "GF(4)+AS"}
    # the height-1 closed form over GF(p), on the raw values of _VectorOps
    assert {name for name, ops in paths.items() if ops is _PairOps} == \
        {"GF(65521)(sqrt17)"}
    assert {name for name, ops in paths.items() if ops is _VectorOps} == \
        {"Q", "Q(sqrt2)", "Q+3 adjunctions", "GF(65521) height 2",
         "GF(65521^2)", "GF(3) height 3", "GF(4)+3 AS"}
    # eliminations on bytes: GF(p) for p <= 13 and the table fields of
    # characteristic 2; every other context reduces its raw rows, or over
    # Q itself integer rows
    assert {name for name, ctx in CONTEXTS.items()
            if isinstance(ctx.ops.work, _ByteRows)} == \
        {"GF(2)", "GF(3)", "GF(4)", "GF(4)+AS"}
    assert all(ctx.ops.work is ctx.ops for name, ctx in CONTEXTS.items()
               if name not in {"Q", "GF(2)", "GF(3)", "GF(4)", "GF(4)+AS"})


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_scalar_of_an_int_is_its_element(name):
    """ctx.scalar(n) builds the raw value of n directly: the same value as
    the element with the coordinates of n, on every raw path."""
    ctx = CONTEXTS[name]
    p = ctx.p
    for n in (0, 1, -1, p, -p - 1, 10 ** 20):
        if ctx.kind == "rational":
            base = Fraction(n)
        elif ctx.kind == "gfp":
            base = n % p
        else:
            base = (n % p,) + (0,) * (len(ctx.modulus) - 1)
        want = ctx.element([base] + [ctx.zero().coords[0]] * (ctx.dim - 1))
        got = ctx.scalar(n)
        assert got.ctx is ctx and got.raw == want.raw, n
        assert type(got.raw) is type(want.raw) and got.coords == want.coords


def test_ops_are_built_once_per_context(monkeypatch):
    """truncated returns the same prefix instance at every call, so along a
    tower of height 3 over Q and over GF(65521) trimming, hashing, inverses,
    promotion and reading the records build the ops of each of the four
    contexts once.  The field memo starts empty, so that every field of the
    towers is new."""
    monkeypatch.setattr(field, "_fields_cache", {})
    builds = []
    build = field._raw_ops
    monkeypatch.setattr(field, "_raw_ops",
                        lambda ctx: builds.append(ctx) or build(ctx))
    for field_of, records in ((rationals, ("2", "3", "5")),
                              (lambda: prime_field(65521),
                               ("17", "g1", "g2"))):
        builds.clear()
        tower = [field_of()]
        for d in records:
            tower.append(sqrt_or_adjoin(parse_scalar(d, tower[-1]))[1])
        top = tower[-1]
        x = sum((top.generator(i) * (i + 1) for i in (1, 2, 3)),
                top.scalar(7))
        for _ in range(2):
            for ctx in tower:
                low = ctx.generator(len(ctx.tower)) if ctx.tower \
                    else ctx.scalar(3)
                assert low.promote(top).trim() == low
                assert hash(low) == hash(low.promote(top))
                assert (x * low).inverse() * x == low.inverse()
                assert [d.ctx for _c1, d in adjunctions(ctx)] == tower[
                    :len(ctx.tower)]
            assert all(top.truncated(h) is tower[h] for h in range(4))
        assert [id(ctx) for ctx in builds] == [id(ctx) for ctx in tower]


@pytest.mark.parametrize("name", [n for n in sorted(CONTEXTS)
                                  if isinstance(CONTEXTS[n].ops, _VectorOps)])
def test_rational_raw_values_are_normalized(name):
    """A raw value of integer vectors is (n_0, ..., n_(N-1), den), one
    numerator per coordinate over the prime field, normalized by the
    coefficient rule: over Q den > 0 and gcd 1, over GF(p) den = 1 and every
    numerator in [0, p).  So each element has one raw value: the raw values
    of Scalars, every kernel result and the zero of the ops agree with it,
    and there is one raw zero."""
    ctx = CONTEXTS[name]
    ops = ctx.ops
    rng = random.Random("normalized " + name)

    def check(x):
        assert type(x) is tuple
        assert len(x) == ctx.dim * ctx.base_degree + 1
        assert all(type(n) is int for n in x)
        if ctx.p:
            assert x[-1] == 1 and all(0 <= n < ctx.p for n in x[:-1])
        else:
            assert x[-1] > 0 and math.gcd(*x) == 1

    a = rand_matrix(ctx, rng, 4, 4)
    raw = [[e.raw for e in row] for row in a.rows]
    cols = [[e.raw for e in c] for c in a.transpose().rows]
    products = ops.matmul(raw, cols)
    pivot = next(x for x in itertools.chain(*raw) if x != ops.zero)
    derived = [ops.scale(raw[1], pivot), ops.axpy(raw[1], pivot, raw[2]),
               ops.axpy(raw[1], ops.one, raw[1]), [ops.inverse(pivot)],
               [ops.neg(x) for x in raw[3]]] + products
    for x in itertools.chain(*raw, *derived):
        check(x)
        # the raw value of the element x denotes, read back from its
        # coordinates
        assert ops.from_coords(ops.to_coords(x)) == x
    check(ops.zero)
    check(ops.one)
    # an element is zero when its numerators are
    zeros = {x for x in itertools.chain(*derived) if not any(x[:-1])}
    assert zeros == {ops.zero}
    zero = (0,) * ctx.base_degree if ctx.kind == "gfq" else 0
    assert [e.raw for e in (ctx.zero(), -ctx.zero(), ctx.one() - ctx.one(),
                            ctx.element([zero] * ctx.dim))] == [ops.zero] * 4


def test_rational_tables_live_in_one_cache(monkeypatch):
    """The monomial table of the rational ops is kept on the field's one
    instance, which the field memo, field._fields_cache, holds: the one
    module dict of field whose name ends in _cache, which the bench empties
    before each measured pass.  A field built after that is a new instance
    with a table of its own, and the same products."""
    ctx = CONTEXTS["Q+3 adjunctions"]
    ops = ctx.ops
    assert ops.table is ctx.monomials
    assert ops.table.below is ctx.truncated(2).monomials
    assert [name for name, value in vars(field).items()
            if name.endswith("_cache") and isinstance(value, dict)
            and ctx in value.values()] == ["_fields_cache"]
    a = rand_matrix(ctx, random.Random("cache"), 3, 3)
    before = coords((a @ a).rows)
    monkeypatch.setattr(field, "_fields_cache", {})
    fresh = rationals()
    for c1, d in field.adjunctions(ctx):
        fresh = field.adjoin_record(fresh, c1, d.promote(fresh), rootless=True)
    assert fresh == ctx and fresh is not ctx
    b = ExactMatrix(fresh, [[fresh.element(e.coords) for e in row]
                            for row in a.rows])
    assert coords((b @ b).rows) == before
    assert fresh.ops.table is fresh.monomials is not ops.table


def test_two_calls_build_each_field_once(monkeypatch):
    """Two calls that adjoin the same records reach the same instances: the
    ops of each field are built once, in the first call, and the second
    builds none."""
    from matcanon import canonicalize
    monkeypatch.setattr(field, "_fields_cache", {})
    builds = []
    build = field._raw_ops
    monkeypatch.setattr(field, "_raw_ops",
                        lambda ctx: builds.append(ctx) or build(ctx))
    for base, rows in ((rationals(), [[1, 1], [-1, 1]]),
                       (prime_field(3), [[1, 1], [-1, 1]]),
                       (prime_field(65521), [[1, 12], [3, 1]])):
        a = ExactMatrix(base, rows)
        builds.clear()
        form, _wit = canonicalize(a)
        assert form.context.tower, base
        first = list(builds)
        assert len({ctx._key for ctx in first}) == len(first)
        assert form.context in first
        again, _wit = canonicalize(a)
        assert builds == first
        assert again.context is form.context


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
    assert sum(row is not None for row in ctx.ops.table.rows) == 1


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


def columns_matrix(ctx, nrows, cols):
    """The nrows x len(cols) matrix with these columns of Scalars."""
    if not nrows:
        return ExactMatrix.zeros(ctx, 0, len(cols))
    return ExactMatrix(ctx, [[col[i] for col in cols] for i in range(nrows)])


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
            kernel = res.kernel
            assert_matrix_canonical(kernel, ctx, m, m - rank)
            assert all(e.is_zero() for row in ref_matmul(a, kernel)
                       for e in row), label
            assert ref_rank(kernel.transpose().rows, m) == m - rank
            if n == m and rank == n:
                inv = res.inverse
                assert_matrix_canonical(inv, ctx, n, n)
                ident = ExactMatrix.identity(ctx, n)
                assert coords(ref_matmul(inv, a)) == coords(ident.rows)
                assert coords(ref_matmul(a, inv)) == coords(ident.rows)
            else:
                assert res.inverse is None
            # rank_only reduces A alone: the same rank, kernel and pivots
            light = inverse_or_rank(a, rank_only=True)
            assert light.inverse is None, label
            assert light.rank == res.rank and light.pivots == res.pivots
            assert_matrix_canonical(light.kernel, ctx, m, m - rank)
            assert coords(light.kernel.rows) == coords(kernel.rows), label


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_solve_matches_reference(name):
    """One right-hand side, several, none, and a mix of consistent and
    inconsistent columns: the particular solution exists exactly when every
    column is consistent, and its columns are the one-column solutions."""
    ctx = CONTEXTS[name]
    rng = random.Random("solve " + name)
    for _round in range(3):
        for label, a in shapes(ctx, rng):
            n, m = a.nrows, a.ncols
            rank = ref_rank(a.rows, m)
            cols = [ref_matvec(a, [rand_scalar(ctx, rng) for _ in range(m)])
                    for _ in range(2)]
            cols.append([rand_scalar(ctx, rng) for _ in range(n)])
            fits = [ref_rank([list(r) + [v] for r, v in zip(a.rows, col)],
                             m + 1) == rank for col in cols]
            for picked in ([0], [2], [0, 1], [1, 2, 0], []):
                b = columns_matrix(ctx, n, [cols[j] for j in picked])
                part, kernel = solve(a, b)
                assert (part is not None) == all(fits[j] for j in picked), \
                    label
                if part is not None:
                    assert_matrix_canonical(part, ctx, m, len(picked))
                    for row in part.rows:
                        for e in row:
                            assert_canonical(e, ctx)
                    assert coords(ref_matmul(a, part)) == coords(b.rows)
                    for c, j in enumerate(picked):
                        one = solve(a, columns_matrix(ctx, n, [cols[j]]))[0]
                        assert one == part.submatrix(range(m), [c]), label
                assert_matrix_canonical(kernel, ctx, m, m - rank)
                assert all(e.is_zero() for row in ref_matmul(a, kernel)
                           for e in row)


def rand_invertible(ctx, rng, n):
    while True:
        a = rand_matrix(ctx, rng, n, n)
        if inverse_or_rank(a, rank_only=True).rank == n:
            return a


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_solves_match_invert_then_multiply(name):
    """The stages' products with an inverse are one solve each: the
    asymmetry A^-1 A' and the pair reduction's duals chain P'^-1 give the
    raw values of the inverse formed and multiplied, on invertible
    systems; on a singular one both are refused.  The operator on an
    invariant span with a kernel basis, I on its free rows, is read off
    those rows of S B with no inverse, and gives the same raw values."""
    ctx = CONTEXTS[name]
    rng = random.Random("invert then multiply " + name)
    for _round in range(3):
        a = rand_invertible(ctx, rng, 4)
        s = asymmetry_matrix(a)
        assert s.raw == (inverse_or_rank(a).inverse @ a.transpose()).raw
        # a span invariant under S: a Krylov space, and the span of e_0,
        # e_1 under a block upper triangular S, in a scrambled basis
        tri = ExactMatrix.blocks(ctx, [
            [rand_matrix(ctx, rng, 2, 4)],
            [ExactMatrix.zeros(ctx, 2, 2), rand_matrix(ctx, rng, 2, 2)]])
        v = rand_matrix(ctx, rng, 4, 1)
        spans = [(s, s.krylov(v, inverse_or_rank(
                     s.krylov(v, 4), rank_only=True).rank)),
                 (tri, ExactMatrix.identity(ctx, 4).columns([0, 1])
                  @ rand_invertible(ctx, rng, 2))]
        for op, span in spans:
            # the span as the kernel basis B of its annihilator, as the
            # complements of the unipotent peel are, with its free rows
            ker = inverse_or_rank(inverse_or_rank(
                span.transpose(), rank_only=True).kernel.transpose(),
                rank_only=True)
            b, free = ker.kernel, [i for i in range(4) if i not in ker.pivots]
            # B's independent rows give the coordinates B_rows^-1 (S B)_rows
            rows = inverse_or_rank(b.transpose(), rank_only=True).pivots
            cols = range(b.ncols)
            old = inverse_or_rank(b.submatrix(rows, cols)).inverse @ (
                op @ b).submatrix(rows, cols)
            assert _restricted(op, b, free).raw == old.raw
        g = rand_matrix(ctx, rng, 4, 4)
        shift = rand_matrix(ctx, rng, 4, 4)
        gen = rand_matrix(ctx, rng, 4, 1)
        for k in (1, 2, 3):
            targets = rand_matrix(ctx, rng, 4, k)
            chain = shift.krylov(gen, k)
            pinv = inverse_or_rank(chain.transpose() @ g @ targets).inverse
            if pinv is None:
                with pytest.raises(InternalDegenerate):
                    _module_duals(g, chain, targets)
            else:
                assert _module_duals(g, chain, targets).raw == \
                    (chain @ pinv.transpose()).raw
    with pytest.raises(SingularInput):
        asymmetry_matrix(singular_square(ctx, rng, 3))


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
    assert_matrix_canonical(inverse_or_rank(wide).kernel, ctx, 5, 5)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_empty_products_skip_the_kernel(name, monkeypatch):
    """A product with no rows, no inner dimension or no columns is the zero
    matrix of its shape, built without the raw kernel (the matmul of the
    context's ops)."""
    ctx = CONTEXTS[name]
    rng = random.Random("empty product " + name)
    pairs = ((ExactMatrix.zeros(ctx, 3, 0), ExactMatrix.zeros(ctx, 0, 4)),
             (rand_matrix(ctx, rng, 3, 2), ExactMatrix.zeros(ctx, 2, 0)),
             (ExactMatrix.zeros(ctx, 0, 2), rand_matrix(ctx, rng, 2, 3)))

    def no_kernel(*_args):
        raise AssertionError("the raw kernel ran on an empty product")

    monkeypatch.setattr(type(ctx.ops), "matmul", no_kernel)
    with pytest.raises(AssertionError, match="the raw kernel ran"):
        rand_matrix(ctx, rng, 1, 1) @ rand_matrix(ctx, rng, 1, 1)
    for a, b in pairs:
        c = a @ b
        assert_matrix_canonical(c, ctx, a.nrows, b.ncols)
        assert c.is_zero()


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_from_columns_keeps_its_shape(name):
    """Matrices made of columns keep their shape: a kernel basis is
    m x (m - rank) and a particular solution m x k, also when m - rank, k
    or the number of equations is 0; a right-hand side with another row
    count is refused.  The name is that of the column constructor these
    results replaced."""
    ctx = CONTEXTS[name]
    rng = random.Random("columns " + name)
    ident = ExactMatrix.identity(ctx, 3)
    assert_matrix_canonical(inverse_or_rank(ident).kernel, ctx, 3, 0)
    none = ExactMatrix.zeros(ctx, 0, 3)
    assert inverse_or_rank(none, rank_only=True).kernel == ident
    part, kernel = solve(none, ExactMatrix.zeros(ctx, 0, 2))
    assert_matrix_canonical(part, ctx, 3, 2)
    assert part.is_zero() and kernel == ident
    a = rand_matrix(ctx, rng, 3, 2)
    part, kernel = solve(ident, a)
    assert part == a
    assert_matrix_canonical(kernel, ctx, 3, 0)
    assert_matrix_canonical(solve(ident, ExactMatrix.zeros(ctx, 3, 0))[0],
                            ctx, 3, 0)
    with pytest.raises(DimensionMismatch):
        solve(ExactMatrix.zeros(ctx, 2, 3), a)
    assert_matrix_canonical(
        _restricted(ident, ExactMatrix.zeros(ctx, 3, 0), []), ctx, 0, 0)


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
    ops = ctx.ops
    f = [rand_scalar(ctx, rng).raw for _ in range(3)] + [ops.one]
    base = trim(ops, [rand_scalar(ctx, rng).raw for _ in range(3)])
    ref = [ops.one]
    for k in range(7):
        got = powmod(ops, base, k, f)
        assert got == ref, k
        ref = mulmod(ops, ref, base, f)


def rand_poly(ctx, rng, degree, monic=False):
    """A Scalar polynomial of the given degree (nonzero top coefficient)."""
    top = ctx.one() if monic else next(
        x for x in iter(lambda: rand_scalar(ctx, rng), None)
        if not x.is_zero())
    return [rand_scalar(ctx, rng) for _ in range(degree)] + [top]


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_polynomial_layer_matches_reference(name):
    """mulmod, powmod, divide, gcd and frobenius_gcd on raw coefficients
    give the coefficients of the naive Scalar versions above, read back as
    canonical scalars."""
    ctx = CONTEXTS[name]
    ops = ctx.ops
    rng = random.Random("polynomials " + name)

    def raw(poly):
        return [c.raw for c in poly]

    def back(coeffs):
        out = [Scalar(ctx, c) for c in coeffs]
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
        assert back(mulmod(ops, raw(a), raw(b), raw(f))) == \
            want(ref_mulmod(a, b, f))
        # in the rational height-3 tower the coefficients of a^1000 mod f
        # have thousands of digits, and the Scalar reference alone takes
        # about 10 s: that tower stops at 12
        for k in (0, 1, 2, 5, 12) + ((1000,) if ctx.dim < 8 else ()):
            assert back(powmod(ops, raw(a), k, raw(f))) == \
                want(ref_powmod(a, k, f)), k
        num = rand_poly(ctx, rng, rng.randint(0, 7))
        den = rand_poly(ctx, rng, rng.randint(0, 3))
        quot, rem = divide(ops, raw(num), raw(den))
        ref_quot, ref_rem = ref_divmod(num, den)
        assert (back(quot), back(rem)) == (want(ref_quot), want(ref_rem))
        common = rand_poly(ctx, rng, rng.randint(0, 2), monic=True)
        a2, b2 = ref_mul(a, common), ref_mul(b, common)
        assert back(gcd(ops, raw(a2), raw(b2))) == want(ref_gcd(a2, b2))
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
        for shape in ((n, 2), (n + 1, 1)):
            with pytest.raises(DimensionMismatch):
                a.krylov(ExactMatrix.zeros(ctx, *shape), 3)
        for length in range(6):
            got = a.krylov(columns_matrix(ctx, n, [v]), length)
            assert_matrix_canonical(got, ctx, n, length)
            col = v
            for j in range(length):
                assert ([got[i, j].coords for i in range(n)]
                        == [e.coords for e in col]), (label, length, j)
                col = ref_matvec(a, col)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_shift_chain_is_the_krylov_chain_of_the_shift(name):
    """v.shift_chain(m, length) is the Krylov chain of the sum of k lower
    Jordan blocks J_m(0), raw value for raw value, for block sizes 1-4,
    k = 0 (n = 0), 1 and 2 blocks and lengths 0 to m + 1; a wrong shape is
    krylov's DimensionMismatch."""
    ctx = CONTEXTS[name]
    rng = random.Random("shift chain " + name)
    for m in range(1, 5):
        for k in range(3):
            shift = ExactMatrix.block_diag(
                ctx, [ExactMatrix.jordan_block(ctx, m)] * k)
            v = columns_matrix(ctx, m * k,
                               [[rand_scalar(ctx, rng) for _ in range(m * k)]])
            for length in range(m + 2):
                got, want = v.shift_chain(m, length), shift.krylov(v, length)
                assert (got.ctx, got.nrows, got.ncols, got.raw) == \
                    (want.ctx, want.nrows, want.ncols, want.raw)
            # m k + 1 rows are a wrong shape for the shift chain only when
            # m > 1: for m = 1 they are one more block
            wrong = [(m * k, 2)] + ([(m * k + 1, 1)] if m > 1 else [])
            for shape in wrong:
                w = ExactMatrix.zeros(ctx, *shape)
                with pytest.raises(DimensionMismatch) as want:
                    shift.krylov(w, 2)
                with pytest.raises(DimensionMismatch) as got:
                    w.shift_chain(m, 2)
                assert str(got.value) == str(want.value)


# -- the context rule: contexts meet in the arithmetic -------------------------

# (field, extension) pairs of CONTEXTS
EXTENSIONS = [("Q", "Q(sqrt2)"), ("GF(3)", "GF(3)(sqrt-1)"),
              ("GF(4)", "GF(4)+AS")]


@pytest.mark.parametrize("base, ext", EXTENSIONS)
def test_krylov_lives_in_the_common_context(base, ext):
    """A vector over an extension of M's field, and one built from entries
    of both with a field entry first, give the columns over the extension,
    the same as with everything promoted first."""
    small, big = CONTEXTS[base], CONTEXTS[ext]
    rng = random.Random("lift " + ext)
    a = rand_matrix(small, rng, 4, 4)
    wide = [rand_scalar(big, rng) for _ in range(4)]
    mixed = [rand_scalar(small, rng), rand_scalar(big, rng), small.zero(),
             big.generator(len(big.tower))]
    for v in (wide, mixed):
        col = columns_matrix(small, 4, [v])
        for length in (1, 4):
            got = a.krylov(col, length)
            assert_matrix_canonical(got, big, 4, length)
            want = a.promote(big).krylov(
                columns_matrix(big, 4, [[e.promote(big) for e in v]]), length)
            assert coords(got.rows) == coords(want.rows)


@pytest.mark.parametrize("base, ext", EXTENSIONS)
def test_constructors_live_in_the_common_context(base, ext):
    """ExactMatrix(ctx, rows) and block_diag with entries over an extension
    of ctx give the matrix over the extension, and solve with a right-hand
    side there solves over it; promote still refuses to leave a context."""
    small, big = CONTEXTS[base], CONTEXTS[ext]
    rng = random.Random("construct " + ext)
    rows = [[rand_scalar(small, rng), 2, rand_scalar(big, rng)],
            [big.generator(len(big.tower)), small.one(), 0]]
    got = ExactMatrix(small, rows)
    assert_matrix_canonical(got, big, 2, 3)
    assert coords(got.rows) == coords(ExactMatrix(big, rows).rows)
    part, kernel = solve(ExactMatrix.identity(small, 2), got)
    assert_matrix_canonical(part, big, 2, 3)
    assert coords(part.rows) == coords(ExactMatrix(big, rows).rows)
    assert_matrix_canonical(kernel, big, 2, 0)
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


# -- byte lanes against the entry-by-entry loops ------------------------------

def _lane_fields():
    f3, f4, f5 = prime_field(3), gf4(), prime_field(5)
    _r, f16 = artin_schreier_root_or_adjoin(f4.base_element((0, 1)))
    return {"GF(2)": prime_field(2), "GF(3)": f3, "GF(5)": f5,
            "GF(13)": prime_field(13), "GF(4)": f4,
            "GF(9)": f3.adjoin_sqrt(f3.scalar(-1)), "GF(16)": f16,
            "GF(25)": f5.adjoin_sqrt(f5.scalar(2))}


LANE_FIELDS = _lane_fields()
# the largest inner dimension m of a product on byte lanes, k m (p - 1)^2 <
# 256 for a field of p^k elements; GF(16) has no lane product
LANE_DEPTH = {"GF(2)": 255, "GF(3)": 63, "GF(5)": 15, "GF(13)": 1,
              "GF(4)": 127, "GF(9)": 31, "GF(16)": 0, "GF(25)": 7}
BYTE_ROWS = {"GF(2)", "GF(3)", "GF(5)", "GF(13)", "GF(4)", "GF(16)"}


def on_loops(monkeypatch, ops, compute):
    """compute() on the entry-by-entry product loops and raw-row
    eliminations that run where the byte lanes do not."""
    with monkeypatch.context() as patch:
        patch.setattr(ops, "lane_depth", 0)
        for cls in (_FlatOps, _TableOps):
            patch.setattr(cls, "work", property(lambda ops: ops))
        return compute()


def rand_raw(rng, q, n, m, zeros=1 / 3):
    """n x m raw rows of a field whose raw values are indices below q."""
    return tuple(tuple(0 if rng.random() < zeros else rng.randrange(q)
                       for _ in range(m)) for _ in range(n))


def lane_products(depth):
    """(rows, m, n) products: each side of the lane bound, small and large,
    1 x m rows, m x 1 columns, inner dimension 1."""
    shapes = [(2, depth + 1, 3), (3, depth + 1, 40), (1, 8, 8), (8, 8, 1),
              (8, 1, 8), (6, 6, 6), (1, 1, 1)]
    if depth:
        shapes += [(2, depth, 3), (3, depth, 40), (1, depth, 64),
                   (64, depth, 1)]
    return shapes


def raw_matrix(ctx, raw, ncols):
    """The matrix of raw rows of an indexed context."""
    if not raw:
        return ExactMatrix.zeros(ctx, 0, ncols)
    return ExactMatrix(ctx, [[Scalar(ctx, v) for v in row] for row in raw])


@pytest.mark.parametrize("name", sorted(LANE_FIELDS))
def test_lane_products_match_the_loops(name, monkeypatch):
    """Every product on byte lanes gives the raw rows of the entry-by-entry
    loop, on each side of the lane bound: an inner dimension at the bound
    runs on lanes, one past it never."""
    ctx, depth = LANE_FIELDS[name], LANE_DEPTH[name]
    ops, q = ctx.ops, ctx.order()
    assert ops.lane_depth == depth
    rng = random.Random("lanes " + name)
    calls = []
    packed_columns = field._packed_columns
    monkeypatch.setattr(field, "_packed_columns", lambda *args: calls.append(
        args) or packed_columns(*args))
    for rows, m, n in lane_products(depth):
        for zeros in (0, 1 / 3, 1):
            a = rand_raw(rng, q, rows, m, zeros)
            b_cols = rand_raw(rng, q, n, m, zeros)
            del calls[:]
            got = [tuple(r) for r in ops.matmul(a, b_cols)]
            assert bool(calls) == (m <= depth), (rows, m, n)
            want = on_loops(monkeypatch, ops, lambda: [
                tuple(r) for r in ops.matmul(a, b_cols)])
            assert got == want, (rows, m, n, zeros)
    # through ExactMatrix, the empty products among them
    for n, k, m in ((8, 8, 8), (0, 4, 4), (4, 0, 4), (4, 4, 0)):
        x = raw_matrix(ctx, rand_raw(rng, q, n, k), k)
        y = raw_matrix(ctx, rand_raw(rng, q, k, m), m)
        assert (x @ y).raw == on_loops(monkeypatch, ops,
                                       lambda: (x @ y).raw)


def _eliminated(a, b):
    """The raw results of every elimination of a (and of a with b)."""
    full, light = inverse_or_rank(a), inverse_or_rank(a, rank_only=True)
    part, kernel = solve(a, b)
    return [full.inverse and full.inverse.raw, full.rank, full.kernel.raw,
            full.pivots, light.rank, light.kernel.raw, light.pivots,
            part and part.raw, kernel.raw]


@pytest.mark.parametrize("name", sorted(LANE_FIELDS))
def test_byte_rows_match_raw_rows(name, monkeypatch):
    """inverse_or_rank, solve and first_dependence on byte rows give the raw
    rows, ranks, pivots and coefficients of the raw-row loop: square,
    singular, 1 x m, m x 1, zero and empty matrices, consistent and
    inconsistent right-hand sides, and minimal polynomials."""
    ctx = LANE_FIELDS[name]
    assert isinstance(ctx.ops.work, _ByteRows) == (name in BYTE_ROWS)
    ops, q = ctx.ops, ctx.order()
    rng = random.Random("byte rows " + name)
    cases = []
    for n, m in ((5, 5), (12, 12), (1, 7), (7, 1), (4, 9), (9, 4), (1, 1),
                 (2, 2), (0, 4), (4, 0), (0, 0)):
        for zeros in (0, 1 / 3, 1):
            cases.append((rand_raw(rng, q, n, m, zeros), m))
    for n in (4, 7):  # singular: the last row a combination of two others
        raw = [list(r) for r in rand_raw(rng, q, n, n)]
        c = rng.randrange(1, q)
        raw[-1] = [ops.add(x, ops.mul(c, y)) for x, y in zip(raw[0], raw[1])]
        cases.append((tuple(map(tuple, raw)), n))
    for raw, m in cases:
        a = raw_matrix(ctx, raw, m)
        consistent = a @ raw_matrix(ctx, rand_raw(rng, q, m, 2), 2)
        for b in (consistent, raw_matrix(ctx, rand_raw(rng, q, a.nrows, 3),
                                          3)):
            got = _eliminated(a, b)
            assert got == on_loops(monkeypatch, ops,
                                   lambda: _eliminated(a, b)), (raw, m)
        if a.nrows == m and m:
            def minimal():
                return first_dependence(a.power(k) for k in range(m + 1))

            want = on_loops(monkeypatch, ops, minimal)
            assert [s.raw for s in minimal()] == [s.raw for s in want]
            # a dependence that stops before the last matrix
            b = raw_matrix(ctx, rand_raw(rng, q, m, m), m)
            mats = [a, b, a + b.scale(ctx.scalar(2)), a @ b]
            got = first_dependence(mats)
            want = on_loops(monkeypatch, ops,
                            lambda: first_dependence(mats))
            assert [s.raw for s in got] == [s.raw for s in want]

"""Exhaustive checks of the exp/log tables of small finite fields.

Finite contexts of at most field._TABLE_MAX_ORDER elements, other than GF(p)
itself, compute on element indices (field._TableOps).  Here every product,
sum, difference, negation and inverse of each such field met below, by the
element and the row operations alike, is compared with the coordinate
arithmetic of tests/towerref.py: tower_mul and the coordinatewise sum, and,
for a GF(p^k) base, the polynomial product.  The routing of _raw_ops and
the table caches are checked too, and congruence invariance on scrambled
block sums larger than the bench draws.
"""

import random
import time

import pytest

from matcanon import (Block, ExactMatrix, canonical_block_matrix,
                      canonical_form_matrix, canonicalize, gf4,
                      inverse_or_rank, prime_field)
from matcanon import field
from matcanon.exactmat import CongruenceWitness
from matcanon.field import (_FlatOps, _ModOps, _raw_ops, _TableOps,
                            artin_schreier_root_or_adjoin, finite_field,
                            sqrt_or_adjoin)

from towerref import badd, binv, bmul, bneg, tower_inv, tower_mul


def _first(ctx, rootless):
    """The first element of ctx, in iter_elements order, that passes."""
    return next(x for x in ctx.iter_elements() if rootless(x))


def _small_fields():
    f3, f5 = prime_field(3), prime_field(5)
    f4 = gf4()
    _r, f16 = artin_schreier_root_or_adjoin(f4.base_element((0, 1)))
    _r, f9 = sqrt_or_adjoin(f3.scalar(-1))
    f81 = f9.adjoin_sqrt(_first(
        f9, lambda x: not x.is_zero() and field._find_sqrt(x) is None))
    f256 = f16.adjoin_artin_schreier(_first(
        f16, lambda x: field._artin_schreier_root(x) is None))
    return {
        "GF(4)": f4,
        "GF(8)": finite_field(2, (1, 1, 0)),  # t^3 + t + 1
        "GF(9)": f9,
        "GF(16)": f16,
        "GF(25)": sqrt_or_adjoin(f5.scalar(2))[1],
        "GF(27)": finite_field(3, (1, 2, 0)),  # t^3 + 2t + 1
        "GF(81)": f81,
        "GF(256)": f256,
    }


SMALL_FIELDS = _small_fields()


@pytest.fixture
def empty_cache(monkeypatch):
    """Fresh table caches for the test, so that what it builds is seen:
    the _Tables cache is returned, and the monomial tables' is patched
    too."""
    cache = {}
    monkeypatch.setattr(field, "_field_tables_cache", cache)
    monkeypatch.setattr(field, "_monomial_tables_cache", {})
    return cache


@pytest.mark.parametrize("name", list(SMALL_FIELDS))
def test_tables_match_coordinate_arithmetic(name, empty_cache):
    ctx = SMALL_FIELDS[name]
    q = int(name[3:-1])
    assert ctx.order() == q
    ops = _raw_ops(ctx)
    assert isinstance(ops, _TableOps)
    elements = list(ctx.iter_elements())
    raw = [ops.from_coords(x.coords) for x in elements]
    assert sorted(raw) == list(range(q))
    assert [x.raw for x in elements] == raw
    assert raw[0] == ops.zero == 0 and ctx.one().raw == ops.one == 1
    assert [ops.to_coords(v) for v in raw] == [x.coords for x in elements]
    level = len(ctx.tower)
    plus_one, minus_one = ops.neg(ops.one), ops.one  # axpy is row - f prow
    for a, ra in zip(elements, raw):
        products = ops.scale(raw, ra)
        sums = ops.axpy([ra] * q, plus_one, raw)
        differences = ops.axpy([ra] * q, minus_one, raw)
        assert [ops.mul(ra, rb) for rb in raw] == products
        assert [ops.add(ra, rb) for rb in raw] == sums
        assert [ops.add(ra, ops.neg(rb)) for rb in raw] == differences
        for b, prod, total, diff in zip(elements, products, sums,
                                        differences):
            assert ops.to_coords(prod) == tower_mul(ctx, a.coords, b.coords,
                                                    level), (a, b)
            plain_sum = tuple(badd(ctx, u, v)
                              for u, v in zip(a.coords, b.coords))
            assert ops.to_coords(total) == plain_sum, (a, b)
            assert ops.to_coords(diff) == tuple(
                badd(ctx, u, bneg(ctx, v))
                for u, v in zip(a.coords, b.coords)), (a, b)
        assert ops.to_coords(ops.neg(ra)) == tuple(bneg(ctx, u)
                                                   for u in a.coords)
        assert ops.axpy([ra] * q, ops.zero, raw) == [ra] * q
        if ra:
            inv = ops.inverse(ra)
            assert ops.to_coords(inv) == tower_inv(ctx, a.coords, level)
            assert ops.scale([inv], ra) == [ops.one]
    # the sums of matmul, on [a, 1] . [1, b]
    table = ops.matmul([[ra, ops.one] for ra in raw],
                       [[ops.one, rb] for rb in raw])
    for a, row in zip(elements, table):
        assert [ops.to_coords(s) for s in row] == [
            tuple(badd(ctx, u, v) for u, v in zip(a.coords, b.coords))
            for b in elements]
    # every table has O(q) entries
    tables = empty_cache[ctx._key]
    for part in (tables.coords, tables.index, tables.exp, tables.log,
                 tables.zech or ()):
        assert len(part) <= 4 * q


@pytest.mark.parametrize("name", ["GF(4)", "GF(8)", "GF(27)"])
def test_base_products_read_the_tables(name, empty_cache):
    """The products and inverses of a GF(p^k) base read its tables, built
    once, and agree with the polynomial product on every pair."""
    ctx = SMALL_FIELDS[name]
    ops = _raw_ops(ctx)
    assert isinstance(ops, _TableOps)
    base = [x.coords[0] for x in ctx.iter_elements()]
    for x in base:
        for y in base:
            prod = ops.mul(ops.from_coords((x,)), ops.from_coords((y,)))
            assert ops.to_coords(prod) == (bmul(ctx, x, y),), (x, y)
        if any(x):
            inv = ops.inverse(ops.from_coords((x,)))
            assert ops.to_coords(inv) == (binv(ctx, x),)
    assert list(empty_cache) == [ctx._key]


def test_routing_and_the_cache(empty_cache):
    """GF(p) itself stays on ints and builds no table; a finite context
    above the cap computes on integer vectors mod p with the monomial
    tables of its tower and builds no _Tables; the tables live in the two
    module dicts whose names end in _cache, which the bench empties before
    each measured pass, and a context built after that refills them."""
    monomial_cache = field._monomial_tables_cache
    f7 = prime_field(7)
    assert isinstance(_raw_ops(f7), _FlatOps)
    assert isinstance(_raw_ops(prime_field(65521)), _FlatOps)
    big = sqrt_or_adjoin(prime_field(65521).scalar(17))[1]
    f81 = SMALL_FIELDS["GF(81)"]
    f6561 = f81.adjoin_sqrt(_first(
        f81, lambda x: not x.is_zero() and field._find_sqrt(x) is None))
    empty_cache.clear()
    monomial_cache.clear()
    products = []
    for ctx in (big, f6561):
        assert ctx.order() > field._TABLE_MAX_ORDER
        ops = _raw_ops(ctx)
        assert isinstance(ops, _ModOps)
        assert monomial_cache[ctx._key] is ops.table
        # the tables of its prefixes, keyed by prefix
        assert all(ctx.truncated(h)._key in monomial_cache
                   for h in range(len(ctx.tower)))
        a = ExactMatrix(ctx, [[1, ctx.generator(1)], [0, 1]])
        assert inverse_or_rank(a @ a).rank == 2
        products.append(a @ a)
    assert not empty_cache
    monomial_cache.clear()
    a = ExactMatrix(f7, [[1, 2], [3, 4]])
    assert inverse_or_rank(a @ a).rank == 2
    assert not empty_cache and not monomial_cache
    _raw_ops(SMALL_FIELDS["GF(9)"])
    assert list(empty_cache) == [SMALL_FIELDS["GF(9)"]._key]
    caches = sorted(name for name, value in vars(field).items()
                    if name.endswith("_cache") and isinstance(value, dict))
    assert caches == ["_field_tables_cache", "_monomial_tables_cache"]
    # emptied as the bench does, the caches are refilled by new contexts,
    # with the same products
    for name in caches:
        getattr(field, name).clear()
    for ctx, before in zip((big, f6561), products):
        fresh = field.FieldContext(ctx.kind, ctx.p, tower=ctx.tower)
        assert fresh == ctx and fresh.ops.table is not ctx.ops.table
        a = ExactMatrix(fresh, [[1, fresh.generator(1)], [0, 1]])
        assert [[e.coords for e in row] for row in (a @ a).rows] == \
            [[e.coords for e in row] for row in before.rows]
    assert set(monomial_cache) >= {big._key, f6561._key}


# -- congruence invariance on sums larger than the bench's ------------------

def _scramble(ctx, rng, a):
    pool = list(ctx.iter_elements())
    n = a.nrows
    while True:
        y = ExactMatrix(ctx, [[rng.choice(pool) for _ in range(n)]
                              for _ in range(n)])
        if inverse_or_rank(y, rank_only=True).rank == n:
            return y.transpose() @ a @ y


def _sums():
    f3, f4 = prime_field(3), gf4()
    t, t1 = f4.base_element((0, 1)), f4.base_element((1, 1))
    return [
        ("GF(4) n=16", f4, [Block("B", 3), Block("D", 4), Block("E", 2),
                            Block("G", 2, t), Block("B", 5)]),
        ("GF(4) n=24", f4, [Block("B", 5), Block("D", 8), Block("E", 6),
                            Block("G", 4, t1), Block("B", 1)]),
        ("GF(3) n=24", f3, [Block("A", 5), Block("C", 4), Block("D", 8),
                            Block("F", 6), Block("A", 1)]),
    ]


def test_congruence_invariance_of_large_block_sums():
    """Two scrambles of each block sum give the same form, and each comes
    with a certified witness onto it.  The three sums take about 0.8 s in
    all on a 2-core x86-64 machine (GF(4) at n = 24 took 1.6 s per scramble
    on coordinates); the bound catches a hang, not a slowdown."""
    t0 = time.time()
    for label, ctx, blocks in _sums():
        rng = random.Random("large sums " + label)
        base = ExactMatrix.block_diag(
            ctx, [canonical_block_matrix(b, ctx) for b in blocks])
        assert base.nrows == int(label.split("=")[1])
        forms = []
        for _ in range(2):
            a = _scramble(ctx, rng, base)
            form, wit = canonicalize(a)
            assert isinstance(wit, CongruenceWitness)
            assert wit.source == a
            assert wit.target == canonical_form_matrix(form)
            CongruenceWitness(wit.x, wit.source, wit.target)
            # the context may differ: GF(4) can reach GF(16) by the
            # Artin-Schreier root of t or of t + 1
            forms.append((form.gabriel, form.blocks))
        assert forms[0] == forms[1], label
    assert time.time() - t0 < 20.0

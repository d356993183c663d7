"""Stress tests for the harder corners: non-prime base fields, inputs that
already live in towers, large scrambled blocks, and field reconciliation."""

import random
from fractions import Fraction

import pytest

from matcanon import (Block, ExactMatrix, NoRootStrictPolicy, NotSplit,
                      canonical_block_matrix, canonicalize, equivalent,
                      finite_field, gf4, inverse_or_rank, prime_field,
                      rationals, sqrt_or_adjoin, transpose_witness)
from matcanon.field import EXTEND, STRICT
from matcanon.spectral import asymmetry
from matcanon.unipotent import gamma0_matrix, gamma_matrix


def rand_matrix(ctx, rng, n, lo=-3, hi=3):
    if ctx.kind == "rational":
        return ExactMatrix(ctx, [[rng.randint(lo, hi) for _ in range(n)]
                                 for _ in range(n)])
    if ctx.kind == "gfp" and not ctx.tower:
        return ExactMatrix(ctx, [[rng.randrange(ctx.p) for _ in range(n)]
                                 for _ in range(n)])
    pool = list(ctx.iter_elements())
    return ExactMatrix(ctx, [[rng.choice(pool) for _ in range(n)]
                             for _ in range(n)])


def rand_invertible(ctx, rng, n, lo=-3, hi=3):
    while True:
        y = rand_matrix(ctx, rng, n, lo, hi)
        if inverse_or_rank(y).inverse is not None:
            return y


def test_canonicalize_over_gf4_base():
    rng = random.Random(301)
    f4 = gf4()
    for _ in range(40):
        n = rng.randint(1, 3)
        a = rand_matrix(f4, rng, n)
        y = rand_invertible(f4, rng, n)
        b = y.transpose() @ a @ y
        fa, wa = canonicalize(a)
        fb, wb = canonicalize(b)
        assert fa.gabriel == fb.gabriel
        assert fa.blocks == fb.blocks


def test_canonicalize_over_gf8_base():
    rng = random.Random(303)
    f8 = finite_field(2, (1, 1, 0))  # GF(2)[t]/(t^3 + t + 1)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = rand_matrix(f8, rng, n)
        y = rand_invertible(f8, rng, n)
        b = y.transpose() @ a @ y
        fa, _ = canonicalize(a)
        fb, _ = canonicalize(b)
        assert fa.blocks == fb.blocks and fa.gabriel == fb.gabriel


def test_canonicalize_input_already_in_tower():
    # a G block whose eigenvalue is sqrt(2): the input context has a tower
    q = rationals()
    g, ctx = sqrt_or_adjoin(q.scalar(2))
    a = ExactMatrix(ctx, [[ctx.zero(), g], [ctx.one(), ctx.zero()]])
    form, wit = canonicalize(a)
    assert len(form.blocks) == 1
    blk = form.blocks[0]
    assert blk.family == "G" and blk.n == 2
    lam = blk.lam.promote(form.context)
    assert lam in (g.promote(form.context), g.inverse().promote(form.context))
    # congruence invariance inside the tower
    rng = random.Random(305)
    y = rand_invertible(ctx, rng, 2)
    form2, _ = canonicalize(y.transpose() @ a @ y)
    assert form2.blocks == form.blocks


def test_scrambled_large_singles():
    rng = random.Random(307)
    q = rationals()
    f2 = prime_field(2)
    cases = [(q, gamma_matrix(q, 7), "A7"), (q, gamma_matrix(q, 6), "C6"),
             (q, gamma_matrix(q, 8), "C8"), (f2, gamma0_matrix(f2, 7), "B7")]
    for ctx, base, name in cases:
        n = base.nrows
        for _ in range(3):
            y = rand_invertible(ctx, rng, n, -1, 1)
            a = y.transpose() @ base @ y
            form, wit = canonicalize(a)
            assert [repr(b) for b in form.blocks] == [name], name


def test_scrambled_d8_char2():
    rng = random.Random(311)
    f2 = prime_field(2)
    base = canonical_block_matrix(Block("D", 8), f2)
    for _ in range(3):
        y = rand_invertible(f2, rng, 8)
        a = y.transpose() @ base @ y
        form, _ = canonicalize(a)
        assert [repr(b) for b in form.blocks] == ["D8"]


def test_merge_loop_non_congruent_different_towers():
    # (2) needs sqrt(2); (3) needs sqrt(3): the two sides settle in
    # different towers, which equivalent merges (1x1 forms with distinct
    # square classes stay distinct only over the base; over the merged
    # tower they become congruent)
    q = rationals()
    a = ExactMatrix(q, [[2]])
    b = ExactMatrix(q, [[3]])
    res = equivalent(a, b, EXTEND)
    # over a field containing sqrt(2) and sqrt(3) the forms are congruent
    assert res.equivalent
    assert res.witness is not None
    # strict policy refuses to extend
    with pytest.raises(NoRootStrictPolicy):
        equivalent(a, b, STRICT)


def test_rational_quadratic_forms_over_extension():
    # diag(1, 6) and diag(2, 3): same determinant class, congruent over a
    # quadratic tower; equivalent must find one field for both
    q = rationals()
    a = ExactMatrix(q, [[1, 0], [0, 6]])
    b = ExactMatrix(q, [[2, 0], [0, 3]])
    res = equivalent(a, b, EXTEND)
    assert res.equivalent
    y = res.witness.x
    assert y.transpose() @ a.promote(y.ctx) @ y == b.promote(y.ctx)


def test_min_poly_product_of_split_roots():
    # after splitting, prod (X - root)^mult equals the minimal polynomial
    from matcanon.spectral import split_min_poly
    rng = random.Random(313)
    q = rationals()
    done = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        a = rand_invertible(q, rng, n, -2, 2)
        try:
            asym = split_min_poly(asymmetry(a))
        except NotSplit:
            continue
        ctx = asym.ctx
        prod = [ctx.one()]
        for root, mult in asym.split_roots:
            for _ in range(mult):
                new = [ctx.zero()] * (len(prod) + 1)
                for i, c in enumerate(prod):
                    new[i + 1] = new[i + 1] + c
                    new[i] = new[i] - c * root
                prod = new
        target = [c.promote(ctx) for c in asym.min_poly]
        assert prod == target
        done += 1
    assert done >= 15


def test_true_verdicts_carry_witnesses_small_fields():
    # sample congruent pairs over GF(2), GF(3) and check the witnesses
    rng = random.Random(317)
    for p in (2, 3):
        ctx = prime_field(p)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = rand_matrix(ctx, rng, n)
            y = rand_invertible(ctx, rng, n)
            b = y.transpose() @ a @ y
            try:
                res = equivalent(a, b, EXTEND)
            except NotSplit:
                continue
            assert res.equivalent
            w = res.witness.x
            assert w.transpose() @ a.promote(w.ctx) @ w == b.promote(w.ctx)


def test_transpose_witness_in_towers():
    rng = random.Random(319)
    f4 = gf4()
    done = 0
    for _ in range(15):
        n = rng.randint(1, 3)
        a = rand_matrix(f4, rng, n)
        try:
            y = transpose_witness(a)
        except NotSplit:
            continue
        assert y.x.transpose() @ a.promote(y.x.ctx) @ y.x == \
            a.transpose().promote(y.x.ctx)
        done += 1
    assert done >= 10


def test_block_descriptors_over_gfq():
    # E blocks and B blocks over GF(4): valid characteristic-2 targets
    f4 = gf4()
    for desc in (Block("B", 3), Block("E", 2), Block("D", 4)):
        a = canonical_block_matrix(desc, f4)
        form, _ = canonicalize(a)
        got = form.blocks[0]
        assert (got.family, got.n) == (desc.family, desc.n)


def test_mixed_everything_rational():
    # gabriel + unipotent + hyperbolic all at once, scrambled
    rng = random.Random(331)
    q = rationals()
    base = ExactMatrix.block_diag(q, [
        ExactMatrix.jordan_block(q, 3),
        ExactMatrix.jordan_block(q, 1),
        gamma_matrix(q, 2),
        canonical_block_matrix(Block("G", 2, q.scalar(3)), q),
        gamma_matrix(q, 1),
    ])
    n = base.nrows
    for _ in range(3):
        y = rand_invertible(q, rng, n, -1, 1)
        a = y.transpose() @ base @ y
        form, wit = canonicalize(a)
        assert form.gabriel == [3, 1]
        assert [repr(b) for b in form.blocks] == ["A1", "C2", "G2(1/3)"]


def test_zero_dimensional_and_one_by_one():
    q = rationals()
    form, wit = canonicalize(ExactMatrix.zeros(q, 0, 0))
    assert form.gabriel == [] and form.blocks == []
    form, wit = canonicalize(ExactMatrix(q, [[0]]))
    assert form.gabriel == [1] and form.blocks == []
    form, wit = canonicalize(ExactMatrix(q, [[Fraction(9, 4)]]))
    assert [repr(b) for b in form.blocks] == ["A1"]
    assert wit.x == ExactMatrix(q, [[Fraction(2, 3)]])


def test_not_split_over_gf3_cubic():
    # inversion-closed sextics with irreducible cubic factors live in
    # GF(27), which no quadratic tower over GF(3) reaches
    f3 = prime_field(3)
    b = ExactMatrix(f3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    bt = b.transpose()
    z = ExactMatrix.zeros(f3, 3, 3)
    i = ExactMatrix.identity(f3, 3)
    rows = [list(zr) + list(br) for zr, br in zip(z.rows, bt.rows)]
    rows += [list(ir) + list(zr) for ir, zr in zip(i.rows, z.rows)]
    a = ExactMatrix(f3, rows)
    with pytest.raises(NotSplit):
        canonicalize(a)


def test_scalar_hash_consistent_across_promotion():
    q = rationals()
    _, ctx = sqrt_or_adjoin(q.scalar(2))
    x = q.scalar(Fraction(3, 7))
    assert x == x.promote(ctx)
    assert hash(x) == hash(x.promote(ctx))


def test_canonicalize_idempotent_on_targets():
    # canonicalizing the canonical matrix reproduces the same form
    rng = random.Random(337)
    for ctx in (rationals(), prime_field(3), prime_field(2)):
        for _ in range(25):
            n = rng.randint(1, 4)
            a = rand_matrix(ctx, rng, n)
            try:
                form, wit = canonicalize(a)
            except NotSplit:
                continue
            form2, wit2 = canonicalize(wit.target)
            assert form2.gabriel == form.gabriel
            assert form2.blocks == form.blocks
            assert form2.extension_report == []


def test_repeated_identical_blocks():
    from matcanon.unipotent import gamma_matrix as gm
    rng = random.Random(341)
    q = rationals()
    g2_5 = canonical_block_matrix(Block("G", 2, q.scalar(5)), q)
    base = ExactMatrix.block_diag(q, [gm(q, 3), gm(q, 3), g2_5, g2_5,
                                      ExactMatrix.jordan_block(q, 2),
                                      ExactMatrix.jordan_block(q, 2)])
    n = base.nrows
    for _ in range(3):
        y = rand_invertible(q, rng, n, -1, 1)
        a = y.transpose() @ base @ y
        form, wit = canonicalize(a)
        assert form.gabriel == [2, 2]
        assert [repr(b) for b in form.blocks] == \
            ["A3", "A3", "G2(1/5)", "G2(1/5)"]


def test_forbidden_mixture_renormalizes_char2():
    # a direct sum of B_m and E_2m at one odd order is not canonical: the
    # combined component has a non-alternating hat form, so everything
    # diagonalizes into singles
    f2 = prime_field(2)
    b1 = canonical_block_matrix(Block("B", 1), f2)
    e2 = canonical_block_matrix(Block("E", 2), f2)
    a = ExactMatrix.block_diag(f2, [b1, e2])
    form, _ = canonicalize(a)
    assert [repr(b) for b in form.blocks] == ["B1", "B1", "B1"]
    b3 = canonical_block_matrix(Block("B", 3), f2)
    e6 = canonical_block_matrix(Block("E", 6), f2)
    a = ExactMatrix.block_diag(f2, [b3, e6])
    form, _ = canonicalize(a)
    assert [repr(b) for b in form.blocks] == ["B3", "B3", "B3"]

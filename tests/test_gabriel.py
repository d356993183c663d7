import random

from matcanon.exactmat import ExactMatrix, inverse_or_rank
from matcanon.field import prime_field, rationals
from matcanon.gabriel import gabriel_decompose, is_invertible_splittable


def rand_matrix(ctx, rng, n, lo=-3, hi=3):
    if ctx.kind == "rational":
        return ExactMatrix(ctx, [[rng.randint(lo, hi) for _ in range(n)]
                                 for _ in range(n)])
    return ExactMatrix(ctx, [[rng.randrange(ctx.p) for _ in range(n)]
                             for _ in range(n)])


def rand_invertible(ctx, rng, n, lo=-3, hi=3):
    while True:
        y = rand_matrix(ctx, rng, n, lo, hi)
        if inverse_or_rank(y).inverse is not None:
            return y


def test_zero_matrix_is_all_radical():
    q = rationals()
    dec = gabriel_decompose(ExactMatrix.zeros(q, 3, 3))
    assert dec.jordan_sizes == [1, 1, 1]
    assert dec.core.nrows == 0


def test_j3_is_single_block():
    q = rationals()
    dec = gabriel_decompose(ExactMatrix.jordan_block(q, 3))
    assert dec.jordan_sizes == [3]
    assert dec.core.nrows == 0


def test_invertible_passthrough():
    q = rationals()
    a = ExactMatrix(q, [[2, 1], [0, 1]])
    dec = gabriel_decompose(a)
    assert dec.jordan_sizes == []
    assert dec.core == a


def test_scrambled_j2_plus_unit_gf3():
    f = prime_field(3)
    base = ExactMatrix.block_diag(f, [ExactMatrix.jordan_block(f, 2),
                                      ExactMatrix(f, [[1]])])
    x = ExactMatrix(f, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    a = x.transpose() @ base @ x
    dec = gabriel_decompose(a)
    assert dec.jordan_sizes == [2]
    assert dec.core.nrows == 1
    # core is congruent to (1): over GF(3) that means core = c^2 for some c,
    # i.e. the core value is a nonzero square
    v = dec.core[0, 0]
    assert v in (f.scalar(1),)  # squares mod 3 are {1}


def test_empty_matrix():
    q = rationals()
    dec = gabriel_decompose(ExactMatrix.zeros(q, 0, 0))
    assert dec.jordan_sizes == []
    assert dec.core.nrows == 0


def test_witness_relation_always_checked():
    # CongruenceWitness verifies on construction; a passing call proves the
    # relation holds exactly
    rng = random.Random(17)
    f = prime_field(2)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = rand_matrix(f, rng, n)
        dec = gabriel_decompose(a)
        assert sum(dec.jordan_sizes) + dec.core.nrows == n
        assert inverse_or_rank(dec.core).inverse is not None or \
            dec.core.nrows == 0


def test_mixed_block_reconstruction():
    # build J_3 + J_2 + J_1 + invertible core, scramble, recover sizes
    rng = random.Random(5)
    for ctx in (rationals(), prime_field(3), prime_field(2)):
        target = ExactMatrix.block_diag(ctx, [
            ExactMatrix.jordan_block(ctx, 3),
            ExactMatrix.jordan_block(ctx, 2),
            ExactMatrix.jordan_block(ctx, 1),
            ExactMatrix(ctx, [[1]]),
        ])
        for _ in range(10):
            y = rand_invertible(ctx, rng, 7)
            a = y.transpose() @ target @ y
            dec = gabriel_decompose(a)
            assert dec.jordan_sizes == [3, 2, 1], (ctx.kind, dec.jordan_sizes)
            assert dec.core.nrows == 1


def test_uniqueness_of_sizes_under_congruence():
    # empirical uniqueness: congruent matrices give identical size multisets
    rng = random.Random(23)
    for ctx in (prime_field(3), rationals()):
        for _ in range(500):
            n = rng.randint(0, 5)
            a = rand_matrix(ctx, rng, n)
            y = rand_invertible(ctx, rng, n)
            b = y.transpose() @ a @ y
            da = gabriel_decompose(a)
            db = gabriel_decompose(b)
            assert da.jordan_sizes == db.jordan_sizes
            assert da.core.nrows == db.core.nrows


def test_cores_congruent_under_congruence():
    # the cores of congruent matrices are congruent (empirically), decided
    # by the full pipeline, or by the brute-force oracle for small GF(3)
    from matcanon import NotSplit, equivalent
    from oracle import bruteforce_congruent
    rng = random.Random(27)
    f3 = prime_field(3)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_matrix(f3, rng, n)
        y = rand_invertible(f3, rng, n)
        b = y.transpose() @ a @ y
        ca = gabriel_decompose(a).core
        cb = gabriel_decompose(b).core
        assert ca.nrows == cb.nrows
        if ca.nrows == 0:
            continue
        if ca.nrows <= 3:
            verdict, _ = bruteforce_congruent(ca, cb)
            assert verdict
            checked += 1
        try:
            res = equivalent(ca, cb)
        except NotSplit:
            continue
        assert res.equivalent
        checked += 1
    assert checked >= 40


def test_is_invertible_splittable():
    q = rationals()
    assert is_invertible_splittable(ExactMatrix.jordan_block(q, 2)) is None
    split = is_invertible_splittable(ExactMatrix(q, [[1]]))
    assert split is not None
    assert split.invertible == ExactMatrix(q, [[1]])
    split = is_invertible_splittable(
        ExactMatrix.block_diag(q, [ExactMatrix.jordan_block(q, 1),
                                   ExactMatrix(q, [[2]])]))
    assert split.invertible == ExactMatrix(q, [[2]])
    assert split.degenerate == ExactMatrix.zeros(q, 1, 1)


def test_sizes_partition_dimension_random():
    rng = random.Random(29)
    f = prime_field(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = rand_matrix(f, rng, n)
        dec = gabriel_decompose(a)
        assert sum(dec.jordan_sizes) + dec.core.nrows == n
        assert dec.jordan_sizes == sorted(dec.jordan_sizes, reverse=True)

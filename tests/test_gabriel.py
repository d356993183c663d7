import hashlib
import random

from matcanon.exactmat import CongruenceWitness, ExactMatrix, inverse_or_rank
from matcanon.field import gf4, prime_field, rationals
from matcanon.gabriel import gabriel_decompose


def _entry(ctx, rng):
    if ctx.kind == "rational":
        return rng.randint(-3, 3)
    if ctx.kind == "gfq":  # GF(4): two coordinates over GF(2)
        return ctx.scalar((rng.randrange(2), rng.randrange(2)))
    return rng.randrange(ctx.p)


def rand_matrix(ctx, rng, n):
    return ExactMatrix(ctx, [[_entry(ctx, rng) for _ in range(n)]
                             for _ in range(n)])


def rand_invertible(ctx, rng, n):
    while True:
        y = rand_matrix(ctx, rng, n)
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


def test_a_full_rank_input_takes_one_elimination(monkeypatch):
    # a non-singular A has a zero radical: its rank test is the only
    # elimination, with no stacked [A; A'] reduction
    from matcanon import gabriel
    seen = []
    original = gabriel.inverse_or_rank

    def recording(m, rank_only=False):
        seen.append(m)
        return original(m, rank_only)

    monkeypatch.setattr(gabriel, "inverse_or_rank", recording)
    rng = random.Random(7)
    for ctx in (rationals(), prime_field(3)):
        for n in (1, 2, 4):
            a = rand_invertible(ctx, rng, n)
            seen.clear()
            dec = gabriel_decompose(a)
            assert seen == [a]
            assert dec.jordan_sizes == [] and dec.core == a


def test_the_radical_elimination_runs_only_when_there_is_a_radical(
        monkeypatch):
    # a singular A with a zero radical makes no 2n x n stacked [A; A']
    # elimination, and no input, radical or not, a [K | I_n] basis
    # extension, n columns wider than K; a radical (a planted J_1) makes
    # exactly one stacked elimination
    from matcanon import gabriel
    shapes = []
    original = gabriel.inverse_or_rank

    def recording(m, rank_only=False):
        shapes.append((m.nrows, m.ncols))
        return original(m, rank_only)

    monkeypatch.setattr(gabriel, "inverse_or_rank", recording)
    kinds = set()
    for sizes, a in _planted_singular_inputs(40):
        n = a.nrows
        shapes.clear()
        gabriel_decompose(a)
        assert shapes.count((2 * n, n)) == (1 in sizes)
        assert all(ncols <= n for _nrows, ncols in shapes)
        kinds.add(1 in sizes)
    assert kinds == {False, True}


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
    # the decomposition is a plain congruence; certifying it checks the
    # relation and the invertibility of X exactly
    rng = random.Random(17)
    f = prime_field(2)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = rand_matrix(f, rng, n)
        dec = gabriel_decompose(a)
        CongruenceWitness(*dec.congruence)
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


def test_degenerate_and_invertible_parts():
    q = rationals()
    dec = gabriel_decompose(ExactMatrix.jordan_block(q, 2))
    assert dec.jordan_sizes == [2] and dec.core.nrows == 0
    dec = gabriel_decompose(ExactMatrix(q, [[1]]))
    assert dec.jordan_sizes == [] and dec.core == ExactMatrix(q, [[1]])
    a = ExactMatrix.block_diag(q, [ExactMatrix.jordan_block(q, 1),
                                   ExactMatrix(q, [[2]])])
    dec = gabriel_decompose(a)
    assert dec.jordan_sizes == [1] and dec.core == ExactMatrix(q, [[2]])
    w = CongruenceWitness(*dec.congruence)
    assert w.source == a and w.target == a


def test_sizes_partition_dimension_random():
    rng = random.Random(29)
    f = prime_field(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = rand_matrix(f, rng, n)
        dec = gabriel_decompose(a)
        assert sum(dec.jordan_sizes) + dec.core.nrows == n
        assert dec.jordan_sizes == sorted(dec.jordan_sizes, reverse=True)


# the first block planted in each kind of case, and the sizes drawn after
# it: J_1 gives a radical, J_2 alone a zero radical and an invertible M,
# J_3 and J_4 a zero radical and an M that is singular again
_PLANTED_KINDS = (((1,), (1, 2, 3, 4)), ((2,), (2,)),
                  ((3, 4), (2, 3, 4)), ((1, 2, 3, 4), (1, 2, 3, 4)))


def _planted_singular_inputs(count=200):
    """(planted sizes, Y' (J_k1 + ... + core) Y) for seeded random Y and
    invertible cores, n from 6 to 12 over GF(2), GF(3), GF(4), GF(13) and
    Q, the kinds of _PLANTED_KINDS in turn."""
    rng = random.Random(38)
    fields = (prime_field(2), prime_field(3), gf4(), prime_field(13),
              rationals())
    for i in range(count):
        ctx = fields[i % len(fields)]
        first, pool = _PLANTED_KINDS[i // len(fields) % len(_PLANTED_KINDS)]
        n = rng.randint(6, 12)
        sizes = [rng.choice(first)]
        while rng.random() < 0.6:
            s = rng.choice(pool)
            if sum(sizes) + s > n:
                break
            sizes.append(s)
        blocks = [ExactMatrix.jordan_block(ctx, s) for s in sizes]
        blocks.append(rand_invertible(ctx, rng, n - sum(sizes)))
        y = rand_invertible(ctx, rng, n)
        yield sizes, y.transpose() @ ExactMatrix.block_diag(ctx, blocks) @ y


def test_planted_singular_decompositions_are_pinned():
    # one digest over sizes, core and X of every decomposition: a rewrite
    # of the steps must reproduce the same bases, not only a valid answer
    digest = hashlib.sha256()
    for sizes, a in _planted_singular_inputs():
        dec = gabriel_decompose(a)
        assert dec.jordan_sizes == sorted(sizes, reverse=True)
        digest.update(repr((dec.jordan_sizes, dec.core.raw,
                            dec.congruence.x.raw)).encode())
    assert digest.hexdigest() == \
        "4d86b079282bf551ea15c520468244be62a6e91c02d782fbae6b7e7d79a83981"

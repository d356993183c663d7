import random
from fractions import Fraction

import pytest

from matcanon import (Block, ExactMatrix, NotSplit, canonical_block_matrix,
                      canonical_form_matrix, canonicalize, equivalent,
                      invariants, inverse_or_rank, prime_field, rationals,
                      transpose_witness)
from matcanon.errors import (HypothesisViolation, InvalidDescriptor,
                             NoRootStrictPolicy)
from matcanon.field import EXTEND, STRICT
from matcanon.spectral import hyperbolic_block_matrix, asymmetry
from matcanon.unipotent import gamma0_matrix, gamma_matrix

from filtration import elementary_divisor_multiplicities


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


def test_canonical_block_matrix_examples():
    q = rationals()
    assert canonical_block_matrix(Block("A", 3), q) == \
        ExactMatrix(q, [[0, 0, 1], [0, -1, -1], [1, 1, 0]])
    f2 = prime_field(2)
    assert canonical_block_matrix(Block("B", 5), f2) == gamma0_matrix(f2, 5)
    assert canonical_block_matrix(Block("G", 2, q.scalar(7)), q) == \
        ExactMatrix(q, [[0, 7], [1, 0]])


def test_invalid_descriptors():
    q = rationals()
    with pytest.raises(InvalidDescriptor):
        canonical_block_matrix(Block("A", 2), q)
    with pytest.raises(InvalidDescriptor):
        canonical_block_matrix(Block("B", 3), q)  # needs characteristic 2
    with pytest.raises(InvalidDescriptor):
        canonical_block_matrix(Block("D", 2), q)  # m = 1 odd
    with pytest.raises(InvalidDescriptor):
        canonical_block_matrix(Block("G", 2, q.one()), q)


def test_block_sizes_below_one_are_invalid():
    # these used to give an empty matrix
    q, f2 = rationals(), prime_field(2)
    for ctx, desc in [(q, Block("A", -3)), (q, Block("C", 0)),
                      (q, Block("D", 0)), (q, Block("F", 0)),
                      (q, Block("G", 0, q.scalar(2))), (f2, Block("B", -1)),
                      (f2, Block("E", 0)), (f2, Block("D", -4))]:
        with pytest.raises(InvalidDescriptor, match="needs n >= 1"):
            canonical_block_matrix(desc, ctx)


def test_zero_matrix():
    q = rationals()
    form, w = canonicalize(ExactMatrix.zeros(q, 2, 2))
    assert form.gabriel == [1, 1]
    assert form.blocks == []


def test_gamma3_is_a3():
    q = rationals()
    form, w = canonicalize(gamma_matrix(q, 3))
    assert form.gabriel == []
    assert [repr(b) for b in form.blocks] == ["A3"]
    assert w.target == gamma_matrix(form.context, 3)


def test_d4_block():
    q = rationals()
    a = hyperbolic_block_matrix(q, 2, q.one())
    form, w = canonicalize(a)
    assert [repr(b) for b in form.blocks] == ["D4"]


def test_round_trip_all_descriptors():
    # canonicalize(canonical_block_matrix(d)) == [d] for every descriptor
    q = rationals()
    f2 = prime_field(2)
    cases = []
    for n in (1, 3, 5, 7):
        cases.append((q, Block("A", n)))
        cases.append((f2, Block("B", n)))
    for n in (2, 4, 6, 8):
        cases.append((q, Block("C", n)))
    for n in (4, 8):
        cases.append((q, Block("D", n)))
        cases.append((f2, Block("D", n)))
    for n in (2, 6):
        cases.append((f2, Block("E", n)))
        cases.append((q, Block("F", n)))
    for lam in (Fraction(2), Fraction(3), Fraction(1, 2)):
        for m in (1, 2, 3, 4):
            cases.append((q, Block("G", 2 * m, rationals().scalar(lam))))
    for ctx, desc in cases:
        a = canonical_block_matrix(desc, ctx)
        form, w = canonicalize(a)
        assert form.gabriel == []
        assert len(form.blocks) == 1
        got = form.blocks[0]
        assert got.family == desc.family and got.n == desc.n, (desc, got)
        if desc.family == "G":
            lam = desc.lam.promote(form.context)
            inv = lam.inverse()
            assert got.lam in (lam, inv)


def test_block_elementary_divisor_table():
    # the asymmetry of each block matrix has exactly the listed divisors
    q = rationals()
    f2 = prime_field(2)
    one_q, one_2 = q.one(), f2.one()
    rows = []
    for n in (1, 3, 5, 7):
        rows.append((canonical_block_matrix(Block("A", n), q), [(one_q, n)]))
        rows.append((canonical_block_matrix(Block("B", n), f2), [(one_2, n)]))
    for n in (2, 4, 6, 8):
        rows.append((canonical_block_matrix(Block("C", n), q), [(-one_q, n)]))
    for n in (4, 8):
        m = n // 2
        rows.append((canonical_block_matrix(Block("D", n), q),
                     [(one_q, m), (one_q, m)]))
    for n in (2, 6):
        m = n // 2
        rows.append((canonical_block_matrix(Block("E", n), f2),
                     [(one_2, m), (one_2, m)]))
        rows.append((canonical_block_matrix(Block("F", n), q),
                     [(-one_q, m), (-one_q, m)]))
    for a, divisors in rows:
        s = asymmetry(a).s
        seen = {}
        for lam, m in divisors:
            seen.setdefault((id(lam.ctx), tuple(lam.coords)), [lam, {}])
        for lam, m in divisors:
            key = (id(lam.ctx), tuple(lam.coords))
            seen[key][1][m] = seen[key][1].get(m, 0) + 1
        for lam, mults in seen.values():
            assert elementary_divisor_multiplicities(s, lam) == mults


def test_invariants_examples():
    f2 = prime_field(2)
    rec = invariants(ExactMatrix.identity(f2, 2))
    assert rec.gabriel == ()
    (eps, mults, flags), = rec.unipotent
    assert mults == {1: 2}
    assert flags == {1: False}

    rec2 = invariants(ExactMatrix(f2, [[0, 1], [1, 0]]))
    (eps, mults, flags), = rec2.unipotent
    assert mults == {1: 2}
    assert flags == {1: True}
    assert rec != rec2

    q = rationals()
    a = ExactMatrix.block_diag(q, [ExactMatrix(q, [[0, 2], [1, 0]]),
                                   gamma_matrix(q, 1)])
    rec3 = invariants(a)
    assert len(rec3.pairs) == 1
    lam, mults = rec3.pairs[0]
    assert lam == q.scalar(Fraction(1, 2))
    assert mults == {1: 1}
    assert rec3.unipotent[0][1] == {1: 1}


def test_equivalent_scaling():
    q = rationals()
    a = ExactMatrix(q, [[1]])
    b = ExactMatrix(q, [[25]])
    res = equivalent(a, b)
    assert res.equivalent
    assert res.witness.x == ExactMatrix(q, [[5]]) or \
        res.witness.x == ExactMatrix(q, [[-5]])
    # witness satisfies Y' A Y = B by construction; spot check the value
    assert res.witness.x.transpose() @ a @ res.witness.x == b


def test_equivalent_alternating_flags_differ():
    f2 = prime_field(2)
    res = equivalent(ExactMatrix.identity(f2, 2),
                     ExactMatrix(f2, [[0, 1], [1, 0]]))
    assert not res.equivalent


def test_equivalent_dimension_mismatch():
    q = rationals()
    res = equivalent(ExactMatrix(q, [[1]]), ExactMatrix.identity(q, 2))
    assert not res.equivalent


def test_non_square_matrices_are_hypothesis_violations():
    """A non-square matrix is refused on every path, with the message of
    gabriel_decompose, before any comparison of dimensions."""
    q = rationals()
    rect = ExactMatrix(q, [[1, 2, 3], [4, 5, 6]])
    square = ExactMatrix.identity(q, 3)
    calls = [(equivalent, rect, square), (equivalent, square, rect),
             (equivalent, rect, rect), (transpose_witness, rect),
             (canonicalize, rect)]
    for call, *args in calls:
        with pytest.raises(HypothesisViolation, match="congruence needs a "
                           "square matrix, not 2 x 3"):
            call(*args)


def test_transpose_witness():
    q = rationals()
    cases = [
        ExactMatrix(q, [[1, 2], [2, 5]]),            # symmetric
        ExactMatrix.jordan_block(q, 2),
        gamma_matrix(q, 2),
        ExactMatrix.block_diag(q, [ExactMatrix.jordan_block(q, 3),
                                   gamma_matrix(q, 2)]),
    ]
    for a in cases:
        y = transpose_witness(a)
        assert y.x.transpose() @ a.promote(y.x.ctx) @ y.x == \
            a.transpose().promote(y.x.ctx)


def test_j2_transpose_via_antidiagonal():
    # the 2x2 antidiagonal permutation is a transpose witness for J_2
    q = rationals()
    j2 = ExactMatrix.jordan_block(q, 2)
    p = ExactMatrix(q, [[0, 1], [1, 0]])
    assert p.transpose() @ j2 @ p == j2.transpose()


def test_congruence_invariance_fuzz_gf3():
    rng = random.Random(101)
    f3 = prime_field(3)
    count = 0
    for _ in range(120):
        n = rng.randint(1, 3)
        a = rand_matrix(f3, rng, n)
        y = rand_invertible(f3, rng, n)
        b = y.transpose() @ a @ y
        try:
            fa, _ = canonicalize(a)
        except NotSplit:
            with pytest.raises(NotSplit):
                canonicalize(b)
            continue
        fb, _ = canonicalize(b)
        assert fa.gabriel == fb.gabriel
        assert fa.blocks == fb.blocks
        count += 1
    assert count > 60


def test_congruence_invariance_fuzz_rational():
    rng = random.Random(103)
    q = rationals()
    count = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_matrix(q, rng, n, -2, 2)
        y = rand_invertible(q, rng, n, -2, 2)
        b = y.transpose() @ a @ y
        try:
            fa, _ = canonicalize(a)
        except NotSplit:
            with pytest.raises(NotSplit):
                canonicalize(b)
            continue
        fb, _ = canonicalize(b)
        assert fa.gabriel == fb.gabriel
        assert fa.blocks == fb.blocks
        count += 1
    assert count > 25


def test_strict_policy_gf2_counterexample_pair():
    # the order-2 pair matrices with a=b=1 vs a=b=0 over GF(2): strict
    # policy cannot certify; extend policy decides over GF(4)
    f2 = prime_field(2)
    c11 = ExactMatrix(f2, [[1, 0, 1, 1],
                           [0, 0, 0, 1],
                           [1, 0, 0, 0],
                           [0, 1, 0, 1]])
    c00 = ExactMatrix(f2, [[0, 0, 1, 1],
                           [0, 0, 0, 1],
                           [1, 0, 0, 0],
                           [0, 1, 0, 0]])
    with pytest.raises(NoRootStrictPolicy):
        canonicalize(c11, STRICT)
    form0, _ = canonicalize(c00, STRICT)
    assert [repr(b) for b in form0.blocks] == ["D4"]
    res = equivalent(c11, c00, EXTEND)
    assert res.equivalent
    assert res.extensions  # certified only over the extension


def test_extension_report():
    q = rationals()
    a = ExactMatrix(q, [[2]])  # needs sqrt(2)
    form, w = canonicalize(a)
    assert form.extension_report == ["sqrt(2)"]
    assert [repr(b) for b in form.blocks] == ["A1"]


def test_mixed_gabriel_plus_blocks():
    q = rationals()
    a = ExactMatrix.block_diag(q, [
        ExactMatrix.jordan_block(q, 2),
        gamma_matrix(q, 3),
        ExactMatrix(q, [[0, 2], [1, 0]]),
    ])
    rng = random.Random(5)
    y = rand_invertible(q, rng, 7, -1, 1)
    b = y.transpose() @ a @ y
    form, w = canonicalize(b)
    assert form.gabriel == [2]
    fams = [bl.family for bl in form.blocks]
    assert fams == ["A", "G"]
    assert form.blocks[0].n == 3 and form.blocks[1].n == 2
    assert canonical_form_matrix(form) == w.target


def test_record_block_bijection():
    # blocks -> record -> blocks is the identity on canonical forms
    from matcanon.canon import blocks_from_record, record_from_form
    rng = random.Random(211)
    for ctx in (rationals(), prime_field(3), prime_field(2)):
        for _ in range(40):
            n = rng.randint(1, 4)
            a = rand_matrix(ctx, rng, n)
            try:
                form, _w = canonicalize(a)
            except NotSplit:
                continue
            rec = record_from_form(form)
            assert blocks_from_record(rec) == form.blocks
            assert tuple(form.gabriel) == rec.gabriel


def test_false_verdict_carries_both_records():
    q = rationals()
    a = ExactMatrix(q, [[1, 1], [0, 1]])
    b = ExactMatrix(q, [[1, 0], [0, 1]])
    res = equivalent(a, b)
    assert not res.equivalent and res.witness is None
    assert res.records == (invariants(a), invariants(b))
    assert equivalent(a, a).records is None
    assert equivalent(a, ExactMatrix(q, [[1]])).records is None


def _certified(call):
    """call()'s result and the number of congruences certified in it."""
    from matcanon.exactmat import CongruenceWitness
    checks = []
    init = CongruenceWitness.__init__

    def counted(self, *args):
        checks.append(args)
        init(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CongruenceWitness, "__init__", counted)
        result = call()
    return result, len(checks)


def test_each_answer_is_certified_once():
    """An answer is certified where it leaves the library, once: the
    Gabriel step, a stage like the others, is not certified on its own."""
    from matcanon import canon
    f3, q = prime_field(3), rationals()
    with_core = ExactMatrix(f3, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    (form, _w), count = _certified(lambda: canonicalize(with_core))
    assert form.gabriel == [2] and form.blocks == [Block("A", 1)]
    assert count == 1

    jordan_only = ExactMatrix(f3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    (form, w), count = _certified(lambda: canonicalize(jordan_only))
    assert form.blocks == [] and sum(form.gabriel) == 3
    assert w.source == jordan_only
    assert w.target == canonical_form_matrix(form)
    assert count == 1

    empty = ExactMatrix.zeros(q, 0, 0)
    (form, w), count = _certified(lambda: canonicalize(empty))
    assert form.gabriel == [] and form.blocks == [] and w.x.nrows == 0
    assert count == 1

    a = ExactMatrix(q, [[0, 2], [1, 0]])
    b = ExactMatrix(q, [[0, 8], [4, 0]])
    res, count = _certified(lambda: equivalent(a, b))
    assert res.equivalent and count == 1

    # a false verdict in one merge round: each side canonicalized once, and
    # both canonical congruences certified
    rounds = []
    step = canon._canonicalize

    def counted_step(*args):
        rounds.append(args)
        return step(*args)

    a = ExactMatrix(f3, [[1, 1], [0, 1]])
    b = ExactMatrix(f3, [[1, 0], [0, 1]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canon, "_canonicalize", counted_step)
        res, count = _certified(lambda: equivalent(a, b))
    assert not res.equivalent and len(rounds) == 2
    assert count == 2

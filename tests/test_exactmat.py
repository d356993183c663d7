import random
from fractions import Fraction

import pytest

from matcanon.errors import DimensionMismatch
from matcanon.exactmat import (CongruenceWitness, ExactMatrix, WitnessError,
                               inverse_or_rank, solve)
from matcanon.field import prime_field, rationals

from elementary import (AddSym, IndexOutOfRange, ScaleSym, SwapSym, ZeroScale,
                        elementary_congruence)


def rand_matrix(ctx, rng, n, lo=-3, hi=3):
    if ctx.kind == "rational":
        return ExactMatrix(ctx, [[rng.randint(lo, hi) for _ in range(n)]
                                 for _ in range(n)])
    return ExactMatrix(ctx, [[rng.randrange(ctx.p) for _ in range(n)]
                             for _ in range(n)])


def test_identity_product():
    q = rationals()
    a = ExactMatrix(q, [[1, 2], [3, 4]])
    i = ExactMatrix.identity(q, 2)
    assert i @ a == a
    assert a @ i == a


def test_jordan_block_shape():
    q = rationals()
    j2 = ExactMatrix.jordan_block(q, 2)
    assert j2 == ExactMatrix(q, [[0, 0], [1, 0]])
    # transpose has the 1 above the diagonal
    assert j2.transpose() == ExactMatrix(q, [[0, 1], [0, 0]])


def test_transpose_antihomomorphism_gf5():
    f = prime_field(5)
    rng = random.Random(1)
    for _ in range(20):
        x = rand_matrix(f, rng, 3)
        y = rand_matrix(f, rng, 3)
        assert (x @ y).transpose() == y.transpose() @ x.transpose()


def test_inverse_gamma2():
    # inverse of ((0,-1),(1,1)) is ((1,1),(-1,0))
    q = rationals()
    g2 = ExactMatrix(q, [[0, -1], [1, 1]])
    inv = inverse_or_rank(g2).inverse
    assert inv == ExactMatrix(q, [[1, 1], [-1, 0]])
    assert g2 @ inv == ExactMatrix.identity(q, 2)


def test_rank_kernel_j3():
    q = rationals()
    j3 = ExactMatrix.jordan_block(q, 3)
    res = inverse_or_rank(j3)
    assert res.inverse is None
    assert res.rank == 2
    # kernel of J_3 (columns e_i -> e_{i+1}) is spanned by e_3
    assert len(res.kernel) == 1
    assert res.kernel[0] == [q.zero(), q.zero(), q.one()]


def test_rank_zero_matrix():
    q = rationals()
    z = ExactMatrix.zeros(q, 4, 4)
    assert inverse_or_rank(z).rank == 0
    assert len(inverse_or_rank(z).kernel) == 4


def test_rank_nullity_random():
    rng = random.Random(2)
    f = prime_field(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = rand_matrix(f, rng, n)
        res = inverse_or_rank(a)
        assert res.rank + len(res.kernel) == n


def test_solve_identity():
    q = rationals()
    i = ExactMatrix.identity(q, 3)
    b = [q.scalar(5), q.scalar(-1), q.scalar(Fraction(1, 2))]
    part, hom = solve(i, b)
    assert part == b
    assert hom == []


def test_solve_underdetermined_gf2():
    f = prime_field(2)
    a = ExactMatrix(f, [[1, 1]])
    part, hom = solve(a, [f.one()])
    assert part == [f.one(), f.zero()]
    assert hom == [[f.one(), f.one()]]


def test_solve_inconsistent():
    q = rationals()
    a = ExactMatrix(q, [[1], [1]])
    part, hom = solve(a, [q.one(), q.zero()])
    assert part is None


def test_elementary_swap():
    q = rationals()
    a = ExactMatrix(q, [[2, 0], [0, 5]])
    a2, w = elementary_congruence(a, SwapSym(0, 1))
    assert a2 == ExactMatrix(q, [[5, 0], [0, 2]])
    assert w.x.transpose() @ a @ w.x == a2


def test_elementary_scale_1x1():
    q = rationals()
    a = ExactMatrix(q, [[3]])
    a2, w = elementary_congruence(a, ScaleSym(0, 2))
    assert a2 == ExactMatrix(q, [[12]])


def test_elementary_add_char2_c_matrix():
    # the 4x4 pair-block matrix with a=b=x=1 over GF(2): adding col 4 to
    # col 1 and row 4 to row 1 puts b*x^2+x+a = 1 in entry (1,1)
    f = prime_field(2)
    c = ExactMatrix(f, [[1, 0, 1, 1],
                        [0, 0, 0, 1],
                        [1, 0, 0, 0],
                        [0, 1, 0, 1]])
    c2, w = elementary_congruence(c, AddSym(0, 3, 1))
    assert c2[0, 0] == f.one()


def test_elementary_errors():
    q = rationals()
    a = ExactMatrix.identity(q, 2)
    with pytest.raises(IndexOutOfRange):
        elementary_congruence(a, SwapSym(0, 5))
    with pytest.raises(ZeroScale):
        elementary_congruence(a, ScaleSym(0, 0))


def test_witness_soundness_structural():
    q = rationals()
    a = ExactMatrix(q, [[1, 0], [0, 1]])
    b = ExactMatrix(q, [[4, 0], [0, 1]])
    x = ExactMatrix(q, [[2, 0], [0, 1]])
    CongruenceWitness(x, a, b)  # valid
    with pytest.raises(WitnessError):
        CongruenceWitness(x, a, a)  # wrong relation
    with pytest.raises(WitnessError):
        CongruenceWitness(ExactMatrix.zeros(q, 2, 2), a,
                          ExactMatrix.zeros(q, 2, 2))  # singular


def test_witness_composition_random():
    rng = random.Random(3)
    f = prime_field(5)
    for _ in range(20):
        a = rand_matrix(f, rng, 3)
        while True:
            x = rand_matrix(f, rng, 3)
            if inverse_or_rank(x).inverse is not None:
                break
        while True:
            y = rand_matrix(f, rng, 3)
            if inverse_or_rank(y).inverse is not None:
                break
        b = x.transpose() @ a @ x
        c = y.transpose() @ b @ y
        w1 = CongruenceWitness(x, a, b)
        w2 = CongruenceWitness(y, b, c)
        w = CongruenceWitness(w1.x @ w2.x, a, c)
        assert w.x == x @ y
        assert w.source == a and w.target == c


def test_dimension_mismatch():
    q = rationals()
    with pytest.raises(DimensionMismatch):
        ExactMatrix(q, [[1, 2]]) @ ExactMatrix(q, [[1, 2]])


def test_block_diag_and_submatrix():
    q = rationals()
    b = ExactMatrix.block_diag(q, [ExactMatrix(q, [[1]]),
                                   ExactMatrix(q, [[0, 1], [1, 0]])])
    assert b.nrows == 3
    assert b[1, 2] == q.one()
    assert b.submatrix([1, 2], [1, 2]) == ExactMatrix(q, [[0, 1], [1, 0]])


def test_empty_matrix():
    q = rationals()
    e = ExactMatrix.zeros(q, 0, 0)
    assert e.is_square()
    assert (e @ e) == e
    assert inverse_or_rank(e).rank == 0

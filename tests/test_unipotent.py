import random
from fractions import Fraction

import pytest

from matcanon.errors import NoArtinSchreierRootStrict
from matcanon.exactmat import ExactMatrix, inverse_or_rank
from matcanon.field import (EXTEND, STRICT, gf4, prime_field, rationals)
from matcanon.spectral import asymmetry, hyperbolic_block_matrix
from matcanon.unipotent import (gamma0_matrix, gamma_matrix, peel_all,
                                reduce_pair, reduce_single)

from filtration import alternating_flag, filtration


def nil_of(a, eps=None):
    asym = asymmetry(a)
    ctx = a.ctx
    eps = ctx.one() if eps is None else eps
    return asym.s - ExactMatrix.identity(ctx, a.nrows).scale(eps)


def test_alternating_flag():
    q = rationals()
    assert alternating_flag(ExactMatrix(q, [[0, 1], [-1, 0]]))
    assert not alternating_flag(ExactMatrix(q, [[1]]))
    f2 = prime_field(2)
    assert alternating_flag(ExactMatrix(f2, [[0, 1], [1, 0]]))
    assert not alternating_flag(ExactMatrix(f2, [[1, 1], [1, 0]]))


def test_gamma_matrices_match_printed_forms():
    q = rationals()
    assert gamma_matrix(q, 1) == ExactMatrix(q, [[1]])
    assert gamma_matrix(q, 2) == ExactMatrix(q, [[0, -1], [1, 1]])
    assert gamma_matrix(q, 3) == ExactMatrix(q, [[0, 0, 1],
                                                 [0, -1, -1],
                                                 [1, 1, 0]])
    assert gamma_matrix(q, 4) == ExactMatrix(q, [[0, 0, 0, -1],
                                                 [0, 0, 1, 1],
                                                 [0, -1, -1, 0],
                                                 [1, 1, 0, 0]])
    f2 = prime_field(2)
    assert gamma0_matrix(f2, 1) == ExactMatrix(f2, [[1]])
    assert gamma0_matrix(f2, 3) == ExactMatrix(f2, [[0, 0, 1],
                                                    [0, 1, 0],
                                                    [1, 1, 0]])
    assert gamma0_matrix(f2, 5) == ExactMatrix(f2, [
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 1, 0, 0],
        [1, 1, 0, 0, 0]])


def test_gamma_elementary_divisor_claims():
    # asymmetry of Gamma_n has one elementary divisor: (X-1)^n odd n,
    # (X+1)^n even n; Gamma_n^0 likewise (X-1)^n in characteristic 2
    from filtration import elementary_divisor_multiplicities
    q = rationals()
    for n in range(1, 7):
        g = gamma_matrix(q, n)
        s = asymmetry(g).s
        lam = q.one() if n % 2 == 1 else -q.one()
        assert elementary_divisor_multiplicities(s, lam) == {n: 1}
    f2 = prime_field(2)
    for n in (1, 3, 5):
        g = gamma0_matrix(f2, n)
        s = asymmetry(g).s
        assert elementary_divisor_multiplicities(s, f2.one()) == {n: 1}


def test_peel_single_1x1():
    q = rationals()
    a = ExactMatrix(q, [[1]])
    pieces = peel_all(a, nil_of(a), q.one())
    assert len(pieces) == 1
    assert pieces[0].kind == "single" and pieces[0].order == 1


def test_peel_identity_gf2_singles():
    f2 = prime_field(2)
    a = ExactMatrix.identity(f2, 2)
    pieces = peel_all(a, nil_of(a), f2.one())
    assert [p.kind for p in pieces] == ["single", "single"]


def test_peel_antidiagonal_gf2_pair():
    f2 = prime_field(2)
    a = ExactMatrix(f2, [[0, 1], [1, 0]])
    pieces = peel_all(a, nil_of(a), f2.one())
    assert len(pieces) == 1
    assert pieces[0].kind == "pair" and pieces[0].order == 1


def test_filtration_gamma1_plus_gamma3():
    q = rationals()
    a = ExactMatrix.block_diag(q, [gamma_matrix(q, 1), gamma_matrix(q, 3)])
    comps = filtration(a, nil_of(a), q.one())
    assert [(c.order, c.basis.ncols) for c in comps] == [(3, 3), (1, 1)]


def test_filtration_d4_block():
    q = rationals()
    a = hyperbolic_block_matrix(q, 2, q.one())  # ((0, J_2(1)), (I_2, 0))
    comps = filtration(a, nil_of(a), q.one())
    assert [(c.order, c.basis.ncols) for c in comps] == [(2, 4)]
    assert comps[0].pieces[0].kind == "pair"


def test_hat_form_values():
    q = rationals()
    a = gamma_matrix(q, 3)
    comps = filtration(a, nil_of(a), q.one())
    hat = comps[0].hat_gram
    assert hat.nrows == 1
    assert not hat[0, 0].is_zero()
    assert not alternating_flag(hat)

    f2 = prime_field(2)
    e2 = ExactMatrix(f2, [[0, 1], [1, 0]])
    comps = filtration(e2, nil_of(e2), f2.one())
    hat = comps[0].hat_gram
    assert alternating_flag(hat)
    assert hat == e2  # m = 1: the hat form is the form itself


def test_hat_form_scalar_asymmetry_signs():
    # hat-form asymmetry is (-1)^{m-1} for p = X-1 and (-1)^m for p = X+1
    q = rationals()
    cases = [
        (gamma_matrix(q, 3), q.one()),
        (gamma_matrix(q, 1), q.one()),
        (hyperbolic_block_matrix(q, 2, q.one()), q.one()),
        (gamma_matrix(q, 2), -q.one()),
        (gamma_matrix(q, 4), -q.one()),
        (hyperbolic_block_matrix(q, 1, -q.one()), -q.one()),
    ]
    for a, eps in cases:
        asym = asymmetry(a)
        nmat = asym.s - ExactMatrix.identity(q, a.nrows).scale(eps)
        for comp in filtration(a, nmat, eps):
            hat = comp.hat_gram
            m = comp.order
            sign = (-1) ** (m - 1) if eps == q.one() else (-1) ** m
            assert hat.transpose() == hat.scale(q.scalar(sign)), (m, sign)


def test_reduce_single_scalar_九():
    q = rationals()
    g = ExactMatrix(q, [[9]])
    w = reduce_single(g, q.one(), 1)
    ctx = w.x.ctx
    assert ctx == q
    assert w.x == ExactMatrix(q, [[Fraction(1, 3)]])
    assert w.target == ExactMatrix(q, [[1]])


def test_reduce_single_gamma_self():
    q = rationals()
    for n, eps in ((1, q.one()), (3, q.one()), (5, q.one()),
                   (2, -q.one()), (4, -q.one()), (6, -q.one())):
        gm = gamma_matrix(q, n)
        asym = asymmetry(gm)
        nmat = asym.s - ExactMatrix.identity(q, n).scale(eps)
        pieces = peel_all(gm, nmat, eps)
        assert len(pieces) == 1 and pieces[0].kind == "single"
        w = reduce_single(pieces[0].gram, eps, n)
        ctx = w.x.ctx
        assert w.target == gamma_matrix(ctx, n)


def test_reduce_single_scrambled_gamma5():
    rng = random.Random(61)
    q = rationals()
    base = gamma_matrix(q, 5)
    for _ in range(5):
        while True:
            y = ExactMatrix(q, [[rng.randint(-2, 2) for _ in range(5)]
                                for _ in range(5)])
            if inverse_or_rank(y).inverse is not None:
                break
        a = y.transpose() @ base @ y
        asym = asymmetry(a)
        nmat = asym.s - ExactMatrix.identity(q, 5)
        pieces = peel_all(a, nmat, q.one())
        assert len(pieces) == 1
        w = reduce_single(pieces[0].gram, q.one(), 5)
        ctx = w.x.ctx
        assert w.target == gamma_matrix(ctx, 5)


def test_reduce_single_char2_gamma3():
    f2 = prime_field(2)
    g30 = gamma0_matrix(f2, 3)
    asym = asymmetry(g30)
    nmat = asym.s - ExactMatrix.identity(f2, 3)
    pieces = peel_all(g30, nmat, f2.one())
    assert [p.kind for p in pieces] == ["single"]
    w = reduce_single(pieces[0].gram, f2.one(), 3)
    ctx = w.x.ctx
    assert w.target == gamma0_matrix(ctx, 3)


def test_case3_matrix_over_gf4():
    # the characteristic-2 order-3 matrix ((a,0,1),(1,1,0),(1,0,0)) with
    # a = omega needs the Artin-Schreier root of omega: GF(16)
    f4 = gf4()
    om = f4.base_element((0, 1))
    a = ExactMatrix(f4, [[om, f4.zero(), f4.one()],
                         [f4.one(), f4.one(), f4.zero()],
                         [f4.one(), f4.zero(), f4.zero()]])
    asym = asymmetry(a)
    nmat = asym.s - ExactMatrix.identity(f4, 3)
    pieces = peel_all(a, nmat, f4.one())
    assert [p.kind for p in pieces] == ["single"]
    w = reduce_single(pieces[0].gram, f4.one(), 3, EXTEND)
    ctx = w.x.ctx
    assert len(ctx.tower) == 1  # one Artin-Schreier adjunction
    assert w.target == gamma0_matrix(ctx, 3)
    with pytest.raises(NoArtinSchreierRootStrict):
        reduce_single(pieces[0].gram, f4.one(), 3, STRICT)


def paper_pair_m2(ctx, a, b):
    return ExactMatrix(ctx, [[a, 0, 1, 1],
                             [0, 0, 0, 1],
                             [1, 0, 0, 0],
                             [0, 1, 0, b]])


def test_pair_m1_bases():
    q = rationals()
    for eps in (q.one(), -q.one()):
        g = ExactMatrix(q, [[q.zero(), eps * q.scalar(3)],
                            [q.scalar(3), q.zero()]])
        w = reduce_pair(g, eps, 1)
        ctx = w.x.ctx
        assert w.target == hyperbolic_block_matrix(ctx, 1, eps)


def peel_one_pair(a, eps, m):
    nmat = asymmetry(a).s - ExactMatrix.identity(a.ctx, a.nrows).scale(eps)
    pieces = peel_all(a, nmat, eps)
    assert [p.kind for p in pieces] == ["pair"]
    assert pieces[0].order == m
    return pieces[0]


def test_pair_m2_paper_matrix_rational():
    q = rationals()
    c = paper_pair_m2(q, q.scalar(1), q.scalar(1))
    piece = peel_one_pair(c, q.one(), 2)
    w = reduce_pair(piece.gram, q.one(), 2)
    ctx = w.x.ctx
    assert w.target == hyperbolic_block_matrix(ctx, 2, q.one())
    c = paper_pair_m2(q, q.zero(), q.zero())
    piece = peel_one_pair(c, q.one(), 2)
    w = reduce_pair(piece.gram, q.one(), 2)
    ctx = w.x.ctx
    assert ctx == q
    assert w.target == hyperbolic_block_matrix(q, 2, q.one())


def test_pair_m2_char2_needs_artin_schreier():
    f2 = prime_field(2)
    c = paper_pair_m2(f2, f2.one(), f2.one())
    piece = peel_one_pair(c, f2.one(), 2)
    with pytest.raises(NoArtinSchreierRootStrict):
        reduce_pair(piece.gram, f2.one(), 2, STRICT)
    w = reduce_pair(piece.gram, f2.one(), 2, EXTEND)
    ctx = w.x.ctx
    assert len(ctx.tower) == 1
    assert w.target == hyperbolic_block_matrix(ctx, 2, f2.one())


def test_pair_m2_char2_one_zero_corner():
    f2 = prime_field(2)
    for a, b in ((f2.one(), f2.zero()), (f2.zero(), f2.one()),
                 (f2.zero(), f2.zero())):
        c = paper_pair_m2(f2, a, b)
        piece = peel_one_pair(c, f2.one(), 2)
        w = reduce_pair(piece.gram, f2.one(), 2, STRICT)
        ctx = w.x.ctx
        assert ctx == f2


def test_hyperbolic_j1_plus_decomposes_over_q():
    # ((0, J_1(1)), (I, 0)) has a symmetric non-alternating hat form away
    # from characteristic 2, so it splits into two singles
    q = rationals()
    a = hyperbolic_block_matrix(q, 1, q.one())
    nmat = asymmetry(a).s - ExactMatrix.identity(q, 2)
    pieces = peel_all(a, nmat, q.one())
    assert [p.kind for p in pieces] == ["single", "single"]


def test_pair_scrambled_blocks():
    rng = random.Random(67)
    q = rationals()
    for m, eps in ((2, q.one()), (4, q.one()), (1, -q.one()),
                   (3, -q.one())):
        base = hyperbolic_block_matrix(q, m, eps)
        n = 2 * m
        for _ in range(4):
            while True:
                y = ExactMatrix(q, [[rng.randint(-2, 2) for _ in range(n)]
                                    for _ in range(n)])
                if inverse_or_rank(y).inverse is not None:
                    break
            a = y.transpose() @ base @ y
            nmat = asymmetry(a).s - ExactMatrix.identity(q, n).scale(eps)
            pieces = peel_all(a, nmat, eps)
            assert [p.kind for p in pieces] == ["pair"], (m, eps)
            w = reduce_pair(pieces[0].gram, eps, m)
            ctx = w.x.ctx
            assert w.target == hyperbolic_block_matrix(ctx, m, eps)


def test_pair_scrambled_char2():
    rng = random.Random(71)
    f2 = prime_field(2)
    for m in (1, 2, 3):
        base = hyperbolic_block_matrix(f2, m, f2.one())
        n = 2 * m
        for _ in range(6):
            while True:
                y = ExactMatrix(f2, [[rng.randrange(2) for _ in range(n)]
                                     for _ in range(n)])
                if inverse_or_rank(y).inverse is not None:
                    break
            a = y.transpose() @ base @ y
            nmat = asymmetry(a).s - ExactMatrix.identity(f2, n)
            pieces = peel_all(a, nmat, f2.one())
            assert [p.kind for p in pieces] == ["pair"], m
            w = reduce_pair(pieces[0].gram, f2.one(), m, EXTEND)
            ctx = w.x.ctx
            assert w.target == hyperbolic_block_matrix(ctx, m, f2.one())


def test_reduce_single_parity_violations():
    from matcanon.errors import HypothesisViolation
    q = rationals()
    f2 = prime_field(2)
    with pytest.raises(HypothesisViolation):
        reduce_single(ExactMatrix(q, [[0, 1], [1, 0]]), q.one(), 2)
    with pytest.raises(HypothesisViolation):
        reduce_single(ExactMatrix(q, [[1]]), -q.one(), 1)
    with pytest.raises(HypothesisViolation):
        reduce_single(ExactMatrix(f2, [[0, 1], [1, 1]]), f2.one(), 2)


def test_gamma0_even_order_rejected():
    from matcanon.errors import HypothesisViolation
    f2 = prime_field(2)
    with pytest.raises(HypothesisViolation):
        gamma0_matrix(f2, 4)

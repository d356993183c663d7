import random
from fractions import Fraction

import pytest

from matcanon.errors import ContextMismatch, DimensionMismatch
from matcanon.exactmat import (CongruenceWitness, ExactMatrix, WitnessError,
                               inverse_or_rank, solve)
from matcanon.field import (Scalar, artin_schreier_root_or_adjoin, gf4,
                            prime_field, rationals)

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
    assert res.kernel.ncols == 1
    assert res.kernel == ExactMatrix(q, [[0], [0], [1]])


def test_rank_zero_matrix():
    q = rationals()
    z = ExactMatrix.zeros(q, 4, 4)
    assert inverse_or_rank(z).rank == 0
    assert inverse_or_rank(z).kernel.ncols == 4


def test_rank_nullity_random():
    rng = random.Random(2)
    f = prime_field(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = rand_matrix(f, rng, n)
        res = inverse_or_rank(a)
        assert res.rank + res.kernel.ncols == n


def test_solve_identity():
    q = rationals()
    i = ExactMatrix.identity(q, 3)
    b = ExactMatrix(q, [[5], [-1], [Fraction(1, 2)]])
    part, hom = solve(i, b)
    assert part == b
    assert hom == ExactMatrix.zeros(q, 3, 0)


def test_solve_underdetermined_gf2():
    f = prime_field(2)
    a = ExactMatrix(f, [[1, 1]])
    part, hom = solve(a, ExactMatrix(f, [[1]]))
    assert part == ExactMatrix(f, [[1], [0]])
    assert hom == ExactMatrix(f, [[1], [1]])


def test_solve_inconsistent():
    q = rationals()
    a = ExactMatrix(q, [[1], [1]])
    part, hom = solve(a, ExactMatrix(q, [[1], [0]]))
    assert part is None


def test_solve_checks_and_lifts_its_right_hand_side():
    """A right-hand side with the wrong row count is a DimensionMismatch,
    shorter or longer; one over an extension of a's field is solved there,
    and so are several columns at once."""
    q = rationals()
    a = ExactMatrix(q, [[1, 1], [0, 1]])
    for rows in (1, 3):
        with pytest.raises(DimensionMismatch):
            solve(a, ExactMatrix.zeros(q, rows, 1))
    ext = q.adjoin_sqrt(q.scalar(2))
    r = ext.generator(1)
    b = ExactMatrix(ext, [[r, 1], [2, r]])
    part, hom = solve(a, b)
    assert part.ctx == ext and hom.ctx == ext
    assert part == ExactMatrix(ext, [[r - 2, 1 - r], [2, r]])
    assert a @ part == b
    assert hom == ExactMatrix.zeros(q, 2, 0)


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


def _witness_eliminations(monkeypatch, x, a, b):
    """The matrices CongruenceWitness(x, a, b) eliminates, in order."""
    from matcanon import exactmat
    seen = []
    original = exactmat.inverse_or_rank

    def recording(m, rank_only=False):
        seen.append(m)
        return original(m, rank_only)

    with monkeypatch.context() as patch:
        patch.setattr(exactmat, "inverse_or_rank", recording)
        CongruenceWitness(x, a, b)
    return seen


def test_a_non_singular_target_proves_the_witness_invertible(monkeypatch):
    # rank X >= rank X'AX = rank B: a non-singular B is the one elimination,
    # and X is never reduced
    rng = random.Random(5)
    q = rationals()
    sqrt2 = q.adjoin_sqrt(q.scalar(2))
    g1 = sqrt2.generator(1)
    checked = 0
    for ctx in (q, prime_field(5), sqrt2):
        for _ in range(5):
            a = rand_matrix(ctx, rng, 3)
            x = rand_matrix(ctx, rng, 3)
            if ctx is sqrt2:
                x = x + ExactMatrix.identity(ctx, 3).scale(g1)
            b = x.transpose() @ a @ x
            if inverse_or_rank(b).inverse is None:
                continue
            assert b != x
            assert _witness_eliminations(monkeypatch, x, a, b) == [b]
            checked += 1
    assert checked >= 10


def test_a_target_below_the_witness_field_is_reduced_in_its_own_field(
        monkeypatch):
    # X = diag(g1, 1/g1) over Q(sqrt 2) takes I to diag(2, 1/2), over Q
    q = rationals()
    g1 = q.adjoin_sqrt(q.scalar(2)).generator(1)
    x = ExactMatrix(g1.ctx, [[g1, 0], [0, 1 / g1]])
    a = ExactMatrix.identity(q, 2)
    b = ExactMatrix(q, [[2, 0], [0, Fraction(1, 2)]])
    seen = _witness_eliminations(monkeypatch, x, a, b)
    assert seen == [b] and not seen[0].ctx.tower
    wit = CongruenceWitness(x, a, b)
    assert wit.x.ctx == g1.ctx and wit.target == b


def test_a_singular_target_falls_back_to_the_witness_rank(monkeypatch):
    # B's rank 1 proves nothing about X; X's own rank 2 does
    q = rationals()
    a = ExactMatrix(q, [[1, 0], [0, 0]])
    x = ExactMatrix(q, [[1, 2], [0, 3]])
    b = x.transpose() @ a @ x
    assert b == ExactMatrix(q, [[1, 2], [2, 4]])
    assert _witness_eliminations(monkeypatch, x, a, b) == [b, x]
    assert CongruenceWitness(x, a, b).x == x


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


# -- the raw-row representation -----------------------------------------------

def _towers():
    """(name, base, extension) on each kind of raw value: normalized
    integer vectors (Q), ints then tables (GF(3)), tables (GF(4), whose
    entries may be given as coordinate tuples) and vectors mod p above the
    table cap (GF(65521))."""
    q, f3, f4, big = rationals(), prime_field(3), gf4(), prime_field(65521)
    _r, f4_as = artin_schreier_root_or_adjoin(f4.base_element((0, 1)))
    return [("Q", q, q.adjoin_sqrt(q.scalar(2))),
            ("GF(3)", f3, f3.adjoin_sqrt(f3.scalar(-1))),
            ("GF(4)", f4, f4_as),
            ("GF(65521)", big, big.adjoin_sqrt(big.scalar(17)))]


TOWERS = _towers()


def _entries(base, ext):
    """Rows mixing ints, Fractions, base elements, Scalars of the base (a
    prefix of ext) and Scalars of ext."""
    g = ext.generator(1)
    first = (0, 1) if base.kind == "gfq" else Fraction(-2, 5)
    return [[3, first, base.scalar(7)], [g, g * g + 1, -1]]


@pytest.mark.parametrize("name, base, ext", TOWERS, ids=[t[0] for t in TOWERS])
def test_mixed_entries_give_the_promoted_matrix(name, base, ext):
    rows = _entries(base, ext)
    got = ExactMatrix(base, rows)
    want = ExactMatrix(ext, [[ext.scalar(e) for e in row] for row in rows])
    assert got.ctx == ext and (got.nrows, got.ncols) == (2, 3)
    assert got == want and got.raw == want.raw
    assert ExactMatrix(ext, got.rows) == want


@pytest.mark.parametrize("name, base, ext", TOWERS, ids=[t[0] for t in TOWERS])
def test_promotion_keeps_equality_and_hash(name, base, ext):
    a = ExactMatrix(base, [[1, 2, 0], [5, 0, base.scalar(3)]])
    up = a.promote(ext)
    assert up.ctx == ext and up == a and a == up
    assert hash(up) == hash(a)
    assert up.trim() == a and up.trim().ctx == base
    assert a.promote(base) is a


@pytest.mark.parametrize("name, base, ext", TOWERS, ids=[t[0] for t in TOWERS])
def test_entries_read_out_as_scalars(name, base, ext):
    a = ExactMatrix(base, _entries(base, ext))
    for i in range(a.nrows):
        for j in range(a.ncols):
            e = a[i, j]
            assert isinstance(e, Scalar) and e.ctx == ext
            assert a.rows[i][j] == e and a.rows[i][j].coords == e.coords
            assert a.transpose()[j, i] == e
            assert len(e.coords) == ext.dim
    assert isinstance(a.rows, tuple) and all(isinstance(r, tuple)
                                             for r in a.rows)
    assert a.rows[1][0].coords == ext.generator(1).coords


def test_promotion_off_the_tower_raises():
    q = rationals()
    sqrt2 = q.adjoin_sqrt(q.scalar(2))
    sqrt3 = q.adjoin_sqrt(q.scalar(3))
    a = ExactMatrix(sqrt2, [[sqrt2.generator(1), 1]])
    for ctx in (sqrt3, q, prime_field(3)):
        with pytest.raises(ContextMismatch):
            a.promote(ctx)
    with pytest.raises(ContextMismatch):
        ExactMatrix(prime_field(3), [[1]]).promote(prime_field(5))
    assert a != ExactMatrix(sqrt3, [[sqrt3.generator(1), 1]])


@pytest.mark.parametrize("name, base, ext", TOWERS, ids=[t[0] for t in TOWERS])
def test_empty_shapes_survive_the_kernels(name, base, ext):
    rng = random.Random("empty " + name)
    full = ExactMatrix(base, [[rng.randrange(5) for _ in range(3)]
                              for _ in range(2)])
    for r, c in ((0, 3), (3, 0), (0, 0)):
        e = ExactMatrix.zeros(base, r, c)
        t = e.transpose()
        assert (t.nrows, t.ncols) == (c, r) and t.transpose() == e
        # a zero matrix has the unit kernel basis, c x c, also with no rows
        assert inverse_or_rank(e, rank_only=True).kernel == \
            ExactMatrix.identity(base, c)
        part, hom = solve(e, ExactMatrix.zeros(ext, r, 2))
        assert part == ExactMatrix.zeros(ext, c, 2) and part.ctx == ext
        assert hom == ExactMatrix.identity(ext, c)
    kernel = inverse_or_rank(ExactMatrix.identity(base, 3)).kernel
    assert (kernel.nrows, kernel.ncols) == (3, 0)
    part, _hom = solve(full, ExactMatrix.zeros(base, 2, 0))
    assert (part.nrows, part.ncols) == (3, 0)
    top = ExactMatrix.zeros(base, 0, 3) @ full.transpose()
    assert (top.nrows, top.ncols) == (0, 2)
    left = ExactMatrix.zeros(base, 2, 0) @ ExactMatrix.zeros(base, 0, 4)
    assert (left.nrows, left.ncols) == (2, 4) and left.is_zero()
    assert (full @ ExactMatrix.zeros(base, 3, 0)).ncols == 0
    d = ExactMatrix.block_diag(base, [ExactMatrix.zeros(base, 0, 2), full,
                                      ExactMatrix.zeros(base, 1, 0)])
    assert (d.nrows, d.ncols) == (3, 5)
    assert d.submatrix(range(2), range(2, 5)) == full
    assert d.submatrix([2], range(5)).is_zero()
    assert d.submatrix(range(2), range(2)).is_zero()
    assert ExactMatrix.block_diag(ext, []) == ExactMatrix.zeros(ext, 0, 0)


def test_blocks_tile_and_check_their_shapes():
    q = rationals()
    sqrt2 = q.adjoin_sqrt(q.scalar(2))
    a = ExactMatrix(q, [[1, 2], [3, 4]])
    g = ExactMatrix(sqrt2, [[sqrt2.generator(1)], [0]])
    m = ExactMatrix.blocks(q, [[a, g], [ExactMatrix.zeros(q, 1, 2),
                                        ExactMatrix.identity(q, 1)]])
    assert m.ctx == sqrt2
    assert m == ExactMatrix(q, [[1, 2, sqrt2.generator(1)], [3, 4, 0],
                                [0, 0, 1]])
    assert ExactMatrix.blocks(q, [[a], [a.transpose()]]) == \
        ExactMatrix(q, [[1, 2], [3, 4], [1, 3], [2, 4]])
    with pytest.raises(DimensionMismatch):
        ExactMatrix.blocks(q, [[a, ExactMatrix.identity(q, 1)]])
    with pytest.raises(DimensionMismatch):
        ExactMatrix.blocks(q, [[a], [ExactMatrix.identity(q, 1)]])

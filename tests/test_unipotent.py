import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from matcanon import canon, exactmat, spectral, unipotent
from matcanon.canon import Block, canonical_block_matrix, canonicalize
from matcanon.cli import form_to_json
from matcanon.errors import NoArtinSchreierRootStrict
from matcanon.exactmat import ExactMatrix, WitnessError, inverse_or_rank
from matcanon.field import STRICT, gf4, prime_field, rationals
from matcanon.spectral import (UnipotentClass, asymmetry, asymmetry_matrix,
                               asymmetry_or_kernel, eigen_split,
                               hyperbolic_block_matrix, split_min_poly)
from matcanon.unipotent import (FAMILIES, exists_in, gamma0_matrix,
                                gamma_matrix, peel_all, reduce_pair,
                                reduce_single, split_off_indecomposable)

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
    pieces = peel_all(a, nil_of(a))
    assert len(pieces) == 1
    assert pieces[0].kind == "single" and pieces[0].order == 1


@pytest.mark.parametrize("gram", [
    ExactMatrix(rationals(), [[Fraction(5, 2)]]),
    ExactMatrix(prime_field(2), [[1]]),
    ExactMatrix(gf4(), [[gf4().base_element((0, 1))]]),
], ids=["q", "gf2", "gf4"])
def test_a_1x1_class_is_the_single_a_split_finds(gram):
    # peel_all answers a 1 x 1 class without a split; the split gives the
    # same piece, raw value for raw value, and an empty complement
    piece, = peel_all(gram, nil_of(gram))
    split, comp, *_rest = split_off_indecomposable(gram, nil_of(gram))
    assert comp.ncols == 0
    assert piece[:2] == split[:2] == ("single", 1)
    for got, want in zip(piece[2:], split[2:]):  # basis and gram
        assert (got.ctx, got.raw) == (want.ctx, want.raw)


def block_sum(ctx, blocks):
    return ExactMatrix.block_diag(
        ctx, [canonical_block_matrix(b, ctx) for b in blocks])


@pytest.mark.parametrize("a, products", [
    (ExactMatrix(rationals(), [[Fraction(5, 2)]]), 0),
    (ExactMatrix(prime_field(2), [[1]]), 0),
    # a 1 x 1 class at 1, a pair class {2, 1/2} and a 2 x 2 class at -1:
    # B'AB for each class and S's free rows times B for the 2 x 2 one
    (ExactMatrix.block_diag(rationals(), [
        ExactMatrix(rationals(), [[3]]),
        block_sum(rationals(), [Block("G", 2, rationals().scalar(2)),
                                Block("F", 2)])]), 7),
], ids=["q", "gf2", "q-three-classes"])
def test_a_1x1_class_forms_no_asymmetry(a, products, monkeypatch):
    # the asymmetry is formed once, for the core: each +-1 class is peeled
    # on the operator the split gives it, and a 1 x 1 class carries none
    # and has no product formed for one; it answers as when a 1 x 1 class
    # is split on the asymmetry it has.  A first call fills the Gamma-side
    # memo, whose misses form the asymmetry of Gamma_n; S is counted where
    # canon and spectral look up the one elimination that forms it
    canonicalize(a)
    calls, peeled, formed = [], [], [0]
    for module in (canon, spectral):
        monkeypatch.setattr(module, "asymmetry_or_kernel", lambda g: (
            calls.append(g) or asymmetry_or_kernel(g)))
    monkeypatch.setattr(canon, "peel_all", lambda gram, nmat: (
        peeled.append((gram.nrows, nmat)) or peel_all(gram, nmat)))
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__", lambda x, y: (
        formed.__setitem__(0, formed[0] + (depth[0] > 0)) or matmul(x, y)))
    depth = depth_of(monkeypatch, canon, "eigen_split")
    form, witness = canonicalize(a)
    monkeypatch.setattr(ExactMatrix, "__matmul__", matmul)
    assert formed[0] == products
    assert len(calls) == 1
    assert "asymmetry_matrix" not in vars(canon)
    assert peeled and all((nmat is None) == (size == 1)
                          for size, nmat in peeled)
    assert 1 in [size for size, _nmat in peeled]

    def split_peel(gram, nmat):
        if gram.nrows > 1:
            return peel_all(gram, nmat)
        assert nmat is None
        nmat = asymmetry_matrix(gram).minus_scalar(gram.ctx.one())
        return [split_off_indecomposable(gram, nmat)[0]]

    monkeypatch.setattr(canon, "peel_all", split_peel)
    want_form, want = canonicalize(a)
    assert form == want_form
    for got, ref in ((witness.x, want.x), (witness.target, want.target)):
        assert (got.ctx, got.raw) == (ref.ctx, ref.raw)


def test_peel_identity_gf2_singles():
    f2 = prime_field(2)
    a = ExactMatrix.identity(f2, 2)
    pieces = peel_all(a, nil_of(a))
    assert [p.kind for p in pieces] == ["single", "single"]


def test_peel_antidiagonal_gf2_pair():
    f2 = prime_field(2)
    a = ExactMatrix(f2, [[0, 1], [1, 0]])
    pieces = peel_all(a, nil_of(a))
    assert len(pieces) == 1
    assert pieces[0].kind == "pair" and pieces[0].order == 1


@pytest.mark.parametrize("gram", [
    ExactMatrix.identity(prime_field(2), 2),
    ExactMatrix(prime_field(2), [[0, 1], [1, 0]]),
    ExactMatrix.block_diag(rationals(), [gamma_matrix(rationals(), 1),
                                         gamma_matrix(rationals(), 3)]),
    gamma_matrix(prime_field(3), 5),
], ids=["gf2-singles", "gf2-pair", "q-gamma1-gamma3", "gf3-gamma5"])
def test_a_peel_forms_no_empty_product(gram, monkeypatch):
    # the last split leaves an empty complement: its Gram matrix, its
    # operator and its basis in the original coordinates take no product
    nmat = nil_of(gram)
    shapes, matmul = [], ExactMatrix.__matmul__

    def recording(a, b):
        shapes.append((a.nrows, a.ncols, b.ncols))
        return matmul(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", recording)
    pieces = peel_all(gram, nmat)
    assert sum(p.basis.ncols for p in pieces) == gram.nrows
    assert shapes and all(all(shape) for shape in shapes), shapes


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
    x = reduce_single(g, q.one(), 1)
    assert x.ctx == q
    assert x == ExactMatrix(q, [[Fraction(1, 3)]])
    assert x.transpose() @ g @ x == ExactMatrix(q, [[1]])


def test_reduce_single_gamma_self():
    q = rationals()
    for n, eps in ((1, q.one()), (3, q.one()), (5, q.one()),
                   (2, -q.one()), (4, -q.one()), (6, -q.one())):
        gm = gamma_matrix(q, n)
        asym = asymmetry(gm)
        nmat = asym.s - ExactMatrix.identity(q, n).scale(eps)
        pieces = peel_all(gm, nmat)
        assert len(pieces) == 1 and pieces[0].kind == "single"
        g = pieces[0].gram
        x = reduce_single(g, eps, n)
        assert x.transpose() @ g @ x == gamma_matrix(x.ctx, n)


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
        pieces = peel_all(a, nmat)
        assert len(pieces) == 1
        g = pieces[0].gram
        x = reduce_single(g, q.one(), 5)
        assert x.transpose() @ g @ x == gamma_matrix(x.ctx, 5)


def test_reduce_single_char2_gamma3():
    f2 = prime_field(2)
    g30 = gamma0_matrix(f2, 3)
    asym = asymmetry(g30)
    nmat = asym.s - ExactMatrix.identity(f2, 3)
    pieces = peel_all(g30, nmat)
    assert [p.kind for p in pieces] == ["single"]
    g = pieces[0].gram
    x = reduce_single(g, f2.one(), 3)
    assert x.transpose() @ g @ x == gamma0_matrix(x.ctx, 3)


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
    pieces = peel_all(a, nmat)
    assert [p.kind for p in pieces] == ["single"]
    g = pieces[0].gram
    x = reduce_single(g, f4.one(), 3)
    assert len(x.ctx.tower) == 1  # one Artin-Schreier adjunction
    assert x.transpose() @ g @ x == gamma0_matrix(x.ctx, 3)
    with pytest.raises(NoArtinSchreierRootStrict):
        canonicalize(a, STRICT)


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
        x = reduce_pair(g, 1)
        assert x.transpose() @ g @ x == hyperbolic_block_matrix(x.ctx, 1, eps)


def peel_one_pair(a, eps, m):
    nmat = asymmetry(a).s - ExactMatrix.identity(a.ctx, a.nrows).scale(eps)
    pieces = peel_all(a, nmat)
    assert [p.kind for p in pieces] == ["pair"]
    assert pieces[0].order == m
    return pieces[0]


def test_pair_m2_paper_matrix_rational():
    q = rationals()
    c = paper_pair_m2(q, q.scalar(1), q.scalar(1))
    g = peel_one_pair(c, q.one(), 2).gram
    x = reduce_pair(g, 2)
    assert x.transpose() @ g @ x == hyperbolic_block_matrix(x.ctx, 2, q.one())
    c = paper_pair_m2(q, q.zero(), q.zero())
    g = peel_one_pair(c, q.one(), 2).gram
    x = reduce_pair(g, 2)
    assert x.ctx == q
    assert x.transpose() @ g @ x == hyperbolic_block_matrix(q, 2, q.one())


def test_pair_m2_char2_needs_artin_schreier():
    f2 = prime_field(2)
    c = paper_pair_m2(f2, f2.one(), f2.one())
    g = peel_one_pair(c, f2.one(), 2).gram
    with pytest.raises(NoArtinSchreierRootStrict):
        canonicalize(c, STRICT)
    x = reduce_pair(g, 2)
    assert len(x.ctx.tower) == 1
    assert x.transpose() @ g @ x == hyperbolic_block_matrix(x.ctx, 2,
                                                           f2.one())


def test_pair_m2_char2_one_zero_corner():
    f2 = prime_field(2)
    for a, b in ((f2.one(), f2.zero()), (f2.zero(), f2.one()),
                 (f2.zero(), f2.zero())):
        c = paper_pair_m2(f2, a, b)
        piece = peel_one_pair(c, f2.one(), 2)
        assert reduce_pair(piece.gram, 2).ctx == f2
        form, _wit = canonicalize(c, STRICT)
        assert form.context == f2


def test_hyperbolic_j1_plus_decomposes_over_q():
    # ((0, J_1(1)), (I, 0)) has a symmetric non-alternating hat form away
    # from characteristic 2, so it splits into two singles
    q = rationals()
    a = hyperbolic_block_matrix(q, 1, q.one())
    nmat = asymmetry(a).s - ExactMatrix.identity(q, 2)
    pieces = peel_all(a, nmat)
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
            pieces = peel_all(a, nmat)
            assert [p.kind for p in pieces] == ["pair"], (m, eps)
            g = pieces[0].gram
            x = reduce_pair(g, m)
            assert x.transpose() @ g @ x == hyperbolic_block_matrix(
                x.ctx, m, eps)


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
            pieces = peel_all(a, nmat)
            assert [p.kind for p in pieces] == ["pair"], m
            g = pieces[0].gram
            x = reduce_pair(g, m)
            assert x.transpose() @ g @ x == hyperbolic_block_matrix(
                x.ctx, m, f2.one())


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


def scrambled(blocks, ctx, seed, elements=None):
    """Y' B Y for the block sum B and a random invertible Y over ctx, with
    entries drawn from elements (by default every element of ctx)."""
    base = block_sum(ctx, blocks)
    n, rng = base.nrows, random.Random(seed)
    elements = elements or list(ctx.iter_elements())
    while True:
        y = ExactMatrix(ctx, [[rng.choice(elements) for _ in range(n)]
                              for _ in range(n)])
        if inverse_or_rank(y, rank_only=True).rank == n:
            return y.transpose() @ base @ y


# (field, blocks, the most products and eliminations the +-1 reduction may
# make) for scrambled sums of the bench's blocksum-gfp families: a pair
# repair forms only the 4 x 4 form on gen, p gen, p^{m-2} w and p^{m-1} w,
# and reads the duals d_0, d_1 off it, with no elimination
BUDGETS = [
    (prime_field(2), "B1 B3 D4 E2", 75),
    (prime_field(3), "A3 C2 D8 F2", 85),
    (gf4(), "B1 D4 E6", 54),
]


@pytest.mark.parametrize("ctx, blocks, budget", BUDGETS,
                         ids=["gf2", "gf3", "gf4"])
def test_the_unipotent_reduction_keeps_its_kernel_budget(ctx, blocks, budget,
                                                         monkeypatch):
    # products and eliminations made inside canon._reduce_unipotent_class,
    # the kernels wrapped by attribute in every matcanon module that holds
    # them, as the bench's tracer does; a fresh Gamma-side memo
    a = scrambled([Block(b[0], int(b[1:])) for b in blocks.split()], ctx,
                  blocks)
    monkeypatch.setattr(unipotent, "_gamma_reduction_cache", {})
    calls = [0]

    def counted(_name, fn):
        def wrapper(*args, **kwargs):
            calls[0] += depth[0] > 0
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        counted("matmul", ExactMatrix.__matmul__))
    wrap_kernels(monkeypatch, ("inverse_or_rank", "solve"), counted)
    depth = depth_of(monkeypatch, canon, "_reduce_unipotent_class")
    canonicalize(a)
    assert calls[0] <= budget


def wrap_kernels(monkeypatch, names, counted):
    """Replace each exactmat kernel named by counted(name, kernel) in every
    matcanon module that holds it, by attribute, as the bench's tracer
    does."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("matcanon") and m is not None]
    for name in names:
        original = getattr(exactmat, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted(name, original))


def depth_of(monkeypatch, module, attr):
    """[d], d the number of calls of module.attr running, kept by a wrapper
    put in its place."""
    depth, original = [0], getattr(module, attr)

    def wrapper(*args):
        depth[0] += 1
        try:
            return original(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(module, attr, wrapper)
    return depth


Q2 = rationals().adjoin_sqrt(rationals().scalar(2))
F9 = prime_field(3).adjoin_sqrt(prime_field(3).scalar(-1))


def blocks_of(names, ctx):
    """Blocks named as "A3 D4 G2(2)", a G block's eigenvalue an int of ctx
    or g for its top generator."""
    out = []
    for name in names.split():
        fam, rest = name[0], name[1:]
        n, _, lam = rest.partition("(")
        lam = lam.rstrip(")")
        out.append(Block(fam, int(n), None if not lam else
                         ctx.generator(len(ctx.tower)) if lam == "g"
                         else ctx.scalar(int(lam))))
    return out


# (field, blocks, the entries of Y, whether one +-1 class fills the core)
CLASS_CASES = [
    (Q2, "A1 A3 C2 F2 G2(2)", [0, 1, -1, 2, Q2.generator(1)], False),
    (Q2, "A1 A3 D4", [0, 1, -1, 2, Q2.generator(1)], True),
    (Q2, "C2 C4 F2", [0, 1, -1, 2], True),  # Gram matrices trim to Q
    (prime_field(2), "B1 B3 D4 E2", None, True),
    (prime_field(3), "A3 C2 D8 F2", None, False),
    (prime_field(3), "C2 F6", None, True),
    (prime_field(3), "A1 C2 F2", None, False),  # a 1 x 1 class at 1
    (gf4(), "B1 D4 E6", None, True),
    (F9, "A1 C2 D4 F2 G2(g)", None, False),
]
CLASS_IDS = ["q2-mixed", "q2-whole", "q2-trims-to-q", "gf2", "gf3",
             "gf3-minus-one", "gf3-1x1", "gf4", "gf9"]


def unipotent_classes(ctx, names, pool):
    a = scrambled(blocks_of(names, ctx), ctx, names, pool)
    asym = split_min_poly(asymmetry(a))
    return a, asym, [cl for cl in eigen_split(a, asym)
                     if isinstance(cl, UnipotentClass)]


@pytest.mark.parametrize("ctx, names, pool, whole", CLASS_CASES,
                         ids=CLASS_IDS)
def test_a_class_carries_its_gram_and_operator(ctx, names, pool, whole):
    # raw value for raw value and context for context: the basis is the
    # eliminated kernel of (S - eps)^n (I for a class that fills the core),
    # the Gram matrix B'AB trimmed, and the operator the class Gram
    # matrix's asymmetry minus eps, in that Gram matrix's field
    a, asym, classes = unipotent_classes(ctx, names, pool)
    assert classes and (len(classes) == 1) == whole
    for cl in classes:
        eps = cl.eigenvalue
        kernel = inverse_or_rank(asym.s.minus_scalar(eps).power(a.nrows),
                                 rank_only=True).kernel
        gram = (kernel.transpose() @ a @ kernel).trim()
        for got, want in ((cl.basis, kernel), (cl.gram, gram)):
            assert (got.ctx, got.raw) == (want.ctx, want.raw)
        if whole:
            ident = ExactMatrix.identity(asym.s.ctx, a.nrows)
            assert (cl.basis.ctx, cl.basis.raw) == (ident.ctx, ident.raw)
            assert (cl.gram.ctx, cl.gram.raw) == (a.trim().ctx, a.trim().raw)
        if cl.gram.nrows == 1:
            assert cl.operator is None
            continue
        want = asymmetry_matrix(cl.gram.trim()).minus_scalar(eps.trim())
        assert (cl.operator.ctx, cl.operator.raw) == (want.ctx, want.raw)


@pytest.mark.parametrize("ctx, names, pool, whole", CLASS_CASES,
                         ids=CLASS_IDS)
def test_the_one_sided_complement_is_the_two_sided_one(ctx, names, pool,
                                                        whole, monkeypatch):
    # on every peel step of every +-1 class, the elimination of B'G alone
    # gives the kernel and free rows of the stacked [B'G; B'G']
    steps = []
    finish = unipotent._finish_split

    def recording(gram, nmat, kind, r, bmat):
        steps.append((gram, bmat))
        return finish(gram, nmat, kind, r, bmat)

    monkeypatch.setattr(unipotent, "_finish_split", recording)
    for cl in unipotent_classes(ctx, names, pool)[2]:
        peel_all(cl.gram, cl.operator)
    assert steps
    for gram, bmat in steps:
        bg = bmat.transpose() @ gram
        both = inverse_or_rank(ExactMatrix.blocks(gram.ctx, [
            [bg], [bmat.transpose() @ gram.transpose()]]), rank_only=True)
        comp, free = unipotent._orthogonal_complement(bg)
        assert (comp.ctx, comp.raw) == (both.kernel.ctx, both.kernel.raw)
        assert free == [i for i in range(gram.nrows)
                        if i not in both.pivots]


# (field, blocks, the most inverse_or_rank, solve and ExactMatrix.power
# calls canonicalize makes, with a fresh Gamma-side memo)
KERNEL_CALLS = [
    (prime_field(2), "B1 B3 D4 E2",
     {"inverse_or_rank": 9, "solve": 8, "power": 2}),
    (prime_field(3), "A3 C2 D8 F2",
     {"inverse_or_rank": 10, "solve": 10, "power": 4}),
]


@pytest.mark.parametrize("ctx, names, budget", KERNEL_CALLS,
                         ids=["gf2-whole-core", "gf3-two-classes"])
def test_canonicalize_keeps_its_kernel_call_budget(ctx, names, budget,
                                                   monkeypatch):
    # the kernels wrapped by attribute, a fresh Gamma-side memo; a class
    # that fills the core makes no power and no elimination in eigen_split
    a = scrambled(blocks_of(names, ctx), ctx, names)
    monkeypatch.setattr(unipotent, "_gamma_reduction_cache", {})
    calls, in_split = Counter(), Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth[0]:
                in_split[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ExactMatrix, "power",
                        counted("power", ExactMatrix.power))
    wrap_kernels(monkeypatch, ("inverse_or_rank", "solve"), counted)
    depth = depth_of(monkeypatch, canon, "eigen_split")
    form, _witness = canonicalize(a)
    classes = {FAMILIES[b.family][0] for b in form.blocks}
    if len(classes) == 1:
        assert not in_split
    else:
        assert in_split == {"power": len(classes),
                            "inverse_or_rank": len(classes)}
    assert all(calls[name] <= most for name, most in budget.items())


# (name, field, the entries of Y) for the +-1 sums below: every family of
# FAMILIES the characteristic has, singles of order <= 9 and pairs of order
# <= 6
PM1_FIELDS = [("q", rationals(), [0, 1, -1, 2]), ("gf2", prime_field(2), None),
              ("gf3", prime_field(3), None), ("gf4", gf4(), None),
              ("gf5", prime_field(5), None), ("gf9", F9, None)]


def plus_minus_one_cases(fields=PM1_FIELDS):
    """(label, field, blocks, entries of Y): each +-1 block of the field's
    characteristic summed with three others, for scrambled()."""
    for name, ctx, pool in fields:
        blocks = []
        for fam, (_sign, kind, where, parity) in FAMILIES.items():
            if exists_in(where, ctx.characteristic):
                size = 1 if kind == "single" else 2
                blocks += [Block(fam, size * order) for order in
                           range(1, 10 if kind == "single" else 7)
                           if order % 2 == parity]
        for i, b in enumerate(blocks):
            for step in (1, 4, 7):
                other = blocks[(i + step) % len(blocks)]
                yield ("%s %s%d %s%d" % (name, b.family, b.n, other.family,
                                         other.n), ctx, [b, other], pool)


def test_plus_minus_one_reductions_are_pinned():
    # form, context and witness raw values of 246 scrambled sums: the
    # sweeps plant no pair of order >= 2, so this digest is what pins the
    # pair repairs and the single reductions of higher order
    total = hashlib.sha256()
    for label, ctx, blocks, pool in plus_minus_one_cases():
        form, wit = canonicalize(scrambled(blocks, ctx, label, pool))
        total.update("\n".join([
            label, json.dumps(form_to_json(form), sort_keys=True),
            repr(form.context), repr(wit.x.raw)]).encode())
    assert total.hexdigest() == ("bdbdd0ec140102bcb4e7f87616af3a8a"
                                 "d956630cbfd63de0fcb20a0d0d98c7d5")


@pytest.mark.parametrize("field", PM1_FIELDS, ids=[f[0] for f in PM1_FIELDS])
def test_the_repairs_reach_their_conditions(field, monkeypatch):
    # each repaired pair generator spans a totally isotropic module, and
    # each single's first vector u has f(u, u) = rho0
    repaired, adjusted = [], []
    repair, adjust = unipotent._repair_generator, unipotent._adjust_self_value

    def repair_spy(g, gen, other, m):
        new = repair(g, gen, other, m)
        chain = new.shift_chain(m, m)
        repaired.append(chain.transpose() @ g @ chain)
        return new

    def adjust_spy(g1, part, hom, rho0):
        u = adjust(g1, part, hom, rho0)
        adjusted.append(((u.transpose() @ g1 @ u)[0, 0], rho0))
        return u

    monkeypatch.setattr(unipotent, "_repair_generator", repair_spy)
    monkeypatch.setattr(unipotent, "_adjust_self_value", adjust_spy)
    monkeypatch.setattr(unipotent, "_gamma_reduction_cache", {})
    for label, ctx, blocks, pool in plus_minus_one_cases([field]):
        canonicalize(scrambled(blocks, ctx, label, pool))
    assert repaired and adjusted
    assert all(form.is_zero() for form in repaired)
    assert all(value == rho0 for value, rho0 in adjusted)


def test_a_wrong_repair_fails_the_certificate(monkeypatch):
    # p^{m-1} w, a multiple of d_0, more than the root: the module is no
    # longer isotropic, which no check in the stage sees, and the one
    # certificate refuses the answer
    repair = unipotent._repair_generator
    monkeypatch.setattr(unipotent, "_repair_generator",
                        lambda g, gen, other, m: repair(g, gen, other, m)
                        + other.shift_chain(m, m).columns([m - 1]))
    with pytest.raises(WitnessError, match="congruence relation"):
        canonicalize(block_sum(rationals(), [Block("D", 4)]))

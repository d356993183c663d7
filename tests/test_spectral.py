import ast
import functools
import hashlib
import inspect
import itertools
import random
import textwrap
import time
from fractions import Fraction

import pytest

import matcanon.roots
from matcanon import spectral
from matcanon.canon import canonicalize
from matcanon.errors import NotSplit, SingularInput
from matcanon.exactmat import ExactMatrix, inverse_or_rank
from matcanon.field import (EXTEND, STRICT, Scalar, enumeration_key,
                            finite_field, gf4, prime_field, rationals)
from matcanon.spectral import (Asymmetry, PairClass,
                               UnipotentClass, asymmetry, eigen_split,
                               hyperbolic_block_matrix, hyperbolic_canonical,
                               _minimal_polynomial, nilpotent_jordan_chains,
                               poly_eval, split_min_poly,
                               top_conjugation)

from filtration import elementary_divisor_multiplicities


def gamma2(ctx):
    return ExactMatrix(ctx, [[0, -1], [1, 1]])


def g_block(ctx, m, lam):
    return hyperbolic_block_matrix(ctx, m, lam)


def rand_invertible(ctx, rng, n, lo=-3, hi=3):
    while True:
        if ctx.kind == "rational":
            y = ExactMatrix(ctx, [[rng.randint(lo, hi) for _ in range(n)]
                                  for _ in range(n)])
        else:
            y = ExactMatrix(ctx, [[rng.randrange(ctx.p) for _ in range(n)]
                                  for _ in range(n)])
        if inverse_or_rank(y).inverse is not None:
            return y


def test_symmetric_asymmetry_is_identity():
    q = rationals()
    a = ExactMatrix(q, [[2, 1], [1, 3]])
    asym = asymmetry(a)
    assert asym.s == ExactMatrix.identity(q, 2)
    assert asym.min_poly == [q.scalar(-1), q.one()]


def test_gamma2_asymmetry():
    q = rationals()
    asym = asymmetry(gamma2(q))
    assert asym.s == ExactMatrix(q, [[-1, 2], [0, -1]])
    # min poly (X+1)^2 = 1 + 2X + X^2
    assert asym.min_poly == [q.one(), q.scalar(2), q.one()]


def test_g2_asymmetry_diagonal():
    q = rationals()
    a = g_block(q, 1, 2)  # ((0,2),(1,0))
    asym = asymmetry(a)
    assert asym.s == ExactMatrix(q, [[2, 0], [0, Fraction(1, 2)]])


def test_singular_input():
    q = rationals()
    with pytest.raises(SingularInput):
        asymmetry(ExactMatrix.zeros(q, 2, 2))


def test_isometry_property_random():
    # S' A S = A for every computed asymmetry
    rng = random.Random(31)
    for ctx in (rationals(), prime_field(3)):
        for _ in range(25):
            n = rng.randint(1, 4)
            a = rand_invertible(ctx, rng, n)
            asym = asymmetry(a)
            s = asym.s
            assert s.transpose() @ a @ s == a
            # defining relation A' = A S
            assert a @ s == a.transpose()
            assert poly_eval_matrix(asym.min_poly, s).is_zero()


def poly_eval_matrix(p, s):
    ctx = s.ctx
    n = s.nrows
    acc = ExactMatrix.zeros(ctx, n, n)
    for c in reversed(p):
        acc = acc @ s + ExactMatrix.identity(ctx, n).scale(c)
    return acc


def test_split_cubed_unipotent():
    q = rationals()
    asym = Asymmetry(ExactMatrix.identity(q, 0),
                     [q.scalar(-1), q.scalar(3), q.scalar(-3), q.one()], q)
    out = split_min_poly(asym)
    assert out.split_roots == [(q.one(), 3)]


def _tower_q():
    q = rationals()
    return q.adjoin_sqrt(q.scalar(2))


@pytest.mark.parametrize("ctx", [rationals(), prime_field(3),
                                 prime_field(65521), _tower_q()],
                         ids=["Q", "GF(3)", "GF(65521)", "Q(sqrt2)"])
def test_extracting_a_root_is_the_repeated_division(ctx):
    # (X - r)^m c(X) with c(r) != 0, for m = 0..3: synthetic division gives
    # the quotient and multiplicity of the general division by X - r,
    # repeated until a remainder is left, raw value for raw value
    from matcanon.poly import divide
    rng = random.Random("extract " + repr(ctx))
    ops = ctx.ops

    def element():  # a + b sqrt2 in the tower
        x = ctx.scalar(rng.randint(-5, 5))
        return (x + ctx.scalar(rng.randint(-5, 5)) * ctx.generator(1)
                if ctx.tower else x)

    for mult in range(4):
        for _ in range(4):
            root = element()
            cofactor = [element() for _ in range(rng.randint(0, 3))]
            cofactor.append(ctx.one())
            if poly_eval(cofactor, root).is_zero():
                continue
            poly = cofactor
            for _ in range(mult):  # times X - root
                poly = [a - root * b for a, b in
                        zip([ctx.zero()] + poly, poly + [ctx.zero()])]
            quotient, got = matcanon.roots.extract_root(poly, root)
            raw, want = [c.raw for c in poly], 0
            while len(raw) > 1:
                quot, rem = divide(ops, raw, [ops.neg(root.raw),
                                              ops.one])
                if rem != [ops.zero]:
                    break
                raw, want = quot, want + 1
            assert got == want == mult
            assert [c.raw for c in quotient] == raw
            assert all(c.ctx is ctx for c in quotient)


def test_split_x2_plus_1_extends():
    q = rationals()
    asym = Asymmetry(ExactMatrix.identity(q, 0),
                     [q.one(), q.zero(), q.one()], q)
    out = split_min_poly(asym)
    assert len(out.split_roots) == 2
    ctx = out.ctx
    for r, m in out.split_roots:
        assert m == 1
        assert r * r == ctx.scalar(-1)
    # the asymmetry of [[1, 1], [-1, 1]] has minimal polynomial X^2 + 1
    a = ExactMatrix(q, [[1, 1], [-1, 1]])
    assert asymmetry(a).min_poly == [q.one(), q.zero(), q.one()]
    with pytest.raises(NotSplit, match="^quadratic factor has non-square "
                       "discriminant under strict policy$"):
        canonicalize(a, STRICT)


def test_split_cubic_not_split():
    q = rationals()
    asym = Asymmetry(ExactMatrix.identity(q, 0),
                     [q.scalar(-1), q.scalar(-1), q.zero(), q.one()], q)
    with pytest.raises(NotSplit):
        split_min_poly(asym)


def test_split_palindromic_quartic():
    # (X^2-3X+1)(X^2-4X+1) = X^4 -7X^3 +14X^2 -7X +1: roots need sqrt5, sqrt12
    q = rationals()
    poly = [q.one(), q.scalar(-7), q.scalar(14), q.scalar(-7), q.one()]
    asym = Asymmetry(ExactMatrix.identity(q, 0), poly, q)
    out = split_min_poly(asym)
    assert sum(m for _r, m in out.split_roots) == 4
    for r, _m in out.split_roots:
        assert poly_eval([c.promote(out.ctx) for c in poly], r).is_zero()


def test_eigen_split_identity_asymmetry():
    q = rationals()
    a = ExactMatrix(q, [[1, 0], [0, 5]])
    classes = eigen_split(a, split_min_poly(asymmetry(a)))
    assert len(classes) == 1
    cl = classes[0]
    assert isinstance(cl, UnipotentClass)
    assert cl.eigenvalue == q.one()
    assert cl.basis.ncols == 2


def test_eigen_split_g2_pair():
    q = rationals()
    a = g_block(q, 1, 2)
    classes = eigen_split(a, split_min_poly(asymmetry(a)))
    assert len(classes) == 1
    cl = classes[0]
    assert isinstance(cl, PairClass)
    assert cl.lam == q.scalar(Fraction(1, 2))  # compare-smaller of {2, 1/2}
    assert cl.lam_inv == q.scalar(2)


def test_eigen_split_mixed_block_diagonal():
    q = rationals()
    a = ExactMatrix.block_diag(q, [ExactMatrix(q, [[1]]), g_block(q, 1, 3)])
    classes = eigen_split(a, split_min_poly(asymmetry(a)))
    kinds = [type(c).__name__ for c in classes]
    assert kinds == ["UnipotentClass", "PairClass"]
    x = ExactMatrix.blocks(q, [[cl.basis for cl in classes]])
    g = x.transpose() @ a @ x
    assert g == ExactMatrix.block_diag(q, [cl.gram for cl in classes])
    # cross blocks exactly zero
    assert g[0, 1] == q.zero() and g[0, 2] == q.zero()
    assert g[1, 0] == q.zero() and g[2, 0] == q.zero()


def _unipotent_2x2(ctx, a):
    # S = A^-1 A' has X^2 - (2 - a^2) X + 1 as its characteristic polynomial
    return ExactMatrix(ctx, [[1, a], [0, 1]])


def _q(rows):
    return ExactMatrix(rationals(), rows)


# a 4 x 4 over Q whose pair classes split at height 3, {lam, 1/lam} over
# Q(g1, g3) first and its image under g1 -> -g1, g2 <-> g3 over Q(g1, g2)
_Q_HEIGHT_3 = _q([[1, 3, 3, 3], [-3, -1, -3, 0], [3, 0, 0, 2],
                  [0, 3, -2, -3]])

# (name, matrix, for each pair class in eigen_split's order: the height of
# its field and the eigenspaces it computes, by elimination or as an
# eigenline: 2 for V_lam and V_1/lam, 1 when V_1/lam is V_lam's image, 0
# when the class is an earlier class's image)
CONJUGATE_CASES = [
    # Q(sqrt -3), then sqrt 5 and sqrt 3 above it: S stays over Q
    ("q-height-1", _unipotent_2x2(rationals(), 1), [(1, 1)]),
    ("q-height-2", ExactMatrix.block_diag(rationals(), [
        _unipotent_2x2(rationals(), a) for a in (1, 3)]),
     [(2, 1), (1, 1)]),
    ("q-height-3", ExactMatrix.block_diag(rationals(), [
        _unipotent_2x2(rationals(), a) for a in (1, 3, 4)]),
     [(3, 1), (2, 1), (1, 1)]),
    # the second class is the image of the first under g1 -> -g1, which
    # respects the records g1^2 = -16 and g2^2 = -8
    ("q-image-height-2", _q([[-1, -3, -3, 2], [-3, -1, -1, -2],
                             [-1, 1, -3, -1], [-3, -3, -2, 0]]),
     [(2, 1), (2, 0)]),
    # the first class lies above its image (Q(g1, g3) and Q(g1, g2)); the
    # second case is case 8 of the small-batch bench workload, A1 + G2(lam)
    # + G2(lam') with lam' the image of lam; in the third a Q(sqrt -3)
    # class below them lifts the split to height 4
    ("q-image-height-3", _Q_HEIGHT_3, [(3, 1), (2, 0)]),
    ("q-image-a1", _q([[-2, -3, -3, 0, 3], [-2, 2, 2, -2, -2],
                       [-2, -1, -2, -1, 1], [2, -1, 1, -1, 0],
                       [-1, -1, -1, 2, -3]]), [(3, 1), (2, 0)]),
    ("q-image-height-4", ExactMatrix.block_diag(rationals(), [
        _Q_HEIGHT_3, _unipotent_2x2(rationals(), 1)]),
     [(4, 1), (3, 0), (1, 1)]),
    # GF(9) and GF(81), table fields over GF(3)
    ("gf9", ExactMatrix(prime_field(3), [[1, 0], [1, 2]]), [(1, 1)]),
    ("gf81", ExactMatrix(prime_field(3), [[1, 1, 2, 2], [2, 1, 2, 2],
                                          [1, 2, 2, 0], [0, 2, 1, 2]]),
     [(2, 1), (2, 1)]),
    # a palindromic quartic over GF(3) that is q(X) q*(X), q* the
    # reciprocal of an irreducible quadratic q: 1/lam is a root of q*, not
    # the conjugate of lam, so V_1/lam is eliminated, and the second class
    # is the conjugate of the first
    ("gf9-reciprocal-pair", ExactMatrix(prime_field(3), [
        [2, 0, 0, 1], [2, 2, 1, 2], [0, 0, 2, 0], [1, 1, 2, 2]]),
     [(1, 2), (1, 0)]),
    # GF(65521)(sqrt d), a record in closed form; GF(65537) at height 2,
    # integer vectors through the monomial table
    ("gf65521-height-1", ExactMatrix(prime_field(65521), [[-2, 2], [3, -1]]),
     [(1, 1)]),
    ("gf65537-height-2", ExactMatrix(prime_field(65537), [
        [2, 0, 1, 1], [2, -2, 3, 2], [1, 3, 2, 3], [2, 0, -1, -1]]),
     [(2, 1), (2, 1)]),
]


@pytest.mark.parametrize("name, a, expected", CONJUGATE_CASES,
                         ids=[c[0] for c in CONJUGATE_CASES])
def test_conjugated_eigenspace_is_the_eliminated_one(name, a, expected,
                                                     monkeypatch):
    asym = split_min_poly(asymmetry(a))
    assert asym.s.ctx == a.ctx
    computed = []  # per eigenspace, in order: how it was computed
    eigenline = spectral._eigenline

    def eliminating(m, **kwargs):
        computed.append("elimination")
        return inverse_or_rank(m, **kwargs)

    def recording(min_poly, lam, krylov):
        computed.append("eigenline")
        return eigenline(min_poly, lam, krylov)

    monkeypatch.setattr(spectral, "inverse_or_rank", eliminating)
    monkeypatch.setattr(spectral, "_eigenline", recording)
    classes = eigen_split(a, asym)
    monkeypatch.undo()
    pairs = [cl for cl in classes if isinstance(cl, PairClass)]
    assert [(len(cl.basis.ctx.tower), cl.image is None)
            for cl in pairs] == [(h, k > 0) for h, k in expected]
    # one elimination per unipotent class, in S's field, then the spaces of
    # each pair class
    unipotent = len(classes) - len(pairs)
    assert computed[:unipotent] == ["elimination"] * unipotent
    assert len(computed) == unipotent + sum(k for _h, k in expected)
    for cl in pairs:
        m = cl.basis.ncols // 2  # dim V_lam = dim V_1/lam
        for lam, cols in ((cl.lam, range(m)), (cl.lam_inv, range(m, 2 * m))):
            mult = next(k for r, k in asym.split_roots if r == lam)
            power = asym.s.minus_scalar(lam).power(mult)
            kernel = inverse_or_rank(power, rank_only=True).kernel
            assert cl.basis.ctx == kernel.ctx
            # raw tuple for raw tuple
            assert cl.basis.columns(cols).raw == kernel.raw


def _krylov(s):
    """S's Krylov matrices on the unit vectors, as eigen_split builds them."""
    n = s.nrows
    return functools.cache(lambda j: s.krylov(
        ExactMatrix.unit_column(s.ctx, n, j), n))


@pytest.mark.parametrize("name, height", [
    ("q-height-1", 1), ("q-height-2", 2), ("q-height-3", 3),
    ("q-image-height-4", 4), ("gf81", 2), ("gf65537-height-2", 2)])
def test_an_eigenline_is_the_eliminated_kernel(name, height):
    # every root of these cyclic S is simple and above S's field, V_1/lam
    # too, which eigen_split takes as V_lam's image
    a = next(case[1] for case in CONJUGATE_CASES if case[0] == name)
    asym = split_min_poly(asymmetry(a))
    s, krylov = asym.s, _krylov(asym.s)
    assert len(asym.min_poly) == s.nrows + 1
    assert {m for _r, m in asym.split_roots} == {1}
    assert max(len(r.trim().ctx.tower) for r, _m in asym.split_roots) \
        == height
    for lam, _m in asym.split_roots:
        assert lam.trim().ctx.tower
        line = spectral._eigenline(asym.min_poly, lam, krylov)
        kernel = inverse_or_rank(s.minus_scalar(lam), rank_only=True).kernel
        assert (line.ctx, line.raw) == (kernel.ctx, kernel.raw)


# A1 + G2(lam) over Q, unscrambled: lam = 3/4 + sqrt(-7)/4
_PAIR = _q([[-2, -2], [-1, -2]])
_A1_G2 = ExactMatrix.block_diag(rationals(), [_q([[1]]), _PAIR])


def test_an_eigenline_skips_a_unit_vector_that_q_of_s_kills():
    # e_0 spans V_1, so q(S) e_0 = q(1) e_0 = 0 for q = min_poly / (X - lam)
    asym = split_min_poly(asymmetry(_A1_G2))
    s, krylov = asym.s, _krylov(asym.s)
    asked = []

    def recording(j):
        asked.append(j)
        return krylov(j)

    pair = [lam for lam, _m in asym.split_roots if lam.trim().ctx.tower]
    assert len(pair) == 2
    for lam in pair:
        asked.clear()
        line = spectral._eigenline(asym.min_poly, lam, recording)
        assert asked == [0, 1]
        kernel = inverse_or_rank(s.minus_scalar(lam), rank_only=True).kernel
        assert (line.ctx, line.raw) == (kernel.ctx, kernel.raw)


def test_a_non_cyclic_s_still_eliminates(monkeypatch):
    # G2(lam) + G2(lam): lam is a simple root of a minimal polynomial of
    # degree 2 < 4, and V_lam is a plane
    a = ExactMatrix.block_diag(rationals(), [_PAIR, _PAIR])
    asym = split_min_poly(asymmetry(a))
    assert len(asym.min_poly) == 3
    assert {m for _r, m in asym.split_roots} == {1}
    monkeypatch.setattr(spectral, "_eigenline", lambda *args: pytest.fail(
        "an eigenline for a non-cyclic S"))
    cl, = eigen_split(a, asym)
    kernel = inverse_or_rank(asym.s.minus_scalar(cl.lam),
                             rank_only=True).kernel
    assert kernel.ncols == 2
    assert cl.basis.columns(range(2)).raw == kernel.raw


def test_a_signed_permutation_that_breaks_a_record_is_rejected():
    # over Q(sqrt 2, sqrt 3, sqrt 5), g2 <-> g3 sends 1 + g2 to 1 + g3 on
    # coordinates, but g3^2 = 5 is not the image of g2^2 = 3: the only
    # automorphisms tried are the eight sign changes
    q = rationals()
    ctx = q.adjoin_sqrt(q.scalar(2))
    ctx = ctx.adjoin_sqrt(ctx.scalar(3))
    ctx = ctx.adjoin_sqrt(ctx.scalar(5))
    g1, g2, g3 = (ctx.generator(i) for i in (1, 2, 3))
    x, y = 1 + g2, 1 + g3
    swap = functools.partial(spectral._signed, [
        (t & 1 | (t & 2) << 1 | (t & 4) >> 1, 1) for t in range(8)])
    assert swap(x.raw) == y.raw
    autos = spectral._automorphisms(ctx, q)
    assert len(autos) == 8
    assert all(f(x.raw) != y.raw for f in autos)
    assert {Scalar(ctx, f((g1 + 2 * g2 + 3 * g3).raw)) for f in autos} == {
        s1 * g1 + 2 * s2 * g2 + 3 * s3 * g3
        for s1, s2, s3 in itertools.product((1, -1), repeat=3)}
    # over Q(sqrt 2), the field of S: g1 is fixed too
    assert len(spectral._automorphisms(ctx, ctx.truncated(1))) == 4


def _gf81():
    f9 = prime_field(3).adjoin_sqrt(prime_field(3).scalar(-1))
    return f9.adjoin_sqrt(1 + f9.generator(1))


@pytest.mark.parametrize("ctx", [
    gf4().adjoin_artin_schreier(gf4().base_element((0, 1))),  # g^2 + g = t
    prime_field(3).adjoin_sqrt(prime_field(3).scalar(-1)),
    _gf81(),
], ids=["gf4-artin-schreier", "gf9", "gf81"])
def test_top_conjugation_is_an_involutive_automorphism(ctx):
    sigma = top_conjugation(ctx)

    def conj(x):
        return Scalar(ctx, sigma(x.raw))

    h = len(ctx.tower)
    c1 = ctx.tower[-1][0]
    g = ctx.generator(h)
    assert conj(g) == c1 - g != g  # g + 1 for an Artin-Schreier record
    below = ctx.truncated(h - 1)
    for x in below.iter_elements():
        assert conj(x.promote(ctx)) == x
    elements = list(ctx.iter_elements())
    for x in elements:
        assert conj(conj(x)) == x
        for y in elements[::7]:
            assert conj(x + y) == conj(x) + conj(y)
            assert conj(x * y) == conj(x) * conj(y)


def test_nilpotent_jordan_chains():
    q = rationals()
    n = ExactMatrix(q, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # one 2-chain + 1
    chains = nilpotent_jordan_chains(n)
    assert sorted(c.ncols for c in chains) == [1, 2]
    z = ExactMatrix.zeros(q, 2, 2)
    assert [c.ncols for c in nilpotent_jordan_chains(z)] == [1, 1]


def test_elementary_divisor_multiplicities():
    q = rationals()
    s = ExactMatrix.block_diag(q, [ExactMatrix.jordan_block(q, 3, 1),
                                   ExactMatrix.jordan_block(q, 1, 1),
                                   ExactMatrix.jordan_block(q, 2, 5)])
    assert elementary_divisor_multiplicities(s, q.one()) == {3: 1, 1: 1}
    assert elementary_divisor_multiplicities(s, q.scalar(5)) == {2: 1}


def test_hyperbolic_identity_case():
    q = rationals()
    lam = q.scalar(2)
    a = g_block(q, 1, 2)
    x, blocks = hyperbolic_canonical(a, lam)
    assert blocks == [1]
    assert x.transpose() @ a @ x == g_block(q, 1, 2)


def test_hyperbolic_scrambled_g2():
    rng = random.Random(41)
    q = rationals()
    base = g_block(q, 1, 2)
    for _ in range(20):
        y = rand_invertible(q, rng, 2)
        a = y.transpose() @ base @ y
        if inverse_or_rank(a).inverse is None:
            continue
        asym = split_min_poly(asymmetry(a))
        cl, = eigen_split(a, asym)
        x, blocks = hyperbolic_canonical(cl.gram, cl.lam)
        assert blocks == [1]
        assert x.transpose() @ cl.gram @ x == g_block(q, 1, Fraction(1, 2))


def test_hyperbolic_4x4_jordan_pair():
    rng = random.Random(43)
    q = rationals()
    base = g_block(q, 2, 2)  # elem divisors (X-2)^2, (X-1/2)^2
    for _ in range(10):
        y = rand_invertible(q, rng, 4, -2, 2)
        a = y.transpose() @ base @ y
        asym = split_min_poly(asymmetry(a))
        cl, = eigen_split(a, asym)
        x, blocks = hyperbolic_canonical(cl.gram, cl.lam)
        assert blocks == [2]
        assert x.transpose() @ cl.gram @ x == g_block(q, 2, Fraction(1, 2))


def _general_hyperbolic_canonical():
    """hyperbolic_canonical with its closed form for a 2 x 2 class taken
    out of its source: the solve, Jordan chains and pairing inverse that
    larger classes take, run on any class."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hyperbolic_canonical)))
    body = tree.body[0].body
    closed = [st for st in body
              if isinstance(st, ast.If) and ast.unparse(st.test) == "m == 1"]
    assert len(closed) == 1
    body.remove(closed[0])
    namespace = dict(vars(spectral))
    exec(compile(tree, spectral.__file__, "exec"), namespace)
    return namespace["hyperbolic_canonical"]


def _g2_classes():
    """(ctx, lam, w) for a G2(lam) class gram ((0, lam w), (w, 0))."""
    q, f3 = rationals(), prime_field(3)
    f3_sqrt2 = f3.adjoin_sqrt(f3.scalar(2))
    gf9 = finite_field(3, (1, 0))  # t^2 + 1
    g, t = f3_sqrt2.generator(1), gf9.base_element((0, 1))
    return [(q, q.scalar(Fraction(-2, 3)), q.scalar(Fraction(5, 7))),
            (f3_sqrt2, 1 + g, g), (gf9, 1 + t, t),
            (prime_field(65521), prime_field(65521).scalar(3),
             prime_field(65521).scalar(1000))]


@pytest.mark.parametrize("ctx, lam, w", _g2_classes(),
                         ids=["q", "gf3-sqrt2", "gf9", "gf65521"])
def test_a_g2_class_in_closed_form_is_the_general_answer(ctx, lam, w):
    g = ExactMatrix(ctx, [[0, lam * w], [w, 0]])
    x, blocks = hyperbolic_canonical(g, lam)
    general_x, general_blocks = _general_hyperbolic_canonical()(g, lam)
    assert (x.ctx, x.raw) == (general_x.ctx, general_x.raw)
    assert blocks == general_blocks == [1]
    assert x.transpose() @ g @ x == g_block(ctx, 1, lam)


def test_roots_closed_under_inversion_random():
    rng = random.Random(47)
    q = rationals()
    done = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_invertible(q, rng, n, -2, 2)
        try:
            out = split_min_poly(asymmetry(a))
        except NotSplit:
            continue
        done += 1
        roots = dict()
        for r, m in out.split_roots:
            roots[r] = m
        for r, m in out.split_roots:
            assert roots.get(r.inverse()) == m
    assert done >= 20


def test_finite_field_root_existence_vs_enumeration():
    # gcd(X^q - X, f) agrees with exhaustive evaluation on small fields
    from matcanon.field import gf4, prime_field
    from matcanon.poly import frobenius_gcd
    import itertools

    def has_root(poly, ctx):
        return len(frobenius_gcd(ctx.ops, [c.raw for c in poly],
                                 ctx.order())) > 1

    for ctx in (prime_field(2), prime_field(3), gf4()):
        pool = list(ctx.iter_elements())
        for deg in (2, 3):
            for coeffs in itertools.product(pool, repeat=deg):
                poly = list(coeffs) + [ctx.one()]
                got = has_root(poly, ctx)
                brute = any(poly_eval(poly, x).is_zero() for x in pool)
                assert got == brute, [str(c) for c in poly]


def _monic_from_roots(ctx, roots, extra=()):
    """prod (X - r) * (X^k + extra...), coefficients low to high."""
    poly = [ctx.one()]
    factors = [[-r, ctx.one()] for r in roots]
    if extra:
        factors.append([ctx.scalar(c) for c in extra] + [ctx.one()])
    for fac in factors:
        poly = _times(poly, fac)
    return poly


def _times(a, b):
    """The product of two polynomials, coefficients low to high."""
    out = [a[0].ctx.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def test_finite_field_roots_match_enumeration():
    # the splitter lists exactly the roots enumeration finds, in
    # iter_elements order, and find_one_root picks the root the old
    # enumeration picked: 1, else -1, else the first one listed
    from matcanon.field import gf4
    from matcanon.roots import _finite_field_roots, find_one_root
    f3 = prime_field(3)
    contexts = [prime_field(2), f3, gf4(), prime_field(13),
                f3.adjoin_sqrt(f3.scalar(-1))]
    rng = random.Random(59)
    checked = 0
    for ctx in contexts:
        pool = list(ctx.iter_elements())
        for _ in range(40):
            roots = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            extra = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
            poly = _monic_from_roots(ctx, roots, extra)
            if len(poly) < 3:
                continue
            brute = [x for x in pool if poly_eval(poly, x).is_zero()]
            assert _finite_field_roots(poly)[0] == brute
            if not brute:
                continue
            one = ctx.one()
            expect = next(r for r in (one, -one) + tuple(brute)
                          if poly_eval(poly, r).is_zero())
            root, listed = find_one_root(poly)
            ctx2 = root.ctx
            assert ctx2 == ctx and root == expect
            assert listed is None or listed == brute
            checked += 1
    assert checked > 100


def _companion(ctx, poly):
    n = len(poly) - 1
    rows = [[ctx.zero()] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = ctx.one()
    for i in range(n):
        rows[i][n - 1] = -poly[i]
    return ExactMatrix(ctx, rows)


@pytest.mark.parametrize("p,c,b2,c2", [(65537, 3, 1, 3), (1000003, 3, 1, 9)])
def test_split_min_poly_large_prime_fields(p, c, b2, c2):
    # fields far beyond enumeration: roots in GF(p), a palindromic quadratic
    # needing GF(p^2), and a palindromic quartic needing GF(p^4)
    ctx = prime_field(p)
    five = ctx.scalar(5)
    known = {five: 1, five.inverse(): 1, ctx.scalar(-1): 2,
             ctx.scalar(7): 3, ctx.scalar(7).inverse(): 3}
    roots = [r for r, m in known.items() for _ in range(m)]
    poly = _monic_from_roots(ctx, roots)
    out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
    assert out.ctx == ctx
    assert dict(out.split_roots) == known
    for coeffs, height in (([1, -c, 1], 1),
                           ([1, -b2, c2 + 2, -b2, 1], 2)):
        poly = [ctx.scalar(v) for v in coeffs]
        out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
        assert len(out.ctx.tower) == height
        assert len(out.split_roots) == len(poly) - 1
        for r, m in out.split_roots:
            assert m == 1
            assert poly_eval(out.min_poly, r).is_zero()
            assert any(s == r.inverse() for s, _ in out.split_roots)


def test_congruence_invariance_fuzz_large_primes():
    # 3x3 to 8x8 over GF(65537) and GF(1000003): every form is answered or
    # refused as NotSplit, and congruent inputs agree,
    # within a wall-clock bound that root splitting by enumeration, or one
    # Frobenius power per root, would not keep at these sizes
    rng = random.Random(61)
    start = time.perf_counter()
    answered = 0
    for p in (65537, 1000003):
        ctx = prime_field(p)
        for n in (3, 4, 5, 6, 7, 8):
            for _ in range(5):
                a = ExactMatrix(ctx, [[rng.randrange(p) for _ in range(n)]
                                      for _ in range(n)])
                y = rand_invertible(ctx, rng, n)
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
                answered += 1
    assert answered >= 40
    assert time.perf_counter() - start < 60


def test_frobenius_power_once_per_context(monkeypatch):
    """split_min_poly lists the roots once per context it passes through,
    and takes the further roots from the list that gave the first: 1, else
    -1, else the least left, each partner 1/r peeled with it.  A palindrome
    f = X^k g(X + 1/X) is listed through g: X^q mod g, of half f's
    degree, is the one power computed."""
    import matcanon.roots
    calls = []
    real = matcanon.roots.frobenius_gcd

    def counted(ops, f, e):
        calls.append((e, len(f) - 1))
        return real(ops, f, e)

    monkeypatch.setattr(matcanon.roots, "frobenius_gcd", counted)
    p = 65537
    ctx = prime_field(p)
    two, three, five = (ctx.scalar(v) for v in (2, 3, 5))
    # six distinct roots in GF(p) besides -1: once -1 (a cheap candidate,
    # no computation) is peeled, one computation on the cubic g whose roots
    # are 2 + 1/2, 3 + 1/3 and 5 + 1/5
    roots = [two, two.inverse(), three, three.inverse(), five,
             five.inverse(), -ctx.one(), -ctx.one()]
    poly = _monic_from_roots(ctx, roots)
    out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
    assert out.ctx == ctx
    assert out.split_roots == [(-ctx.one(), 2), (two, 1), (two.inverse(), 1),
                               (three, 1), (three.inverse(), 1),
                               (five, 1), (five.inverse(), 1)]
    assert calls == [(p, 3)]
    # two irreducible palindromic quadratics, X^2 - 3X + 1 and
    # X^2 - cX + 1, besides 2 and 1/2: one computation in GF(p), on the
    # cubic g with roots 2 + 1/2, 3 and c, none more there; the
    # palindrome's quadratic in Y = X + 1/X and the quadratic left in
    # GF(p^2) after the adjunction are solved by a square root each, with
    # no computation
    c = next(c for c in range(4, p)
             if pow(c * c - 4, (p - 1) // 2, p) == p - 1)
    assert pow(3 * 3 - 4, (p - 1) // 2, p) == p - 1
    poly = _monic_from_roots(ctx, [two, two.inverse()],
                             extra=[1, -3 - c, 2 + 3 * c, -3 - c])
    del calls[:]
    out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
    assert len(out.ctx.tower) == 1
    assert len(out.split_roots) == 6
    assert out.split_roots[:2] == [(two, 1), (two.inverse(), 1)]
    assert calls == [(p, 3)]


def _palindromes(ctx, k):
    """Every monic palindrome of degree 2k over a small field ctx."""
    one = ctx.one()
    for mid in itertools.product(list(ctx.iter_elements()), repeat=k):
        yield [one, *mid, *mid[-2::-1], one]


def _small_fields():
    f3 = prime_field(3)
    return [("GF(2)", prime_field(2)), ("GF(3)", f3), ("GF(4)", gf4()),
            ("GF(9)", finite_field(3, (1, 0))),
            ("GF(3)(sqrt-1)", f3.adjoin_sqrt(f3.scalar(-1)))]


def _large_fields():
    big = prime_field(65521)
    return [("GF(65521)", big), ("GF(65537)", prime_field(65537)),
            ("GF(1000003)", prime_field(1000003)),
            ("GF(65521)(sqrt17)", big.adjoin_sqrt(big.scalar(17)))]


@pytest.mark.parametrize("name, ctx", _small_fields(),
                         ids=[name for name, _ in _small_fields()])
def test_palindromic_roots_match_enumeration(name, ctx):
    """Every monic palindromic quartic and sextic, and a multiple of each
    (the integer polynomials of the rational-root search need not be
    monic), lists exactly the roots enumeration finds, in iter_elements
    order: g of degree 2 or 3 with roots or none, mu = +-2 (a double +-1)
    and a mu in the field whose X^2 - mu X + 1 has no root there."""
    from matcanon.roots import _finite_field_roots, _palindrome_transform
    pool = list(ctx.iter_elements())
    one, two = ctx.one(), ctx.scalar(2)
    seen = set()
    for k in (2, 3):
        for poly in _palindromes(ctx, k):
            brute = [x for x in pool if poly_eval(poly, x).is_zero()]
            for c in dict.fromkeys([one, pool[-1]]):
                assert _finite_field_roots([c * a for a in poly])[0] == brute, \
                    [str(a) for a in poly]
            g = _palindrome_transform(poly)
            mus = [mu for mu in pool if poly_eval(g, mu).is_zero()]
            seen.add((k, len(mus) > 0, len(brute) > 0))
            for mu in mus:
                quad = [one, -mu, one]
                seen.add("+-2" if mu in (two, -two) else "other")
                if not any(poly_eval(quad, x).is_zero() for x in pool):
                    seen.add("irreducible")
    assert seen == {(2, False, False), (2, True, False), (2, True, True),
                    (3, False, False), (3, True, False), (3, True, True),
                    "+-2", "other", "irreducible"}


def _nonsquare(x):
    """x is not a square in its finite field of odd order q (Euler)."""
    return x ** ((x.ctx.order() - 1) // 2) == -x.ctx.one()


def _planted_palindromes(ctx, rng, count):
    """(poly, roots): monic palindromes of degree 4 to 8 over a field too
    large to enumerate, products of (X - a)(X - 1/a) for drawn a,
    (X -+ 1)^2 (mu = +-2) and X^2 - mu X + 1 for mu with mu^2 - 4 not a
    square (no root in the field), with the distinct planted roots."""
    one = ctx.one()
    draws = (ctx.scalar(rng.randrange(1, ctx.p)) + ctx.scalar(
        rng.randrange(ctx.p)) * (ctx.generator(1) if ctx.tower else 0)
        for _ in itertools.count())
    mus = []
    while len(mus) < 8:
        mu = next(draws)
        if _nonsquare(mu * mu - 4):
            mus.append(mu)
    for i in range(count):
        roots, extra = [], []
        for _ in range(2 + i % 3):
            kind = rng.randrange(4)
            if kind == 0:
                a = next(draws)
                roots += [a, a.inverse()]
            elif kind == 1:
                sign = rng.choice([one, -one])
                roots += [sign, sign]
            else:
                extra.append(rng.choice(mus))
        poly = _monic_from_roots(ctx, roots)
        for mu in extra:
            poly = _times(poly, [one, -mu, one])
        yield poly, sorted(set(roots), key=enumeration_key)


@pytest.mark.parametrize("name, ctx", _large_fields(),
                         ids=[name for name, _ in _large_fields()])
def test_planted_palindromic_roots(name, ctx):
    """Over fields too large to enumerate, a palindrome lists exactly its
    planted roots in iter_elements order, and none of the roots of an
    irreducible X^2 - mu X + 1."""
    from matcanon.roots import _finite_field_roots
    rng = random.Random(name)
    kinds = set()
    for poly, roots in _planted_palindromes(ctx, rng, 60):
        assert _finite_field_roots(poly)[0] == roots
        assert all(poly_eval(poly, r).is_zero() for r in roots)
        kinds.add((len(poly) - 1, len(roots)))
    assert {4, 6, 8} <= {d for d, _ in kinds}
    assert (4, 0) in kinds and (6, 0) in kinds


@pytest.mark.parametrize("ctx", [prime_field(65521), gf4()],
                         ids=["GF(65521)", "GF(4)"])
def test_a_palindromic_quartic_takes_no_frobenius_power(ctx, monkeypatch):
    """A palindromic quartic's g is a quadratic: its roots, and those of
    X^2 - mu X + 1 for each, are square (or Artin-Schreier) roots, and
    neither listing nor splitting computes X^q mod anything."""
    from matcanon.roots import _finite_field_roots

    def refuse(*args):
        raise AssertionError("a palindromic quartic took a Frobenius power")

    monkeypatch.setattr(matcanon.roots, "frobenius_gcd", refuse)
    a, b = itertools.islice(ctx.iter_elements(), 2, 4)  # 2, 3 or t, t + 1
    roots = [a, a.inverse(), b, b.inverse()]
    poly = _monic_from_roots(ctx, roots)
    assert _finite_field_roots(poly)[0] == sorted(set(roots),
                                               key=enumeration_key)
    out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
    assert out.ctx == ctx
    assert sorted((r for r, _m in out.split_roots), key=enumeration_key) \
        == sorted(set(roots), key=enumeration_key)


def _irreducible_mus(p, count, start=2):
    """The first count mu >= start with X^2 - mu X + 1 irreducible over
    GF(p): mu^2 - 4 is no square."""
    return list(itertools.islice(
        (mu for mu in itertools.count(start)
         if pow(mu * mu - 4, (p - 1) // 2, p) == p - 1), count))


def _product_of_quadratics(ctx, mus):
    """prod (X^2 - mu X + 1), coefficients low to high."""
    poly = [ctx.one()]
    for mu in mus:
        poly = _times(poly, [ctx.one(), -ctx.scalar(mu), ctx.one()])
    return poly


def _root_through_h(poly):
    """The root find_one_root takes for a palindrome with no root in its
    field, found the old way: mu = find_one_root(h), then the root of
    X^2 - mu X + 1 adjoined."""
    mu, _ = matcanon.roots.find_one_root(
        matcanon.roots._palindrome_transform(poly))
    one = mu.ctx.one()
    return matcanon.roots._quadratic_roots([one, -mu, one], EXTEND)[0]


@pytest.mark.parametrize("extra", [[], [-1, 1]],
                         ids=["least-mu", "one-and-minus-one"])
def test_a_rootless_palindrome_reads_h_once(extra, monkeypatch):
    """A palindrome whose listing finds no root in GF(q), every X^2 - mu X
    + 1 irreducible, takes mu from the roots of h that listing found (1,
    else -1, else the least), with no second Frobenius power of h."""
    calls = []
    real = matcanon.roots.frobenius_gcd

    def counted(ops, f, e):
        calls.append(len(f) - 1)
        return real(ops, f, e)

    p = 65537  # p = 2 mod 3: X^2 -+ X + 1 are irreducible
    ctx = prime_field(p)
    mus = _irreducible_mus(p, 3 - len(extra), start=3) + extra
    poly = _product_of_quadratics(ctx, mus)
    want = _root_through_h(poly)
    monkeypatch.setattr(matcanon.roots, "frobenius_gcd", counted)
    root, listed = matcanon.roots.find_one_root(poly)
    assert (root.ctx, root.raw) == (want.ctx, want.raw)
    assert listed is None and len(root.ctx.tower) == 1
    if not extra:
        assert calls == [3]  # the listing of h, not a second one
    del calls[:]
    out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
    assert out.split_roots[0][0] == want and len(out.split_roots) == 6
    assert calls == [3]


def test_a_rootless_palindrome_is_transformed_once(monkeypatch):
    """The listing returns h with the roots it read: a palindrome with no
    root in GF(q) takes its adjunction through that h, not a second
    transform."""
    ctx = prime_field(65537)
    poly = _product_of_quadratics(ctx, [3, 4, 7])  # each irreducible
    want = _root_through_h(poly)
    degrees = []
    real = matcanon.roots._palindrome_transform
    monkeypatch.setattr(matcanon.roots, "_palindrome_transform", lambda f: (
        degrees.append(len(f) - 1) or real(f)))
    root, listed = matcanon.roots.find_one_root(poly)
    assert (root.ctx, root.raw) == (want.ctx, want.raw) and listed is None
    assert degrees == [6]


def test_a_rootless_palindromic_quartic_solves_h_once(monkeypatch):
    """A quartic over GF(65521) whose h splits while no X^2 - mu X + 1
    does: the square root of h's discriminant is taken once."""
    p = 65521
    ctx = prime_field(p)
    mus = _irreducible_mus(p, 2, start=3)
    poly = _product_of_quadratics(ctx, mus)
    h = matcanon.roots._palindrome_transform(poly)
    want = _root_through_h(poly)
    solved = []
    real = matcanon.roots.quadratic_roots
    monkeypatch.setattr(matcanon.roots, "quadratic_roots",
                        lambda a, b, c, policy: solved.append((b, c))
                        or real(a, b, c, policy))
    root, _listed = matcanon.roots.find_one_root(poly)
    assert (root.ctx, root.raw) == (want.ctx, want.raw)
    assert solved.count((h[1] / h[2], h[0] / h[2])) == 1
    # the listing's two strict solves of X^2 - mu X + 1, and the one that
    # adjoins the root
    assert len(solved) == 4


def _split_digest_inputs(count=300):
    """Seeded random invertible n x n matrices, n 2 to 8, over
    GF(2), GF(3), GF(4), GF(13), GF(65521), GF(65537) and GF(1000003)."""
    contexts = [prime_field(2), prime_field(3), gf4(), prime_field(13),
                prime_field(65521), prime_field(65537), prime_field(1000003)]
    rng = random.Random(3901)
    for i in range(count):
        ctx = contexts[i % len(contexts)]
        pool = list(ctx.iter_elements()) if ctx.order() <= 13 else None
        n = rng.randint(2, 8)
        while True:
            a = ExactMatrix(ctx, [[rng.choice(pool) if pool
                                   else rng.randrange(ctx.p)
                                   for _ in range(n)] for _ in range(n)])
            if inverse_or_rank(a, rank_only=True).rank == n:
                break
        yield a


def test_split_answers_are_pinned():
    """One digest over split_min_poly's context, roots and multiplicities,
    or the NotSplit message, of 300 random forms up to 8 x 8: minimal
    polynomials whose palindromes have cubic and quartic g, beyond the
    sweeps' n <= 5 (n <= 4 over the large primes)."""
    digest = hashlib.sha256()
    for a in _split_digest_inputs():
        try:
            out = split_min_poly(asymmetry(a))
            text = repr((out.ctx, [(r.ctx, r.raw, m)
                                   for r, m in out.split_roots]))
        except NotSplit as exc:
            text = "NotSplit: %s" % exc
        digest.update(text.encode())
    assert digest.hexdigest() == \
        "6cf5f5834f05ad846b39ba251e7e56e127162bae4f7b86edfc4aebb34d27eac0"


def _listed_root(poly):
    """The root a search that lists roots picks for a monic quadratic: 1,
    else -1, else the first root listed (_finite_field_roots over GF(q),
    _rational_root over Q), else the root quadratic_roots adjoins."""
    from matcanon.field import quadratic_roots
    from matcanon.roots import _finite_field_roots, _rational_root
    ctx = poly[0].ctx
    one = ctx.one()
    if ctx.kind == "rational":
        listed = [one, -one, _rational_root(poly)]
    else:
        listed = [one, -one] + _finite_field_roots(poly)[0]
    found = [r for r in listed
             if r is not None and poly_eval(poly, r).is_zero()]
    if found:
        return found[0]
    return quadratic_roots(one, poly[1], poly[0], EXTEND)[0]


def _quadratic_fields():
    from matcanon.field import gf4
    f3, big = prime_field(3), prime_field(65521)
    return [("GF(13)", prime_field(13)), ("GF(65521)", big),
            ("GF(4)", gf4()), ("GF(3)(sqrt-1)", f3.adjoin_sqrt(f3.scalar(-1))),
            ("GF(65521)(sqrt17)", big.adjoin_sqrt(big.scalar(17))),
            ("Q", rationals())]


@pytest.mark.parametrize("name, ctx", _quadratic_fields(),
                         ids=[name for name, _ in _quadratic_fields()])
def test_quadratic_roots_without_listing(name, ctx, monkeypatch):
    """A quadratic minimal polynomial is solved by quadratic_roots, with no
    X^q listing and no rational-root search, and split_min_poly takes the
    root the listing picks: 1, else -1, else the least in the field, else
    the one adjoined.  Split quadratics (X - a)(X - 1/a) and irreducible
    palindromes X^2 - mu X + 1 alike."""
    import matcanon.roots
    from matcanon.field import format_scalar, random_elements
    one = ctx.one()
    if ctx.kind == "rational":
        rng = random.Random(name)
        draws = (ctx.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                 for _ in itertools.count())
    else:
        draws = random_elements(ctx)
    polys = [_monic_from_roots(ctx, [one, -one]),
             _monic_from_roots(ctx, [one, one]),
             _monic_from_roots(ctx, [-one, -one])]
    mus = []
    while len(polys) < 12 or len(mus) < 4:
        a = next(draws)
        if a.is_zero():
            continue
        if len(polys) < 12 and a != one and a != -one:
            polys.append(_monic_from_roots(ctx, [a, a.inverse()]))
        # X^2 - a X + 1 when it has no root in ctx
        if len(mus) < 4 and _listed_root([one, -a, one]).ctx != ctx:
            mus.append(a)
    polys += [[one, -mu, one] for mu in mus]
    expected = [_listed_root(poly) for poly in polys]
    assert any(r.ctx == ctx and r != one and r != -one for r in expected)
    assert any(r.ctx != ctx for r in expected)

    def refuse(*args):
        raise AssertionError("a quadratic was sent to a root search")

    monkeypatch.setattr(matcanon.roots, "frobenius_gcd", refuse)
    monkeypatch.setattr(matcanon.roots, "_rational_root", refuse)
    for poly, want in zip(polys, expected):
        out = split_min_poly(Asymmetry(_companion(ctx, poly), poly, ctx))
        got = out.split_roots[0][0]
        assert (got.ctx, format_scalar(got)) == \
            (want.ctx, format_scalar(want)), [format_scalar(c) for c in poly]


@pytest.mark.parametrize("ctx", [rationals(), prime_field(3)],
                         ids=["Q", "GF(3)"])
def test_minimal_polynomial_stops_at_first_dependence(ctx, monkeypatch):
    """A 3 x 3 block repeated three times has a cubic minimal polynomial,
    found with at most 3 products, not the 9 of all powers up to S^9."""
    block = ExactMatrix(ctx, [[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    s = ExactMatrix.block_diag(ctx, [block] * 3)
    products = []
    matmul = ExactMatrix.__matmul__

    def counted(a, b):
        products.append((a.nrows, b.ncols))
        return matmul(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
    poly = _minimal_polynomial(s)
    monkeypatch.undo()
    d = len(poly) - 1
    assert d == 3 and poly[-1] == ctx.one()
    assert len(products) <= d
    assert [c.coords for c in _minimal_polynomial(block)] == \
        [c.coords for c in poly]
    value = ExactMatrix.zeros(ctx, 9, 9)
    for c in reversed(poly):  # Horner: sum c_i S^i
        value = value @ s + ExactMatrix.identity(ctx, 9).scale(c)
    assert value.is_zero()

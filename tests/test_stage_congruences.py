"""Each pipeline stage's congruence holds on its own.

Gabriel returns an unverified congruence and the later stages their X
alone; canonicalize builds each canonical block once, as the target of
the composed congruence, and certifies only that one, which fails whenever
a stage is wrong but cannot say which.  These tests wrap the stages where
canon looks them up, build the target each stage's X must reach, certify
every (x, source, target), and name the stage that broke.
"""

import random

import pytest

from matcanon import canon, spectral, unipotent
from matcanon.canon import (Block, canonical_block_matrix, canonicalize,
                            equivalent)
from matcanon.errors import NotSplit
from matcanon.exactmat import (CongruenceWitness, ExactMatrix, WitnessError,
                               inverse_or_rank)
from matcanon.field import gf4, prime_field, rationals, sqrt_or_adjoin
from matcanon.spectral import asymmetry_matrix, hyperbolic_block_matrix
from matcanon.unipotent import gamma_block

STAGES = ("gabriel_decompose", "eigen_split", "hyperbolic_canonical",
          "reduce_single", "reduce_pair")


def _stage_congruence(name, args, result):
    """(x, source, target) of one stage call; source is the stage's input,
    and the target, but for Gabriel's, is built here."""
    if name == "gabriel_decompose":
        cong = result.congruence
        if cong.source != args[0].promote(cong.source.ctx):
            pytest.fail("%s: congruence source is not the stage input" % name)
        return cong
    if name == "eigen_split":
        # the class bases side by side, onto their Gram matrices' diagonal
        a, asym = args[:2]
        return (ExactMatrix.blocks(asym.ctx, [[cl.basis for cl in result]]),
                a.promote(asym.ctx),
                ExactMatrix.block_diag(asym.ctx, [cl.gram for cl in result]))
    if name == "hyperbolic_canonical":
        (x, sizes), (gram, lam) = result, args
        return x, gram, ExactMatrix.block_diag(x.ctx, [
            hyperbolic_block_matrix(x.ctx, m, lam) for m in sizes])
    x, g = result, args[0]
    if name == "reduce_single":
        return x, g, gamma_block(x.ctx, args[2])
    # eps is the one eigenvalue of g's asymmetry, whose first column on the
    # basis v, pv, ..., w, pw, ... is eps v + pv
    eps = asymmetry_matrix(g)[0, 0]
    return x, g, hyperbolic_block_matrix(x.ctx, args[1], eps)


@pytest.fixture
def stage_calls(monkeypatch):
    """Wrap the stages in canon; each call is certified and counted."""
    calls = {name: 0 for name in STAGES}

    def wrap(name, original):
        def stage(*args, **kwargs):
            result = original(*args, **kwargs)
            x, source, target = _stage_congruence(name, args, result)
            try:
                CongruenceWitness(x, source, target)
            except WitnessError as exc:
                pytest.fail("%s returned a false congruence: %s"
                            % (name, exc))
            calls[name] += 1
            return result
        return stage

    for name in STAGES:
        monkeypatch.setattr(canon, name, wrap(name, getattr(canon, name)))
    return calls


def _q_sqrt2():
    _g, ctx = sqrt_or_adjoin(rationals().scalar(2))
    return ctx


def _entry(ctx, rng):
    if ctx.kind != "rational":
        return rng.choice(list(ctx.iter_elements()))
    e = ctx.scalar(rng.randint(-3, 3))
    if ctx.tower:
        e = e + ctx.scalar(rng.randint(-2, 2)) * ctx.generator(1)
    return e


def _rand_matrix(ctx, rng, n):
    return ExactMatrix(ctx, [[_entry(ctx, rng) for _ in range(n)]
                             for _ in range(n)])


def _scrambled(ctx, rng, blocks):
    a = ExactMatrix.block_diag(
        ctx, [canonical_block_matrix(b, ctx) for b in blocks])
    while True:
        y = _rand_matrix(ctx, rng, a.nrows)
        if inverse_or_rank(y).inverse is not None:
            return y.transpose() @ a @ y


def _g(ctx, n, lam):
    return Block("G", n, lam(ctx))


# (name, context, block sums to scramble); between them the sums reach
# every stage in every context whose field has a G eigenvalue
CASES = [
    ("Q", rationals, [
        [Block("A", 3), Block("C", 2)],
        [Block("D", 4), Block("A", 1)],
        [Block("F", 2), Block("F", 2)],
        [lambda c: _g(c, 2, lambda c: c.scalar(2)), Block("A", 1)],
    ]),
    ("GF(2)", lambda: prime_field(2), [
        [Block("B", 3), Block("B", 1)],
        [Block("D", 4)],
        [Block("E", 2), Block("B", 1)],
    ]),
    ("GF(3)", lambda: prime_field(3), [
        [Block("A", 3), Block("C", 2)],
        [Block("D", 4), Block("F", 2)],
    ]),
    ("GF(4)", gf4, [
        [Block("B", 3), Block("E", 2)],
        [lambda c: _g(c, 2, lambda c: c.base_element((0, 1))),
         Block("D", 4)],
    ]),
    ("Q(sqrt2)", _q_sqrt2, [
        [Block("A", 1), Block("C", 2)],
        [Block("D", 4)],
        [lambda c: _g(c, 2, lambda c: c.generator(1)),
         lambda c: _g(c, 4, lambda c: c.scalar(3))],
    ]),
]


@pytest.mark.parametrize("name, make_ctx, sums", CASES,
                         ids=[case[0] for case in CASES])
def test_every_stage_congruence_holds(name, make_ctx, sums, stage_calls):
    ctx = make_ctx()
    rng = random.Random("stage-" + name)
    inputs = [_scrambled(ctx, rng, [b(ctx) if callable(b) else b
                                    for b in blocks])
              for blocks in sums]
    inputs += [_rand_matrix(ctx, rng, rng.randint(1, 4)) for _ in range(8)]
    for a in inputs:
        try:
            canonicalize(a)
        except NotSplit:
            continue
    has_g = any(callable(b) for blocks in sums for b in blocks)
    used = {stage for stage, count in stage_calls.items() if count}
    assert used >= ({"gabriel_decompose", "eigen_split", "reduce_single",
                     "reduce_pair"}
                    | ({"hyperbolic_canonical"} if has_g else set()))


def test_a_corrupt_stage_fails_the_answer(monkeypatch):
    # the stages are not checked on their own: the one certification of the
    # composed congruence has to catch a wrong stage (a true verdict needs
    # no such test: its Y is certified, whatever the stages did)
    original = canon.reduce_single

    def corrupt(*args, **kwargs):
        x = original(*args, **kwargs)
        return x.scale(x.ctx.scalar(2))

    monkeypatch.setattr(canon, "reduce_single", corrupt)
    q = rationals()
    a = _scrambled(q, random.Random(5), [Block("A", 3)])
    b = _scrambled(q, random.Random(6), [Block("A", 1), Block("A", 1),
                                         Block("A", 1)])
    with pytest.raises(WitnessError):
        canonicalize(a)
    with pytest.raises(WitnessError):
        equivalent(a, b)  # a false verdict is certified too


# (name, context, block sum): between them a G block whose class is in
# closed form and one that is not, +-1 singles and +-1 pairs
BUILD_CASES = [
    ("Q", rationals, [Block("A", 3), Block("F", 2),
                      lambda c: _g(c, 4, lambda c: c.scalar(2))]),
    ("GF(3)", lambda: prime_field(3), [Block("A", 1), Block("C", 2),
                                       Block("D", 4), Block("F", 2)]),
    ("GF(4)", gf4, [Block("B", 3), Block("E", 2),
                    lambda c: _g(c, 2, lambda c: c.base_element((0, 1)))]),
]


@pytest.mark.parametrize("name, make_ctx, blocks", BUILD_CASES,
                         ids=[case[0] for case in BUILD_CASES])
def test_each_canonical_block_is_built_once(name, make_ctx, blocks,
                                            monkeypatch):
    # the stages return X alone, and canon builds each block once, for the
    # target of its certificate; a first call fills the Gamma-side memo,
    # whose misses build Gamma_n for its own reduction
    ctx = make_ctx()
    blocks = [b(ctx) if callable(b) else b for b in blocks]
    a = _scrambled(ctx, random.Random("built-" + name), blocks)
    canonicalize(a)
    built = [0]

    def counted(builder):
        def build(*args):
            built[0] += 1
            return builder(*args)
        return build

    for module in (canon, spectral, unipotent):
        for attr in ("gamma_block", "hyperbolic_block_matrix"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr,
                                    counted(getattr(module, attr)))
    form, _witness = canonicalize(a)
    assert sorted((b.family, b.n) for b in form.blocks) == \
        sorted((b.family, b.n) for b in blocks)
    assert built[0] == len(form.blocks)

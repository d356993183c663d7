"""Each pipeline stage's plain congruence holds on its own.

The stages return unverified congruences and canonicalize certifies only
the composed one, which fails whenever a stage is wrong but cannot say
which.  These tests wrap the stages where canon looks them up, certify
every (x, source, target) a stage returns, and name the stage that broke.
"""

import random

import pytest

from matcanon import canon
from matcanon.canon import (Block, canonical_block_matrix, canonicalize,
                            equivalent)
from matcanon.errors import NotSplit
from matcanon.exactmat import (CongruenceWitness, ExactMatrix, WitnessError,
                               inverse_or_rank)
from matcanon.field import gf4, prime_field, rationals, sqrt_or_adjoin

STAGES = ("gabriel_decompose", "eigen_split", "hyperbolic_canonical",
          "reduce_single", "reduce_pair")


def _stage_congruence(name, args, result):
    """(x, source, target) of one stage call; source is the stage's input."""
    if name == "eigen_split":
        a, asym = args[:2]
        return result.x, a.promote(asym.ctx), result.gram
    if name == "hyperbolic_canonical":
        return result.x, args[0], result.gram
    cong = result.congruence if name == "gabriel_decompose" else result
    if cong.source != args[0].promote(cong.source.ctx):
        pytest.fail("%s: congruence source is not the stage input" % name)
    return cong


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
        cong = original(*args, **kwargs)
        return cong._replace(x=cong.x.scale(cong.x.ctx.scalar(2)))

    monkeypatch.setattr(canon, "reduce_single", corrupt)
    q = rationals()
    a = _scrambled(q, random.Random(5), [Block("A", 3)])
    b = _scrambled(q, random.Random(6), [Block("A", 1), Block("A", 1),
                                         Block("A", 1)])
    with pytest.raises(WitnessError):
        canonicalize(a)
    with pytest.raises(WitnessError):
        equivalent(a, b)  # a false verdict is certified too

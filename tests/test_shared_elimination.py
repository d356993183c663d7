"""One elimination per input, one split per shared minimal polynomial.

A canonicalization opens with one elimination of [A | A'] on the trimmed
input: for an invertible A its solution is the asymmetry S, and for a
singular A its first n columns give the kernel and pivots of Gabriel's
first rank test.  equivalent splits a minimal polynomial the two sides share
once.  The answers stay those of the two eliminations and two splits, pinned
here per case by the digest of tests/test_golden_answers.py's answer text.

The elimination counts include every solve, and adjoining a new
Artin-Schreier record solves too, so CI runs this file in a fresh process
as well.
"""

import hashlib
import itertools
import random

import pytest

from matcanon import (ExactMatrix, HypothesisViolation, MatcanonError,
                      canonicalize, equivalent, finite_field, format_scalar,
                      prime_field, rationals, transpose_witness)
from matcanon import canon, exactmat, gabriel
from matcanon.spectral import asymmetry

from test_golden_answers import _random_invertible, answer_text

# (name, field, the field with a tower cap, an input strict refuses); the
# capped GF(65521) stops the height-2 split below at height 1
FIELDS = (
    ("q", rationals(), rationals(tower_cap=0), [[1, 1], [0, 1]]),
    ("gf3", prime_field(3), prime_field(3, tower_cap=0), [[2]]),
    ("gf4", finite_field(2, (1, 1)), finite_field(2, (1, 1), tower_cap=0),
     [[(1, 1), 0], [1, (1, 1)]]),
    ("gf65521", prime_field(65521), prime_field(65521, tower_cap=1), [[17]]),
)
FIELD_IDS = [f[0] for f in FIELDS]

# over GF(65521): S's minimal polynomial splits at height 2, under
# sqrt(7711) and sqrt(28260 + 581 g1)
HEIGHT_2 = [[33438, 23572, 65449, 33668], [44202, 36692, 11917, 65219],
            [58561, 29205, 52216, 27175], [48129, 34430, 59414, 59538]]


def _matrix(ctx, rows):
    return ExactMatrix(ctx, [[ctx.scalar(e) for e in row] for row in rows])


def _invertible(ctx, seed, n=3):
    return _random_invertible(ctx, random.Random(seed), n)


def _with_radical(ctx, seed):
    """J_1 + J_3 + an invertible 2 x 2, scrambled: a singular input whose
    radical is nonzero."""
    a = ExactMatrix.block_diag(ctx, [
        ExactMatrix.jordan_block(ctx, 1), ExactMatrix.jordan_block(ctx, 3),
        _invertible(ctx, seed, 2)])
    y = _invertible(ctx, seed + "/y", a.nrows)
    return y.transpose() @ a @ y


def _without_radical(ctx, seed):
    """J_2 + an invertible 2 x 2, scrambled: singular, radical zero."""
    a = ExactMatrix.block_diag(ctx, [ExactMatrix.jordan_block(ctx, 2),
                                     _invertible(ctx, seed, 2)])
    y = _invertible(ctx, seed + "/y", a.nrows)
    return y.transpose() @ a @ y


def _sqrt_pair(ctx):
    """(2) + G2(3) against its scramble with (8) for (2): congruent, one
    side settling over sqrt(2), the other over sqrt(8) (README)."""
    g2 = ExactMatrix(ctx, [[0, 3], [1, 0]])
    a = ExactMatrix.block_diag(ctx, [ExactMatrix(ctx, [[2]]), g2])
    b = ExactMatrix.block_diag(ctx, [ExactMatrix(ctx, [[8]]), g2])
    y = ExactMatrix(ctx, [[1, 1, 1], [0, 1, 1], [1, 0, 1]])
    return a, y.transpose() @ b @ y


def _pair_text(a, b):
    try:
        res = equivalent(a, b)
    except MatcanonError as exc:
        return "equivalent refusal %s: %s" % (type(exc).__name__, exc)
    lines = ["equivalent %r %r %r %r" % (res.equivalent, res.extensions,
                                          res.context, res.records)]
    if res.witness is not None:
        lines.append("equivalent witness " + repr(
            [[format_scalar(e) for e in row] for row in res.witness.x.rows]))
    return "\n".join(lines)


def cases():
    """(name, text of every answer the case's inputs get)."""
    out = []
    for fname, ctx, capped, strict_rows in FIELDS:
        singles = [
            ("empty", ExactMatrix(ctx, [])),
            ("invertible", _invertible(ctx, fname)),
            ("radical", _with_radical(ctx, fname)),
            ("no-radical", _without_radical(ctx, fname)),
            ("strict", _matrix(ctx, strict_rows)),
            ("cap", _matrix(capped, HEIGHT_2 if fname == "gf65521"
                            else strict_rows)),
        ]
        if fname == "gf65521":
            singles.append(("height-2", _matrix(ctx, HEIGHT_2)))
        for name, a in singles:
            name = "%s-%s" % (fname, name)
            out.append((name, lambda name=name, a=a: answer_text(1, name, a)))
        non_square = ExactMatrix(ctx, [[1, 0, 1], [0, 1, 1]])
        out.append(("%s-non-square" % fname, lambda a=non_square: "\n".join(
            _refusal_text(f, a) for f in (canonicalize, transpose_witness,
                                          lambda m: equivalent(m, m)))))
    a, b = _sqrt_pair(rationals())
    out.append(("q-sqrt-pair", lambda: _pair_text(a, b)))
    return out


def _refusal_text(call, a):
    try:
        call(a)
    except MatcanonError as exc:
        return "refusal %s: %s" % (type(exc).__name__, exc)
    return "answered"


DIGESTS = {
    'q-empty':
        'cae9753c5dd2d8da140cd9c0f7f84396ca573ce2f65a79e2f67cb00df91f4216',
    'q-invertible':
        '4ae461bd30a8a534405b5b392231c35ffbd751133a606cdec2574a15f8c88c24',
    'q-radical':
        '81eb8a15e20d989d4ce3c286e8b6c58dbc930ccf0e96e0c3731129057f73b440',
    'q-no-radical':
        '8634e09c2a0b489c0c31836d5708dedaeefd828596f82ca6148872875423f10b',
    'q-strict':
        'd6feb33c96302565111cf2fcb362c7fab6da6ebc5357fbd8ba706ca1102f1b31',
    'q-cap':
        '90fb5f39cb30fddaf54db1e59eec343671e34d27dc9a186b4ed665656ff4028b',
    'q-non-square':
        '7aa7b4cd57f3adf7c7a5983efcc016a7fd18008b2f7277c1e0955a1c8661c1c1',
    'gf3-empty':
        '7898e54edbda51f230935cd6ad308ccc02eafa64ede9d95c3be0e0d2a21b1342',
    'gf3-invertible':
        'f350c1ee77c2f416889e54069604654b3b02b1472d3faaf0858717ed8764dc93',
    'gf3-radical':
        '7aee7006c7c9c24c8c8d7cbaf836c302fb1baa31a8f783207ce179bc0c66ced5',
    'gf3-no-radical':
        '04f382d842f9da8b37290cb8f32842e6f528c8f5f81050663531677840c1addd',
    'gf3-strict':
        '211bd07f701e1289d89f2de8fd91e8d31f2070198e261797f15a9ad14385e4fa',
    'gf3-cap':
        '7f6bddc3625f11ba87a735387a7295710aa4bc7c38dc1dbdaba95cb7d2a395e7',
    'gf3-non-square':
        '7aa7b4cd57f3adf7c7a5983efcc016a7fd18008b2f7277c1e0955a1c8661c1c1',
    'gf4-empty':
        '557dc416c11a3366564de3f89ebb9234170db404b1d569cb85894a5b16913b28',
    'gf4-invertible':
        'c3e79db7e5d84368d53e00f70884a3ff3d7f2f615516a7ec6e3dc437c64436cd',
    'gf4-radical':
        '5c27619a6fd05f2cf643f88415c9b8b3e760555c50315abc8b8225aa82d2e329',
    'gf4-no-radical':
        '53adc10d8527e9b0156c525190fbd5587f6682e1a89d9d8b70e18b792289fd34',
    'gf4-strict':
        'd76ca69d30d8bdb1cf15f4e5ac3f95e7e82277c3784c186abff3eeb17f09e06d',
    'gf4-cap':
        '4b0ffbcc5211c5e9128bb5b65b5800e1f8b2b0997700408cfbc5e50c70bea5c9',
    'gf4-non-square':
        '7aa7b4cd57f3adf7c7a5983efcc016a7fd18008b2f7277c1e0955a1c8661c1c1',
    'gf65521-empty':
        'a96cb2f3f047328efd32bcb1e4c21a9131abdaeb7262967f398fffb5124d6595',
    'gf65521-invertible':
        '2f09a5a041fc540c8c257d8d50a472feb03674d8765a83b3c774c1fac28584d2',
    'gf65521-radical':
        '58bbc6b7e6f89bde3839ab96050592489f173176f93864a68dc2ac3cbc78f2b5',
    'gf65521-no-radical':
        '8db511701ddd502d60784423dd78d7e1eeaa8e1e9d990c32dfe6e0cf278ba6a6',
    'gf65521-strict':
        '8158589a859a875900a75004903816520d7c58b32f9c3ad15c911da26361dcf8',
    'gf65521-cap':
        '7cbbbd3190e1a8d67a04a0d62c9365027eedfec4a2d21557788ee81679d04b34',
    'gf65521-height-2':
        'bff53fef5e5eaea2b6e5c54eeba4182ce0f9db12f3dfac0d66a84783cf997005',
    'gf65521-non-square':
        '7aa7b4cd57f3adf7c7a5983efcc016a7fd18008b2f7277c1e0955a1c8661c1c1',
    'q-sqrt-pair':
        'cfe85b3b298576e425baf5ddcd5c0da13d87e2f4da46f32a7cb269c4bec14e3e',
}


@pytest.mark.parametrize("name,text", cases(), ids=[c[0] for c in cases()])
def test_answers_are_pinned(name, text):
    assert hashlib.sha256(text().encode()).hexdigest() == DIGESTS[name]


# -- counts ------------------------------------------------------------------------


@pytest.fixture
def eliminations(monkeypatch):
    """The number of eliminations run so far, a list of one count: every
    solve and inverse_or_rank reduces its rows once, by exactmat._rref."""
    count = [0]
    rref = exactmat._rref

    def counted(ops, work, m):
        count[0] += 1
        return rref(ops, work, m)

    monkeypatch.setattr(exactmat, "_rref", counted)
    return count


@pytest.fixture
def splits(monkeypatch):
    """The asymmetries split_min_poly is called on."""
    calls = []
    split = canon.split_min_poly

    def counted(asym):
        calls.append(asym)
        return split(asym)

    monkeypatch.setattr(canon, "split_min_poly", counted)
    return calls


def _inputs(fname, ctx):
    """The field's invertible inputs: a random one, and over GF(65521) one
    that splits at height 2."""
    out = [_invertible(ctx, fname)]
    if fname == "gf65521":
        out.append(_matrix(ctx, HEIGHT_2))
    return out


@pytest.mark.parametrize("fname,ctx", [f[:2] for f in FIELDS], ids=FIELD_IDS)
def test_equivalent_splits_a_shared_minimal_polynomial_once(fname, ctx,
                                                             splits):
    for a in _inputs(fname, ctx):
        y = _invertible(ctx, fname + "/scramble", a.nrows)
        del splits[:]
        res = equivalent(a, y.transpose() @ a @ y)
        assert res.equivalent and len(splits) == 1
        # the first random invertible b whose minimal polynomial differs
        b = next(b for seed in itertools.count()
                 for b in [_invertible(ctx, "%s/%d" % (fname, seed), a.nrows)]
                 if asymmetry(b).min_poly != asymmetry(a).min_poly)
        del splits[:]
        assert not equivalent(a, b).equivalent
        assert len(splits) == 2


def test_the_sqrt_pair_splits_once_and_merges(splits):
    a, b = _sqrt_pair(rationals())
    forms = [canonicalize(m)[0] for m in (a, b)]
    assert [f.extension_report for f in forms] == [["sqrt(2)"], ["sqrt(8)"]]
    del splits[:]
    assert equivalent(a, b).equivalent
    assert len(splits) == 1


@pytest.mark.parametrize("fname,ctx", [f[:2] for f in FIELDS], ids=FIELD_IDS)
def test_an_invertible_input_is_eliminated_once_before_the_split(
        fname, ctx, eliminations, monkeypatch):
    seen = []
    split = canon.split_min_poly
    monkeypatch.setattr(canon, "split_min_poly",
                        lambda asym: seen.append(eliminations[0])
                        or split(asym))
    for a in _inputs(fname, ctx):
        del seen[:]
        eliminations[0] = 0
        canonicalize(a)
        assert seen == [1]


@pytest.mark.parametrize("fname,ctx", [f[:2] for f in FIELDS], ids=FIELD_IDS)
def test_a_singular_input_has_no_top_rank_test(fname, ctx, monkeypatch):
    seen = []
    rank = gabriel.inverse_or_rank
    monkeypatch.setattr(gabriel, "inverse_or_rank",
                        lambda m, rank_only=False: seen.append(m)
                        or rank(m, rank_only))
    for a in (_with_radical(ctx, fname), _without_radical(ctx, fname)):
        del seen[:]
        form, _w = canonicalize(a)
        assert form.gabriel
        assert all(m != a for m in seen)
        # gabriel_decompose alone tests the rank of A itself first
        del seen[:]
        gabriel.gabriel_decompose(a)
        assert seen[0] == a


@pytest.mark.parametrize("fname,ctx", [f[:2] for f in FIELDS], ids=FIELD_IDS)
def test_a_non_square_input_is_refused_before_any_elimination(
        fname, ctx, eliminations):
    a = ExactMatrix(ctx, [[1, 0, 1], [0, 1, 1]])
    for call in (canonicalize, transpose_witness,
                 lambda m: equivalent(m, m)):
        with pytest.raises(HypothesisViolation):
            call(a)
    assert eliminations[0] == 0

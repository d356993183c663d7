"""The tower record format as the package shows it: the JSON field objects of
the CLI, the extension report, and characteristic-2 square roots.

Each tower below is built by the public adjoin methods, written out with
context_to_json and read back with context_from_json; the JSON and the
report are pinned text.  No valid field mixes the two record kinds: a
square-root record needs a non-square, and every element of a finite field
of characteristic 2 is a square, so a characteristic-2 JSON tower with a
"sqrt" record is refused on reading (pinned below).
"""

from fractions import Fraction

import pytest

from matcanon import (ExactMatrix, FieldContext, ParseError, canonicalize,
                      equivalent)
from matcanon.canon import _extension_report
from matcanon.cli import context_from_json, context_to_json
from matcanon.field import (STRICT, gf4, prime_field, rationals,
                            sqrt_or_adjoin)


def _q_sqrt2_sqrt3():
    q = rationals()
    ctx = q.adjoin_sqrt(q.scalar(2))
    return q, ctx.adjoin_sqrt(ctx.scalar(3))


def _gf4_as():
    f4 = gf4()
    return f4, f4.adjoin_artin_schreier(f4.base_element((0, 1)))


def _gf2_as_as():
    f2 = prime_field(2)
    ctx = f2.adjoin_artin_schreier(f2.one())
    return f2, ctx.adjoin_artin_schreier(ctx.generator(1))


def _q_nested():
    # sqrt(1 + sqrt 2): the second record's d lies in the first level
    q = rationals()
    ctx = q.adjoin_sqrt(q.scalar(2))
    return q, ctx.adjoin_sqrt(1 + ctx.generator(1))


TOWERS = [
    (_q_sqrt2_sqrt3,
     {"kind": "rational", "tower": [{"kind": "sqrt", "value": "2"},
                                    {"kind": "sqrt", "value": "3"}]},
     ["sqrt(2)", "sqrt(3)"]),
    (_gf4_as,
     {"kind": "gfq", "p": 2, "modulus": [1, 1],
      "tower": [{"kind": "as", "value": "t"}]},
     ["artin_schreier(t)"]),
    (_gf2_as_as,
     {"kind": "gfp", "p": 2, "tower": [{"kind": "as", "value": "1"},
                                       {"kind": "as", "value": "1*g1"}]},
     ["artin_schreier(1)", "artin_schreier(1*g1)"]),
    (_q_nested,
     {"kind": "rational", "tower": [{"kind": "sqrt", "value": "2"},
                                    {"kind": "sqrt", "value": "1+1*g1"}]},
     ["sqrt(2)", "sqrt(1+1*g1)"]),
]


@pytest.mark.parametrize("build, obj, report", TOWERS)
def test_tower_json_and_report_round_trip(build, obj, report):
    base, ctx = build()
    assert context_to_json(ctx) == obj
    back = context_from_json(obj)
    assert back == ctx and context_to_json(back) == obj
    assert _extension_report(base, ctx) == report
    # a report starts at the height of its start context
    assert _extension_report(ctx.truncated(1), ctx) == report[1:]
    assert _extension_report(ctx, ctx) == []


def test_canonical_form_reports_an_artin_schreier_record():
    # the characteristic-2 D4 class needs x^2 + x = 1, which GF(2) lacks
    f2 = prime_field(2)
    a = ExactMatrix(f2, [[1, 0, 1, 1], [0, 0, 0, 1], [1, 0, 0, 0],
                         [0, 1, 0, 1]])
    form, _w = canonicalize(a)
    assert form.extension_report == ["artin_schreier(1)"]
    assert context_to_json(form.context) == {
        "kind": "gfp", "p": 2, "tower": [{"kind": "as", "value": "1"}]}
    assert equivalent(a, a.transpose()).extensions == ["artin_schreier(1)"]


def test_characteristic_2_tower_with_a_sqrt_record_is_refused():
    obj = {"kind": "gfp", "p": 2, "tower": [{"kind": "as", "value": "1"},
                                            {"kind": "sqrt", "value": "g1"}]}
    with pytest.raises(ValueError, match="1[*]g1 is a square in GF[(]2[)]"):
        context_from_json(obj)


def test_unknown_record_kind_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown adjunction kind"):
        context_from_json({"kind": "rational",
                           "tower": [{"kind": "cbrt", "value": "2"}]})


@pytest.mark.parametrize("build", [
    lambda: prime_field(2), gf4,
    lambda: prime_field(2).adjoin_artin_schreier(prime_field(2).one()),
    lambda: _gf4_as()[1]])
def test_characteristic_2_square_roots_square_back(build):
    ctx = build()
    for x in ctx.iter_elements():
        for policy in ("extend", STRICT):
            r, ctx2 = sqrt_or_adjoin(x, policy)
            assert ctx2 == ctx and r * r == x


def test_the_constructor_checks_each_record():
    # Q(sqrt 4) would have zero divisors: (g - 2)(g + 2) = 0
    with pytest.raises(ValueError, match="4 is a square in Q"):
        FieldContext("rational", tower=[(0, (Fraction(4),))])
    # a record kind is c1 = 0 or c1 = 1, nothing else
    with pytest.raises(ValueError, match="c1 = 0"):
        FieldContext("gfp", 2, tower=[(7, (1,))])
    # checked records give the context the adjoin methods build
    q = rationals()
    q2 = q.adjoin_sqrt(q.scalar(2))
    assert FieldContext("rational", tower=q2.tower) == q2
    f2_as = prime_field(2).adjoin_artin_schreier(prime_field(2).one())
    assert FieldContext("gfp", 2, tower=f2_as.tower) == f2_as


def test_the_constructor_reduces_record_coordinates():
    # a record's coordinates are read as scalar() reads a value: 5 is 2 in
    # GF(3), an int is a Fraction over Q, a GF(4) tuple is taken mod 2
    f3 = prime_field(3)
    ctx = FieldContext("gfp", 3, tower=[(0, (5,))])
    assert ctx == f3.adjoin_sqrt(f3.scalar(2))
    assert hash(ctx) == hash(f3.adjoin_sqrt(f3.scalar(2)))
    _q, q23 = _q_sqrt2_sqrt3()
    ctx = FieldContext("rational", tower=[(0, (2,)), (0, (3, 0))])
    assert ctx == q23
    assert all(type(c) is Fraction for _c1, d in ctx.tower for c in d)
    _f4, f4_as = _gf4_as()
    assert FieldContext("gfq", 2, (1, 1), tower=[(1, ((2, 3),))]) == f4_as

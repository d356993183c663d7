"""Outside correctness checks for every answer the benchmark receives.

An answer is accepted only when the relation it claims is recomputed here:
X'AX equals canonical_form_matrix(form) for a canonical form, Y'AY = B for
a True verdict, Y'AY = A' for a transpose witness, and X, Y are invertible.
Verdicts must match how the pair was built, the two canonicalizations of a
scrambled pair must give identical forms (or refusals of the same type),
and a scrambled block sum must have the form of the unscrambled sum.
"""

from __future__ import annotations

import json

from matcanon import canonical_form_matrix, inverse_or_rank

ANSWER, REFUSAL, FAILURE = "answer", "refusal", "failure"


class WrongAnswer(Exception):
    """An answer failed its outside check."""


def _require(ok, message):
    if not ok:
        raise WrongAnswer(message)


def _congruent(x, a, b, what):
    """X' A X == B, X invertible, over the context of X."""
    ctx = x.ctx.common(a.ctx).common(b.ctx)
    x, a, b = x.promote(ctx), a.promote(ctx), b.promote(ctx)
    _require(x.nrows == a.nrows == b.nrows, what + ": dimensions differ")
    _require(x.transpose() @ a @ x == b, what + ": X'AX != B")
    _require(x.nrows == 0 or inverse_or_rank(x).inverse is not None,
             what + ": witness is singular")


def same_form(f, g):
    return list(f.gabriel) == list(g.gabriel) and list(f.blocks) == list(g.blocks)


def check_value(op, value):
    """Check one completed call against its op; raises WrongAnswer."""
    if op.kind == "canon":
        form, witness = value
        (a,) = op.args
        size = sum(form.gabriel) + sum(b.n for b in form.blocks)
        _require(size == a.nrows, "canon: form size %d != %d" % (size, a.nrows))
        _congruent(witness.x, a, canonical_form_matrix(form), "canon")
    elif op.kind == "equiv":
        a, b = op.args
        _require(value.equivalent == op.expect,
                 "equiv: verdict %s, built as %s" % (value.equivalent, op.expect))
        if value.equivalent:
            _congruent(value.witness.x, a, b, "equiv")
        else:
            _require(value.witness is None, "equiv: False verdict with witness")
    elif op.kind == "transpose":
        (a,) = op.args
        _congruent(value.x, a, a.transpose(), "transpose")
    elif op.kind == "cli":
        code, out = value
        _require(code == 1, "cli equiv: exit code %d, built as False" % code)
        payload = json.loads(out)
        _require(payload.get("equivalent") is False,
                 "cli equiv: payload verdict %r" % payload.get("equivalent"))
        _require(str(payload.get("reason", "")).startswith("gabriel sizes"),
                 "cli equiv: reason %r, ranks differ" % payload.get("reason"))
    else:
        raise ValueError("unknown op kind %r" % (op.kind,))


def check_case(case, results, expected):
    """Check a case's results: a list of (outcome, detail, value) per op.

    `expected` is the (outcome, detail, value) of canonicalizing case.base,
    or None when the case has no base.
    """
    for op, (outcome, _detail, value) in zip(case.ops, results):
        if outcome == ANSWER:
            check_value(op, value)
    if case.pair:
        (o1, d1, v1), (o2, d2, v2) = results[0], results[1]
        if FAILURE not in (o1, o2):
            _require(o1 == o2, "pair: %s on A but %s on its scramble" % (o1, o2))
            if o1 == REFUSAL:
                _require(d1 == d2, "pair: refusals differ: %s vs %s" % (d1, d2))
            else:
                _require(same_form(v1[0], v2[0]),
                         "pair: forms differ: %r vs %r"
                         % (v1[0].blocks, v2[0].blocks))
    if expected is not None:
        eo, ed, ev = expected
        for op, (outcome, detail, value) in zip(case.ops, results):
            if op.kind != "canon" or outcome == FAILURE or eo == FAILURE:
                continue
            _require(outcome == eo, "base: %s on the scramble but %s on the "
                     "unscrambled sum" % (outcome, eo))
            if outcome == REFUSAL:
                _require(detail == ed, "base: refusals differ")
            else:
                _require(same_form(value[0], ev[0]),
                         "base: form %r %r, unscrambled sum %r %r"
                         % (value[0].gabriel, value[0].blocks,
                            ev[0].gabriel, ev[0].blocks))


def same_answer(op, v1, v2):
    """Whether two answers to one op are identical (the first was checked)."""
    if op.kind == "canon":
        return same_form(v1[0], v2[0]) and v1[1].x == v2[1].x
    if op.kind == "equiv":
        return v1.equivalent == v2.equivalent and (
            v1.witness is None or v1.witness.x == v2.witness.x)
    if op.kind == "transpose":
        return v1.x == v2.x
    return v1 == v2

"""Every ParseError raise in src/matcanon is reached in-process, and the
scalar grammar reads random expressions to their values.

A ParseError is an input fault (exit 4).  The reach test scans src/ for
its raises, as test_internal_checks does for the internal errors, and
requires each raise to be made to fire by one case of CASES below, the
raise read off the innermost frame of the error's traceback; a raise added
without a case, or a case left for a raise that is gone, fails it.

The property test draws expression trees over six fields, renders them
with random spaces and redundant parentheses, and parses them back to the
value built with Scalar arithmetic.  A one-character change of such a text
either still parses or is a ParseError, never another exception.
"""

import ast
import json
import pathlib
import random

import pytest

from matcanon import cli, field
from matcanon.errors import ParseError
from matcanon.field import (finite_field, gf4, parse_scalar, prime_field,
                            rationals)

SRC = pathlib.Path(field.__file__).resolve().parent


def parse_error_raises():
    """{(module, line): the source of the message} for every raise of a
    ParseError in src/matcanon."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ParseError"):
                found[(path.stem, node.lineno)] = ast.unparse(node.exc.args[0])
    return found


def raise_site(exc):
    """(module, line) of the raise that made exc: its traceback's innermost
    frame."""
    tb = exc.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    return pathlib.Path(tb.tb_frame.f_code.co_filename).stem, tb.tb_lineno


Q = rationals()
F3 = prime_field(3)
GF3_LINEAR = finite_field(3, (1,))  # GF(3) as GF(3)[t]/(t + 1): no t
GF9 = finite_field(3, (1, 0))  # t^2 + 1


def cli_run(*argv):
    """The subcommand of argv run in-process, its errors left to raise."""
    args = cli.build_parser().parse_args(list(argv))
    return args.func(args)


def matrix_file(tmp_path, obj, name="m.json"):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def equiv_across_fields(tmp_path):
    """equiv of a matrix over Q and one over GF(3)."""
    return cli_run("equiv", *(
        matrix_file(tmp_path, {"field": f, "matrix": [["1"]]}, name)
        for f, name in (({"kind": "rational"}, "q.json"),
                        ({"kind": "gfp", "p": 3}, "f3.json"))))


# (case id, f(tmp_path) that raises a ParseError)
CASES = [
    # the scalar grammar (field.parse_scalar)
    ("space in a number", lambda tmp: parse_scalar("1 2", Q)),
    ("empty text", lambda tmp: parse_scalar("  ", Q)),
    ("factor after a factor", lambda tmp: parse_scalar("2g1", Q)),
    ("unclosed parenthesis", lambda tmp: parse_scalar("((1)", Q)),
    ("dangling sign", lambda tmp: parse_scalar("1+", Q)),
    ("slash without denominator", lambda tmp: parse_scalar("1/", Q)),
    ("zero denominator", lambda tmp: parse_scalar("2/3", F3)),
    ("g without index", lambda tmp: parse_scalar("g", Q)),
    ("generator beyond the tower", lambda tmp: parse_scalar("g1", Q)),
    ("unexpected character", lambda tmp: parse_scalar("1+²", Q)),
    ("t over a prime field", lambda tmp: parse_scalar("t", F3)),
    ("caret without exponent", lambda tmp: parse_scalar("t^", GF9)),
    ("t over a degree-1 modulus", lambda tmp: parse_scalar("t",
                                                           GF3_LINEAR)),
    # matrix files and flags (cli)
    ("JSON value of the wrong shape",
     lambda tmp: cli.matrix_from_json({"field": [], "matrix": []})),
    ("JSON key missing", lambda tmp: cli.matrix_from_json({"matrix": []})),
    ("unknown field kind",
     lambda tmp: cli.context_from_json({"kind": "reals"})),
    ("unknown adjunction kind",
     lambda tmp: cli.context_from_json({"kind": "rational", "tower": [
         {"kind": "cube", "value": "2"}]})),
    ("field flag with no prime", lambda tmp: cli.field_from_flag("gfx")),
    ("field flag unknown", lambda tmp: cli.field_from_flag("reals")),
    ("file that is not JSON",
     lambda tmp: cli.load_matrix(matrix_file(tmp, "{"))),
    ("empty block descriptor", lambda tmp: cli.block_from_text(" ", Q)),
    ("block descriptor without a size",
     lambda tmp: cli.block_from_text("A", Q)),
    ("block size past int's digit limit",
     lambda tmp: cli.block_from_text("A" + "1" * 5000, Q)),
    ("equiv over fields no tower joins", equiv_across_fields),
    ("unknown subcommand", lambda tmp: cli_run("nope")),
]


def test_every_parse_error_raise_is_reached(tmp_path, capsys):
    """The raises CASES drives are exactly those in src/."""
    reached = set()
    for case_id, case in CASES:
        with pytest.raises(ParseError) as info:
            case(tmp_path)
        assert raise_site(info.value) not in reached, case_id
        reached.add(raise_site(info.value))
    raises = parse_error_raises()
    assert {site: raises.get(site) for site in reached} == raises


# -- random expressions ---------------------------------------------------------

def _fields():
    q23 = Q.adjoin_sqrt(Q.scalar(2))
    f4 = gf4()
    return {
        "Q": Q,
        "Q(sqrt2,sqrt3)": q23.adjoin_sqrt(q23.scalar(3)),
        "GF(3)": F3,
        "GF(4)+AS": f4.adjoin_artin_schreier(f4.base_element((0, 1))),
        "GF(9)": GF9,
        "GF(65521)": prime_field(65521),
    }


FIELDS = _fields()


def leaf(rng, ctx):
    """(tokens, value) of a number n or n/d, a generator or a power of t."""
    kinds = ["n", "n/d"] + ["g"] * bool(ctx.tower) + ["t"] * (ctx.kind
                                                              == "gfq")
    kind = rng.choice(kinds)
    if kind == "g":
        i = rng.randint(1, len(ctx.tower))
        return ["g%d" % i], ctx.generator(i)
    if kind == "t":
        e = rng.randint(0, 9)
        t = ctx.base_element((0, 1))
        return (["t"], t) if rng.random() < 0.3 else (["t", "^", str(e)],
                                                      t ** e)
    n = rng.randint(0, 40)
    if kind == "n":
        return [str(n)], ctx.scalar(n)
    d = rng.choice([d for d in range(1, 40) if not ctx.scalar(d).is_zero()])
    return [str(n), "/", str(d)], ctx.scalar(n) / ctx.scalar(d)


def expression(rng, ctx, depth):
    """(tokens, value, is_sum) of a random expression tree: a sum is
    parenthesised where a product or a difference would bind it."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        tokens, value = leaf(rng, ctx)
        is_sum = False
    elif r < 0.35:  # a sign opens a parenthesis
        inner, value, inner_sum = expression(rng, ctx, depth - 1)
        if inner_sum:
            inner = ["("] + inner + [")"]
        sign = rng.choice("+-")
        tokens, value = ["(", sign] + inner + [")"], (value if sign == "+"
                                                      else -value)
        is_sum = False
    else:
        op = rng.choice("+-*")
        left, a, left_sum = expression(rng, ctx, depth - 1)
        right, b, right_sum = expression(rng, ctx, depth - 1)
        if op == "*" and left_sum:
            left = ["("] + left + [")"]
        if op != "+" and right_sum:
            right = ["("] + right + [")"]
        tokens = left + [op] + right
        value = a + b if op == "+" else a - b if op == "-" else a * b
        is_sum = op != "*"
    if rng.random() < 0.15:  # a redundant parenthesis
        tokens, is_sum = ["("] * 2 + tokens + [")"] * 2, False
    return tokens, value, is_sum


def render(rng, tokens):
    """The tokens joined by random runs of spaces."""
    return "".join(" " * rng.choice((0, 0, 1, 2)) + tok for tok in tokens) \
        + " " * rng.choice((0, 1))


MUTATIONS = "0123456789/+-*()^gt x²"


def mutated(rng, text):
    """text with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    ch = rng.choice(MUTATIONS)
    return rng.choice((text[:i] + ch + text[i:], text[:i] + text[i + 1:],
                       text[:i] + ch + text[i + 1:]))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_random_expressions_parse_to_their_values(name):
    ctx, rng = FIELDS[name], random.Random("parse " + name)
    for _ in range(200):
        tokens, value, _ = expression(rng, ctx, rng.randint(0, 5))
        text = render(rng, tokens)
        parsed = parse_scalar(text, ctx)
        assert parsed.ctx == ctx and parsed.raw == value.promote(ctx).raw, \
            text
        for _ in range(5):
            changed = mutated(rng, text)
            try:
                parse_scalar(changed, ctx)
            except ParseError:
                pass

"""Command-line surface: canonicalize, decide congruence, read invariants.

Matrix files are JSON: {"field": {...}, "matrix": [[scalar strings]]}.
Field objects: {"kind": "rational"} | {"kind": "gfp", "p": 3}
| {"kind": "gfq", "p": 2, "modulus": [1, 1]} (low-to-high coefficients of
the monic modulus), optionally with "tower": [{"kind": "sqrt"|"as",
"value": "<scalar in the context below>"}, ...].

Exit codes: 0 success, 1 equivalence verdict false, 2 not split,
3 no root under strict policy, 4 input error, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .canon import (Block, canonical_block_matrix, canonicalize, equivalent,
                    invariants, transpose_witness)
from .errors import (ContextMismatch, DimensionMismatch, HypothesisViolation,
                     InvalidDescriptor, MatcanonError, NoRootStrictPolicy,
                     NotSplit, ParseError, TowerCapExceeded,
                     WrongCharacteristic)
from .exactmat import CongruenceWitness, ExactMatrix
from .field import (RECORD_KINDS, adjoin_record, adjunctions, finite_field,
                    format_scalar, parse_scalar, prime_field, rationals)
from .gabriel import _check_square, gabriel_decompose

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_NOT_SPLIT = 2
EXIT_NO_ROOT = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5


# -- field and matrix (de)serialization ---------------------------------------------

_JSON_SHAPES = {dict: "an object", list: "an array", (int, str): "an integer"}


def _json_shape(value, shape, what):
    """value, if JSON gave it the shape it needs (a key of _JSON_SHAPES)."""
    if not isinstance(value, shape):
        raise ParseError("%s %s is not %s" % (what, json.dumps(value),
                                              _JSON_SHAPES[shape]))
    return value


def _json_key(obj, key, what, shape=None):
    """obj[key], of the given shape if one is named; a missing key is a
    ParseError that names it and the object (what) it is missing from."""
    if key not in obj:
        raise ParseError("%s has no key %r" % (what, key))
    return obj[key] if shape is None else _json_shape(obj[key], shape, key)


def _json_int(value, what):
    """An integer read from JSON; a float or a boolean is an input error,
    never rounded (write a fraction as a string such as "3/2")."""
    if isinstance(value, (bool, float)):
        raise ValueError("%s %s is not an integer" % (what, json.dumps(value)))
    return int(_json_shape(value, (int, str), what))


def context_from_json(obj, tower_cap=16):
    kind = _json_shape(obj, dict, "field").get("kind")
    if kind == "rational":
        ctx = rationals(tower_cap)
    elif kind == "gfp":
        ctx = prime_field(_json_int(_json_key(obj, "p", "field"), "p"),
                          tower_cap)
    elif kind == "gfq":
        ctx = finite_field(_json_int(_json_key(obj, "p", "field"), "p"),
                           tuple(_json_int(c, "modulus coefficient") for c in
                                 _json_key(obj, "modulus", "field", list)),
                           tower_cap)
    else:
        raise ParseError("unknown field kind %r" % (kind,))
    names = [kind.json for kind in RECORD_KINDS]
    for rec in _json_shape(obj.get("tower", []), list, "tower"):
        _json_shape(rec, dict, "tower record")
        val = parse_scalar(_json_key(rec, "value", "tower record"), ctx)
        rec_kind = _json_key(rec, "kind", "tower record")
        if rec_kind not in names:
            raise ParseError("unknown adjunction kind %r" % (rec_kind,))
        ctx = adjoin_record(ctx, names.index(rec_kind), val)
    return ctx


def context_to_json(ctx):
    if ctx.kind == "rational":
        obj = {"kind": "rational"}
    elif ctx.kind == "gfp":
        obj = {"kind": "gfp", "p": ctx.p}
    else:
        obj = {"kind": "gfq", "p": ctx.p, "modulus": list(ctx.modulus)}
    tower = [{"kind": RECORD_KINDS[c1].json, "value": format_scalar(d)}
             for c1, d in adjunctions(ctx)]
    if tower:
        obj["tower"] = tower
    return obj


def field_from_flag(text, tower_cap=16):
    text = text.strip().lower()
    if text in ("q", "rational", "rationals"):
        return rationals(tower_cap)
    if text == "gf4":
        return finite_field(2, (1, 1), tower_cap)
    if text.startswith("gf"):
        try:
            return prime_field(int(text[2:]), tower_cap)
        except ValueError as exc:  # not an integer, or not a prime
            raise ParseError(str(exc)) from exc
    raise ParseError("cannot parse field flag %r" % (text,))


def matrix_from_json(obj, tower_cap=16):
    obj = _json_shape(obj, dict, "matrix file")
    ctx = context_from_json(_json_key(obj, "field", "matrix file"), tower_cap)
    rows = _json_key(obj, "matrix", "matrix file", list)
    return ExactMatrix(ctx, [[_json_int(e, "matrix entry")
                              if isinstance(e, (int, float))
                              else parse_scalar(str(e), ctx)
                              for e in _json_shape(row, list, "matrix row")]
                             for row in rows])


def matrix_text(m):
    """The entries of a matrix as rows of scalar strings."""
    return [[format_scalar(e) for e in row] for row in m.rows]


def load_matrix(path, tower_cap=16):
    """The square matrix of a JSON file; every fault of the file (the JSON,
    an integer, a field, a tower record, ragged rows, a shape that is not
    square) is a ParseError."""
    try:
        with open(path) as handle:
            a = matrix_from_json(json.load(handle), tower_cap)
        _check_square(a)
    except (ValueError, DimensionMismatch, HypothesisViolation,
            WrongCharacteristic) as exc:
        raise ParseError(str(exc)) from exc
    return a


def block_from_text(text, ctx):
    text = text.strip()
    if not text:
        raise ParseError("empty block descriptor")
    match = re.fullmatch(r"G(-?\d+)\((.*)\)|([^G\d])(-?\d+)", text)
    if match is None:
        raise ParseError("block descriptor %r is not a family letter and a "
                         "size, with the eigenvalue in parentheses for G "
                         "(e.g. A3 or G4(1/2))" % text)
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        if match[1]:
            return Block("G", int(match[1]), parse_scalar(match[2], ctx))
        return Block(match[3], int(match[4]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def form_to_json(form):
    return {
        "field": context_to_json(form.context),
        "gabriel": list(form.gabriel),
        "blocks": [repr(b) for b in form.blocks],
        "extensions": list(form.extension_report),
    }


def _emit(payload, machine):
    if machine:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    for key, value in payload.items():
        if key in ("witness", "matrix"):
            sys.stdout.write("%s:\n" % key)
            for row in value:
                sys.stdout.write("  [%s]\n" % ", ".join(row))
        else:
            sys.stdout.write("%s: %s\n" % (key, value))


# -- subcommands -----------------------------------------------------------------------

def _cmd_canon(args):
    a = load_matrix(args.matrix, args.tower_cap)
    form, wit = canonicalize(a, args.policy)
    payload = form_to_json(form)
    payload["witness"] = matrix_text(wit.x)
    _emit(payload, args.machine)
    return EXIT_OK


def _cmd_equiv(args):
    a = load_matrix(args.left, args.tower_cap)
    b = load_matrix(args.right, args.tower_cap)
    try:
        a.ctx.common(b.ctx)
    except ContextMismatch as exc:  # two fields that no tower joins
        raise ParseError(str(exc)) from exc
    res = equivalent(a, b, args.policy)
    payload = {"equivalent": res.equivalent,
               "extensions": list(res.extensions),
               "field": context_to_json(res.context)}
    if res.equivalent:
        payload["witness"] = matrix_text(res.witness.x)
        # echo the verified relation
        payload["relation"] = "Y' A Y = B verified exactly"
    else:
        payload["reason"] = _mismatch_reason(a, b, res.records)
    _emit(payload, args.machine)
    return EXIT_OK if res.equivalent else EXIT_FALSE


def _mismatch_reason(a, b, records):
    if records is None:
        return "dimensions differ: %d vs %d" % (a.nrows, b.nrows)
    rec_a, rec_b = records
    if rec_a.gabriel != rec_b.gabriel:
        return "gabriel sizes differ: %s vs %s" % (list(rec_a.gabriel),
                                                   list(rec_b.gabriel))
    for (e1, m1, f1), (e2, m2, f2) in zip(rec_a.unipotent, rec_b.unipotent):
        if m1 != m2:
            return "elementary divisor multiplicities differ at %s" % \
                format_scalar(e1)
        if f1 != f2:
            bad = sorted(m for m in set(f1) | set(f2)
                         if f1.get(m) != f2.get(m))
            return "alternating flag mismatch at m=%s" % bad[0]
    return "invariant records differ"


def _cmd_invariants(args):
    a = load_matrix(args.matrix, args.tower_cap)
    rec = invariants(a, args.policy)
    payload = {
        "gabriel": list(rec.gabriel),
        "unipotent": [{"eigenvalue": format_scalar(e),
                       "multiplicities": {str(k): v for k, v in m.items()},
                       "alternating": {str(k): v for k, v in f.items()}}
                      for e, m, f in rec.unipotent],
        "pairs": [{"eigenvalue": format_scalar(l),
                   "multiplicities": {str(k): v for k, v in m.items()}}
                  for l, m in rec.pairs],
    }
    _emit(payload, args.machine)
    return EXIT_OK


def _cmd_gabriel(args):
    a = load_matrix(args.matrix, args.tower_cap)
    dec = gabriel_decompose(a)
    # the decomposition is a plain congruence; printing it makes it an answer
    wit = CongruenceWitness(*dec.congruence)
    payload = {"jordan_sizes": dec.jordan_sizes,
               "core_dimension": dec.core.nrows,
               "core": matrix_text(dec.core),
               "witness": matrix_text(wit.x)}
    _emit(payload, args.machine)
    return EXIT_OK


def _cmd_transpose(args):
    a = load_matrix(args.matrix, args.tower_cap)
    wit = transpose_witness(a, args.policy)
    payload = {"witness": matrix_text(wit.x),
               "field": context_to_json(wit.x.ctx)}
    _emit(payload, args.machine)
    return EXIT_OK


def _cmd_block(args):
    ctx = field_from_flag(args.field, args.tower_cap)
    desc = block_from_text(args.descriptor, ctx)
    mat = canonical_block_matrix(desc, ctx)
    payload = {"block": repr(desc),
               "matrix": matrix_text(mat)}
    _emit(payload, args.machine)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matcanon",
        description="exact canonical forms of square matrices under "
                    "congruence")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--policy", choices=("strict", "extend"),
                       default="extend")
        p.add_argument("--tower-cap", type=int, default=16)
        p.add_argument("--machine", action="store_true",
                       help="machine-readable JSON output")

    p = sub.add_parser("canon", help="canonical form of one matrix")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("equiv", help="decide congruence of two matrices")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("invariants", help="complete invariant record")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("gabriel", help="0-Jordan blocks plus invertible core")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_gabriel)

    p = sub.add_parser("transpose", help="witness Y with Y'AY = A'")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_transpose)

    p = sub.add_parser("block", help="emit one canonical block matrix")
    p.add_argument("descriptor", help="e.g. A3 or G4(1/2)")
    p.add_argument("--field", default="q")
    common(p)
    p.set_defaults(func=_cmd_block)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotSplit as exc:
        sys.stderr.write("not split: %s\n" % exc)
        return EXIT_NOT_SPLIT
    except NoRootStrictPolicy as exc:
        sys.stderr.write("no root under strict policy: %s\n" % exc)
        return EXIT_NO_ROOT
    except (ParseError, OSError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    # the tower cap and a block descriptor are the caller's choices
    except (TowerCapExceeded, InvalidDescriptor) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT
    # input is read with ParseError for every fault of its own (a zero
    # denominator, a shape, fields that share no tower), so any other
    # error comes from a stage
    except MatcanonError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return EXIT_INTERNAL
    except Exception as exc:  # a defect, never a verdict (exit 1)
        sys.stderr.write("internal error: %s: %s\n"
                         % (type(exc).__name__, exc))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

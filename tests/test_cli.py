import json
import subprocess
import sys
from fractions import Fraction

import pytest

from matcanon.cli import (block_from_text, context_from_json, context_to_json,
                          matrix_from_json, matrix_text)
from matcanon import (ExactMatrix, canonicalize, inverse_or_rank, prime_field,
                      rationals)
from matcanon.unipotent import gamma_matrix


def run_cli(args, tmp_path=None):
    proc = subprocess.run([sys.executable, "-m", "matcanon"] + args,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_matrix(tmp_path, name, field, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"field": field, "matrix": rows}))
    return str(path)


def test_canon_gamma3(tmp_path):
    p = write_matrix(tmp_path, "g3.json", {"kind": "rational"},
                     [["0", "0", "1"], ["0", "-1", "-1"], ["1", "1", "0"]])
    code, out, err = run_cli(["canon", p, "--machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == ["A3"]
    assert payload["gabriel"] == []


def test_machine_output_round_trips(tmp_path):
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"},
                     [["0", "2"], ["1", "0"]])
    code, out, _ = run_cli(["canon", p, "--machine"])
    payload = json.loads(out)
    ctx = context_from_json(payload["field"])
    blocks = [block_from_text(text, ctx) for text in payload["blocks"]]
    q = rationals()
    direct, _w = canonicalize(ExactMatrix(q, [[0, 2], [1, 0]]))
    assert payload["gabriel"] == list(direct.gabriel)
    assert blocks == direct.blocks
    assert [repr(b) for b in blocks] == payload["blocks"]
    assert context_to_json(ctx) == payload["field"]


def test_deterministic_output(tmp_path):
    p = write_matrix(tmp_path, "a.json", {"kind": "gfp", "p": 3},
                     [["1", "2"], ["0", "1"]])
    _, out1, _ = run_cli(["canon", p, "--machine"])
    _, out2, _ = run_cli(["canon", p, "--machine"])
    assert out1 == out2


def test_equiv_exit_codes(tmp_path):
    f2 = {"kind": "gfp", "p": 2}
    ident = write_matrix(tmp_path, "i.json", f2, [["1", "0"], ["0", "1"]])
    anti = write_matrix(tmp_path, "e.json", f2, [["0", "1"], ["1", "0"]])
    code, out, _ = run_cli(["equiv", ident, anti, "--machine",
                            "--policy", "strict"])
    assert code == 1
    payload = json.loads(out)
    assert payload["equivalent"] is False
    assert "alternating flag mismatch at m=1" in payload["reason"]

    code, out, _ = run_cli(["equiv", ident, ident, "--machine"])
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def not_split_matrix():
    # ((0, B'), (I, 0)) with B the companion matrix of X^3 - X - 1: the
    # asymmetry eigenvalues are the cubic's roots and their inverses, which
    # quadratic adjunctions cannot reach
    q = rationals()
    b = ExactMatrix(q, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    bt = b.transpose()
    z = ExactMatrix.zeros(q, 3, 3)
    i = ExactMatrix.identity(q, 3)
    rows = [list(zr) + list(br) for zr, br in zip(z.rows, bt.rows)]
    rows += [list(ir) + list(zr) for ir, zr in zip(i.rows, z.rows)]
    return ExactMatrix(q, rows)


def test_not_split_exit_code(tmp_path):
    a = not_split_matrix()
    from matcanon import NotSplit
    import pytest as _pytest
    with _pytest.raises(NotSplit):
        canonicalize(a)
    rows = [[str(e.coords[0]) for e in row] for row in a.rows]
    p = write_matrix(tmp_path, "ns.json", {"kind": "rational"}, rows)
    code, _out, err = run_cli(["canon", p])
    assert code == 2


def test_strict_no_root_exit_code(tmp_path):
    f3 = {"kind": "gfp", "p": 3}
    p = write_matrix(tmp_path, "two.json", f3, [["2"]])
    code, _out, err = run_cli(["canon", p, "--policy", "strict"])
    assert code == 3
    code, out, _ = run_cli(["canon", p, "--policy", "extend", "--machine"])
    assert code == 0
    assert json.loads(out)["blocks"] == ["A1"]


def test_strict_refusal_under_a_tower_cap(tmp_path, capsys):
    # strict refuses a split that needs any record, so a tower cap that
    # stops the split's adjunction gives that refusal (exit 2), as the
    # uncapped run does, not an input error (exit 4).  A reduction's record
    # can cancel in the answer: a canonical A3 over GF(3) is answered under
    # strict though its reduction adjoins sqrt 2, so a cap that stops a
    # reduction is still the input error
    from matcanon import cli
    split = write_matrix(tmp_path, "u.json", {"kind": "rational"},
                         [["1", "1"], ["0", "1"]])
    a3 = write_matrix(tmp_path, "a3.json", {"kind": "gfp", "p": 3},
                      [["0", "0", "1"], ["0", "2", "2"], ["1", "1", "0"]])
    refusal = ("not split: quadratic factor has non-square discriminant "
               "under strict policy\n")
    for cap in ([], ["--tower-cap", "0"], ["--tower-cap", "1"]):
        assert cli.main(["canon", split, "--policy", "strict", *cap]) == 2
        assert capsys.readouterr().err == refusal
    assert cli.main(["canon", a3, "--policy", "strict"]) == 0
    capsys.readouterr()
    assert cli.main(["canon", a3, "--policy", "strict",
                     "--tower-cap", "0"]) == 4
    assert capsys.readouterr().err == "input error: tower height cap 0 " \
                                      "reached\n"


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _out, err = run_cli(["canon", str(bad)])
    assert code == 4
    code, _out, _err = run_cli(["canon", str(tmp_path / "missing.json")])
    assert code == 4


def test_non_integer_json_number_exit_code(tmp_path):
    # 1.5 used to be truncated to 1 and true read as 1, both with exit 0
    q = {"kind": "rational"}
    for bad in (1.5, True):
        obj = {"field": q, "matrix": [[bad, 0], [0, 1]]}
        with pytest.raises(ValueError):
            matrix_from_json(obj)
        p = write_matrix(tmp_path, "bad.json", q, obj["matrix"])
        code, _out, err = run_cli(["canon", p])
        assert code == 4
        assert "not an integer" in err
    for field in ({"kind": "gfp", "p": 3.5},
                  {"kind": "gfq", "p": 2, "modulus": [1.0, 1]}):
        with pytest.raises(ValueError):
            matrix_from_json({"field": field, "matrix": [["1"]]})
    # integers and scalar strings still parse
    a = matrix_from_json({"field": q, "matrix": [[2, "1/2"], [0, -1]]})
    assert a == ExactMatrix(rationals(), [[2, Fraction(1, 2)], [0, -1]])


def test_only_the_promise_subcommands():
    # oracle and fuzz are test aids, not commands: a usage error, exit 4
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "{canon,equiv,invariants,gabriel,transpose,block}" in out
    for command in ("oracle", "fuzz"):
        code, out, err = run_cli([command])
        assert code == 4, command
        assert out == "" and err.startswith("usage: matcanon"), command
        assert "invalid choice: '%s'" % command in err, command


def _scrambled_sum(ctx, parts):
    """Y' (direct sum of parts) Y for a fixed unitriangular Y."""
    a = ExactMatrix.block_diag(ctx, parts)
    n = a.nrows
    y = ExactMatrix(ctx, [[1 if i == j else (i + 2 * j) % 3 if i < j else 0
                           for j in range(n)] for i in range(n)])
    return y.transpose() @ a @ y


@pytest.mark.parametrize("name, jordan, core", [
    ("core", [3, 1], [[0, 1], [2, 0]]),
    ("no-core", [3, 2, 1], []),
])
def test_gabriel_cli_witness(tmp_path, name, jordan, core):
    q = rationals()
    core = ExactMatrix(q, core)
    a = _scrambled_sum(q, [ExactMatrix.jordan_block(q, s) for s in jordan]
                       + [core])
    field = context_to_json(q)
    p = write_matrix(tmp_path, name + ".json", field, matrix_text(a))
    code, out, err = run_cli(["gabriel", p, "--machine"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["jordan_sizes"] == jordan
    assert payload["core_dimension"] == core.nrows
    x = matrix_from_json({"field": field, "matrix": payload["witness"]})
    got = matrix_from_json({"field": field, "matrix": payload["core"]})
    target = ExactMatrix.block_diag(
        q, [ExactMatrix.jordan_block(q, s) for s in jordan] + [got])
    assert inverse_or_rank(x, rank_only=True).rank == a.nrows
    assert x.transpose() @ a @ x == target


def test_block_cli():
    code, out, _ = run_cli(["block", "A3", "--field", "q", "--machine"])
    assert code == 0
    payload = json.loads(out)
    q = rationals()
    expect = gamma_matrix(q, 3)
    got = matrix_from_json({"field": {"kind": "rational"},
                            "matrix": payload["matrix"]})
    assert got == expect


def test_block_cli_rejects_sizes_below_one():
    # these used to print an empty matrix and exit 0
    for args in (["A-3", "--field", "q"], ["C0", "--field", "q"],
                 ["D0", "--field", "q"], ["G0(2)", "--field", "q"],
                 ["B-1", "--field", "gf2"]):
        code, out, err = run_cli(["block"] + args)
        assert code == 4, args
        assert out == "" and "needs n >= 1" in err, args


def test_matrix_json_round_trip():
    f2 = prime_field(2)
    a = ExactMatrix(f2, [[0, 1], [1, 1]])
    back = matrix_from_json({"field": context_to_json(a.ctx),
                             "matrix": matrix_text(a)})
    assert back == a


def test_non_square_input_exit_code(tmp_path):
    p = write_matrix(tmp_path, "rect.json", {"kind": "rational"},
                     [["1", "2", "3"], ["4", "5", "6"]])
    code, _out, err = run_cli(["canon", str(p)])
    assert code == 4


def test_non_square_input_is_an_input_error_for_canon_and_gabriel(tmp_path):
    p = write_matrix(tmp_path, "rect.json", {"kind": "rational"},
                     [["1", "2", "3"], ["4", "5", "6"]])
    for command in ("canon", "gabriel"):
        code, _out, err = run_cli([command, p])
        assert code == 4, (command, err)
        assert "needs a square matrix, not 2 x 3" in err


def test_non_square_input_is_an_input_error_for_equiv_and_transpose(tmp_path):
    """A 2 x 3 matrix is refused as input (exit 4): equiv against a 3 x 3
    matrix gives no false verdict, and transpose no internal error."""
    rect = write_matrix(tmp_path, "rect.json", {"kind": "rational"},
                        [["1", "2", "3"], ["4", "5", "6"]])
    square = write_matrix(tmp_path, "square.json", {"kind": "rational"},
                          [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    for args in (["equiv", rect, square], ["equiv", square, rect],
                 ["transpose", rect]):
        code, out, err = run_cli(args)
        assert code == 4, (args, out, err)
        assert "needs a square matrix, not 2 x 3" in err, args


def test_equiv_of_incompatible_fields_is_an_input_error(tmp_path):
    """Q against GF(3) exits 4 whatever the sizes: a 3 x 3 partner gives no
    false verdict ("dimensions differ")."""
    q = write_matrix(tmp_path, "q.json", {"kind": "rational"},
                     [["1", "0"], ["0", "1"]])
    for n in (2, 3):
        f3 = write_matrix(tmp_path, "f3.json", {"kind": "gfp", "p": 3},
                          [["1" if i == j else "0" for j in range(n)]
                           for i in range(n)])
        code, out, err = run_cli(["equiv", q, f3])
        assert code == 4, (n, out, err)
        assert "prefix-compatible" in err


def test_huge_split_quadratic_over_q(tmp_path):
    # the asymmetry's minimal polynomial (X - n)(X - 1/n) is solved by one
    # integer square root of its discriminant, not by trial division of n
    q = rationals()
    n = 10 ** 18 + 1
    a = ExactMatrix(q, [[0, 1], [n, 0]])
    form, wit = canonicalize(a)
    assert wit.x.transpose() @ a @ wit.x == wit.target
    assert form.context == q
    p = write_matrix(tmp_path, "huge.json", {"kind": "rational"},
                     [["0", "1"], [str(n), "0"]])
    code, out, err = run_cli(["canon", p, "--machine"])
    assert code == 0, err
    assert json.loads(out)["blocks"] == ["G2(1/%d)" % n]


def test_machine_round_trip_with_tower(tmp_path):
    # the characteristic-2 pair needing an Artin-Schreier extension: the
    # reported field carries a tower and must round-trip
    f2 = {"kind": "gfp", "p": 2}
    p = write_matrix(tmp_path, "c11.json", f2,
                     [["1", "0", "1", "1"], ["0", "0", "0", "1"],
                      ["1", "0", "0", "0"], ["0", "1", "0", "1"]])
    code, out, _ = run_cli(["canon", p, "--machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["extensions"]
    ctx = context_from_json(payload["field"])
    blocks = [block_from_text(text, ctx) for text in payload["blocks"]]
    assert [repr(b) for b in blocks] == payload["blocks"]
    assert ctx.tower  # reconstructed adjunction
    assert context_to_json(ctx) == payload["field"]


def test_zero_denominator_in_a_matrix_entry_exit_code(tmp_path):
    # "1/0" used to escape as a ZeroDivisionError traceback with exit 1,
    # the code of a false verdict, so a script read it as "not congruent"
    q = {"kind": "rational"}
    bad = write_matrix(tmp_path, "bad.json", q, [["1/0", "0"], ["0", "1"]])
    good = write_matrix(tmp_path, "good.json", q, [["1", "0"], ["0", "1"]])
    for args in (["canon", bad], ["equiv", good, bad]):
        code, out, err = run_cli(args)
        assert code == 4, args
        assert out == "" and "zero denominator" in err, args


def test_a_denominator_that_is_zero_in_the_field_exit_code(tmp_path):
    # "1/3" over GF(3) passed the parser and exited 5 on the division, as
    # an internal error
    gf3, gf5 = {"kind": "gfp", "p": 3}, {"kind": "gfp", "p": 5}
    entry = write_matrix(tmp_path, "entry.json", gf3, [["1/3", "0"],
                                                       ["0", "1"]])
    good = write_matrix(tmp_path, "good.json", gf5, [["1", "0"], ["0", "1"]])
    bad = write_matrix(tmp_path, "bad.json", gf5, [["2/10", "0"], ["0", "1"]])
    tower = write_matrix(tmp_path, "tower.json",
                         dict(gf3, tower=[{"kind": "sqrt", "value": "2/3"}]),
                         [["1", "g1"], ["0", "1"]])
    for args, text, field in (
            (["canon", entry], "'1/3'", "GF(3)"),
            (["equiv", good, bad], "'2/10'", "GF(5)"),
            (["canon", tower], "'2/3'", "GF(3)"),
            (["block", "G2(1/3)", "--field", "gf3"], "'1/3'", "GF(3)")):
        code, out, err = run_cli(args)
        assert code == 4, args
        assert out == "" and "zero denominator" in err, args
        assert text in err and field in err, args


def test_zero_denominator_in_a_tower_value_exit_code(tmp_path):
    for field in ({"kind": "rational",
                   "tower": [{"kind": "sqrt", "value": "2/0"}]},
                  {"kind": "gfp", "p": 3,
                   "tower": [{"kind": "sqrt", "value": "1/0"}]}):
        p = write_matrix(tmp_path, "tower.json", field, [["1", "g1"],
                                                         ["0", "1"]])
        code, out, err = run_cli(["canon", p])
        assert code == 4, field
        assert out == "" and "zero denominator" in err, field


def test_block_descriptor_input_errors():
    # "G4(1/0)" used to exit 1 with a ZeroDivisionError and "" with an
    # IndexError; "G2" and "A" printed Python's "substring not found" and
    # "invalid literal for int()"
    shape = "e.g. A3 or G4(1/2)"
    for descriptor, message in (("G4(1/0)", "zero denominator"),
                                ("", "empty block descriptor"),
                                ("G2", "'G2' is not a family letter"),
                                ("A", "'A' is not a family letter"),
                                ("G2", shape), ("A", shape)):
        code, out, err = run_cli(["block", descriptor, "--field", "q"])
        assert code == 4, descriptor
        assert out == "" and message in err, descriptor


def test_a_space_inside_a_number_exit_code(tmp_path, capsys):
    # "1 2" used to read as 12, so canon printed sqrt(12) and exited 0; a
    # tower value, a generator name and a G block's eigenvalue read alike
    from matcanon import cli
    q = {"kind": "rational"}
    root2 = {"kind": "rational", "tower": [{"kind": "sqrt", "value": "2"}]}
    root17 = {"kind": "rational", "tower": [{"kind": "sqrt", "value": "1 7"}]}
    spaced = (write_matrix(tmp_path, "a.json", q, [["1 2", "0"], ["0", "1"]]),
              write_matrix(tmp_path, "t.json", root17, [["1"]]),
              write_matrix(tmp_path, "g.json", root2, [["g 1"]]))
    for argv in (*(["canon", path] for path in spaced),
                 ["block", "G2(1 2)", "--field", "q"]):
        assert cli.main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "space inside a number" in \
            captured.err, argv
    # spaces around operators and parentheses stay allowed
    p = write_matrix(tmp_path, "ops.json", root2,
                     [[" 1 + g1 ", "0"], ["0", "( 3 ) * 2 / 5"]])
    assert cli.main(["canon", p]) == 0


def test_reducible_gfq_modulus_exit_code(tmp_path):
    # t^2+1 over GF(2) used to end in "minimal polynomial search ran away"
    f = {"kind": "gfq", "p": 2, "modulus": [1, 0]}
    p = write_matrix(tmp_path, "red.json", f, [["1", "t"], ["0", "1"]])
    code, _out, err = run_cli(["canon", p])
    assert code == 4
    assert "reducible" in err


def test_tower_adjunction_with_root_exit_code(tmp_path):
    # sqrt(4) over Q, or a root of x^2+x over GF(2), is already in the field:
    # adjoining it would give zero divisors and "certified" answers
    for field in ({"kind": "rational",
                   "tower": [{"kind": "sqrt", "value": "4"}]},
                  {"kind": "gfp", "p": 2,
                   "tower": [{"kind": "as", "value": "0"}]}):
        p = write_matrix(tmp_path, "tower.json", field, [["1", "g1"],
                                                         ["0", "1"]])
        code, _out, err = run_cli(["canon", p])
        assert code == 4
        assert "does not give a field" in err


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    # an internal failure is not an input error: exit 5, not 4
    from matcanon import canon, cli
    from matcanon.errors import InternalDegenerate

    def broken(*_args, **_kwargs):
        raise InternalDegenerate("lam pairing is degenerate")

    monkeypatch.setattr(cli, "canonicalize", broken)
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"}, [["1"]])
    assert cli.main(["canon", p]) == 5
    assert "internal error" in capsys.readouterr().err

    # nor is an exception no stage should raise a false verdict (exit 1):
    # it used to escape main
    def index_error(*_args, **_kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(canon, "eigen_split", index_error)
    assert cli.main(["equiv", p, p]) == 5
    assert "internal error: IndexError" in capsys.readouterr().err


GOOD_FIELD = {"kind": "rational"}
MALFORMED_JSON = {
    "top-level list": [GOOD_FIELD, [["1"]]],
    "top-level string": "1",
    "field not an object": {"field": "rational", "matrix": [["1"]]},
    "matrix a number": {"field": GOOD_FIELD, "matrix": 5},
    "matrix rows numbers": {"field": GOOD_FIELD, "matrix": [1, 2]},
    "tower a number": {"field": {"kind": "rational", "tower": 5},
                       "matrix": [["1"]]},
    "tower record a number": {"field": {"kind": "rational", "tower": [5]},
                              "matrix": [["1"]]},
    "modulus a number": {"field": {"kind": "gfq", "p": 2, "modulus": 5},
                         "matrix": [["1"]]},
    "p a list": {"field": {"kind": "gfp", "p": [3]}, "matrix": [["1"]]},
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_JSON))
def test_malformed_json_exit_code(tmp_path, capsys, shape):
    # each used to escape as a TypeError or AttributeError with exit 1, so
    # that equiv A.json B.json read as "not congruent"
    from matcanon import cli
    from matcanon.errors import ParseError
    obj = MALFORMED_JSON[shape]
    with pytest.raises(ParseError):
        matrix_from_json(obj)
    good = write_matrix(tmp_path, "a.json", GOOD_FIELD, [["1"]])
    bad = tmp_path / "b.json"
    bad.write_text(json.dumps(obj))
    for argv in (["canon", str(bad)], ["equiv", good, str(bad)]):
        assert cli.main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "input error" in captured.err


MISSING_KEYS = {
    "p of a gfp field": ({"field": {"kind": "gfp"}, "matrix": [["1"]]},
                         "field has no key 'p'"),
    "modulus of a gfq field": ({"field": {"kind": "gfq", "p": 2},
                                "matrix": [["1"]]},
                               "field has no key 'modulus'"),
    "value of a tower record": ({"field": {"kind": "rational",
                                           "tower": [{"kind": "sqrt"}]},
                                 "matrix": [["1"]]},
                                "tower record has no key 'value'"),
    "kind of a tower record": ({"field": {"kind": "rational",
                                          "tower": [{"value": "2"}]},
                                "matrix": [["1"]]},
                               "tower record has no key 'kind'"),
    "field": ({"matrix": [["1"]]}, "matrix file has no key 'field'"),
    "matrix": ({"field": GOOD_FIELD}, "matrix file has no key 'matrix'"),
}


@pytest.mark.parametrize("missing", sorted(MISSING_KEYS))
def test_missing_json_key_names_the_key(tmp_path, capsys, missing):
    # a missing key used to escape as a bare KeyError: "input error: 'p'"
    from matcanon import cli
    from matcanon.errors import ParseError
    obj, message = MISSING_KEYS[missing]
    with pytest.raises(ParseError, match="^%s$" % message):
        matrix_from_json(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert cli.main(["canon", str(bad)]) == 4
    assert capsys.readouterr().err == "input error: %s\n" % message


def test_stage_key_error_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # input is read with ParseError for a missing key, so a KeyError comes
    # from a stage: exit 5, not the input-error exit 4
    from matcanon import canon, cli

    def key_error(*_args, **_kwargs):
        raise KeyError("lam")

    monkeypatch.setattr(canon, "eigen_split", key_error)
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"}, [["1"]])
    assert cli.main(["canon", p]) == 5
    assert "internal error: KeyError" in capsys.readouterr().err


@pytest.mark.parametrize("error", ["ContextMismatch", "DimensionMismatch",
                                   "SingularInput", "WrongCharacteristic",
                                   "HypothesisViolation"])
def test_stage_matcanon_error_is_an_internal_error(tmp_path, monkeypatch,
                                                   capsys, error):
    # input is read with ParseError for every fault of its own, so any
    # other package error comes from a stage: exit 5, not the input-error
    # exit 4 it used to give
    from matcanon import canon, cli, errors

    def stage_error(*_args, **_kwargs):
        raise getattr(errors, error)("contexts are not prefix-compatible")

    monkeypatch.setattr(canon, "eigen_split", stage_error)
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"}, [["1"]])
    assert cli.main(["canon", p]) == 5
    assert capsys.readouterr().err == \
        "internal error: contexts are not prefix-compatible\n"


def test_input_faults_are_input_errors(tmp_path, capsys):
    # ragged rows and an Artin-Schreier record outside characteristic 2
    # are faults of the file, read as input errors with their own messages
    from matcanon import cli
    ragged = write_matrix(tmp_path, "ragged.json", {"kind": "rational"},
                          [["1", "2"], ["3"]])
    as_over_q = write_matrix(tmp_path, "as.json", {
        "kind": "rational", "tower": [{"kind": "as", "value": "1"}]},
        [["1"]])
    for argv, message in ((["canon", ragged], "ragged rows"),
                          (["equiv", ragged, ragged], "ragged rows"),
                          (["canon", as_over_q],
                           "Artin-Schreier adjunction requires "
                           "characteristic 2")):
        assert cli.main(argv) == 4, argv
        assert capsys.readouterr().err == "input error: %s\n" % message


def test_tower_cap_and_descriptor_faults_are_input_errors(tmp_path, capsys):
    # exit 4 printed "error: ..." for these and "input error: ..." for
    # every other input fault
    from matcanon import cli
    needs_sqrt2 = write_matrix(tmp_path, "a.json", {"kind": "rational"},
                               [["2"]])
    for argv, message in ((["block", "C0", "--field", "q"],
                           "C_n needs n >= 1"),
                          (["canon", needs_sqrt2, "--tower-cap", "0"],
                           "tower height cap 0 reached")):
        assert cli.main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("input error: " + message), argv


def test_usage_errors_are_input_errors(tmp_path, capsys):
    # argparse exits 2, NotSplit's code: a usage error exits 4 instead, with
    # the usage text and "input error: ..." on stderr.  A negative tower cap
    # is one, not a cap reached
    from matcanon import cli
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"}, [["1"]])
    for argv, message in (
            (["canon"], "the following arguments are required: matrix"),
            (["equiv", p], "the following arguments are required: right"),
            (["canon", p, "--tower-cap", "x"],
             "argument --tower-cap: tower cap 'x' is not an integer >= 0"),
            (["canon", p, "--tower-cap", "-1"],
             "argument --tower-cap: tower cap '-1' is not an integer >= 0"),
            (["block", "A1", "--tower-cap", "1.5"],
             "argument --tower-cap: tower cap '1.5' is not an integer >= 0"),
            (["canon", p, "--policy", "lax"],
             "argument --policy: invalid choice: 'lax'")):
        assert cli.main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        usage = "usage: matcanon %s " % argv[0]
        assert captured.err.startswith(usage), argv
        assert "\ninput error: %s" % message in captured.err, argv
    assert cli.main(["canon", p, "--tower-cap", "0", "--machine"]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == ["A1"]


def test_the_parser_is_built_once_per_process(tmp_path, capsys):
    # argparse's parser costs about as much to build as a small answer, so
    # main builds it on its first call only, and importing cli builds none
    from matcanon import cli
    cli.build_parser.cache_clear()
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"}, [["1"]])
    for argv in (["canon", p], ["invariants", p], ["canon"]):
        cli.main(argv)
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1


def test_stage_value_error_is_an_internal_error(tmp_path, monkeypatch,
                                                capsys):
    # input is read with ParseError for a bad integer, field or file, so a
    # ValueError comes from a stage: exit 5, not the input-error exit 4
    from matcanon import canon, cli

    def value_error(*_args, **_kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(canon, "eigen_split", value_error)
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"}, [["1"]])
    assert cli.main(["canon", p]) == 5
    assert capsys.readouterr().err == \
        "internal error: ValueError: math domain error\n"


def test_input_value_errors_stay_input_errors(tmp_path, capsys):
    # an integer that does not parse, a non-prime p and bytes that are not
    # UTF-8 exit 4 with Python's own message, now carried by a ParseError
    from matcanon import cli
    not_int = "invalid literal for int() with base 10: 'x'"
    cases = [
        (["canon", write_matrix(tmp_path, "px.json",
                                {"kind": "gfp", "p": "x"}, [["1"]])],
         not_int),
        (["canon", write_matrix(tmp_path, "p4.json",
                                {"kind": "gfp", "p": 4}, [["1"]])],
         "characteristic must be prime, got 4"),
        (["block", "A1", "--field", "gfx"], not_int),
        (["block", "A1", "--field", "gf1"],
         "characteristic must be prime, got 1"),
    ]
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    cases.append((["canon", str(binary)], "'utf-8' codec can't decode byte "
                  "0xff in position 0: invalid start byte"))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # a longer integer is a ValueError from int()
        digits = "1" * (limit + 1)
        cases += [(["block", "G2(%s)" % digits], "Exceeds the limit"),
                  (["block", "A" + digits], "Exceeds the limit")]
    for argv, message in cases:
        assert cli.main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("input error: " + message), argv


def test_corrupt_stage_exit_code(tmp_path, monkeypatch, capsys):
    # a wrong stage fails the one certification of the answer; that is a
    # defect in matcanon, not an input error: exit 5
    from matcanon import canon, cli

    original = canon.eigen_split

    def corrupt(*args, **kwargs):
        # each class's basis doubled, its Gram matrix kept (a class that
        # fills the core has basis I, which canon does not multiply by)
        return [cl._replace(basis=cl.basis.scale(cl.basis.ctx.scalar(2)))
                for cl in original(*args, **kwargs)]

    monkeypatch.setattr(canon, "eigen_split", corrupt)
    # a class at 1 and a class at -1
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"},
                     [["1", "0", "0"], ["0", "1", "2"], ["0", "0", "1"]])
    assert cli.main(["canon", p]) == 5
    err = capsys.readouterr().err
    assert "internal error" in err and "X'AX = B failed" in err

    # a degenerate piece makes its reduction divide by zero before any
    # certificate; a zero denominator in the input is a ParseError, so this
    # is a defect too
    peel = canon.peel_all

    def degenerate(*args):
        return [p._replace(gram=p.gram.scale(p.gram.ctx.zero()))
                for p in peel(*args)]

    monkeypatch.setattr(canon, "peel_all", degenerate)
    p = write_matrix(tmp_path, "b3.json", {"kind": "gfp", "p": 2},
                     [["0", "0", "1"], ["0", "1", "1"], ["1", "0", "0"]])
    assert cli.main(["canon", p]) == 5
    assert "internal error: scalar division by zero" in \
        capsys.readouterr().err


def test_equiv_false_verdict_reuses_records(tmp_path, monkeypatch, capsys):
    # the reason is read off the records equivalent computed, with no
    # second canonicalization of either input
    from matcanon import cli

    def rerun(*_args, **_kwargs):
        pytest.fail("equiv re-canonicalized an input")

    monkeypatch.setattr(cli, "invariants", rerun)
    monkeypatch.setattr(cli, "canonicalize", rerun)
    f2 = {"kind": "gfp", "p": 2}
    ident = write_matrix(tmp_path, "i.json", f2, [["1", "0"], ["0", "1"]])
    anti = write_matrix(tmp_path, "e.json", f2, [["0", "1"], ["1", "0"]])
    assert cli.main(["equiv", ident, anti, "--machine"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"] == "alternating flag mismatch at m=1"


def test_equiv_reason_when_dimensions_differ(tmp_path, capsys):
    from matcanon import cli
    q = {"kind": "rational"}
    a = write_matrix(tmp_path, "a.json", q, [["1"]])
    b = write_matrix(tmp_path, "b.json", q, [["1", "0"], ["0", "1"]])
    assert cli.main(["equiv", a, b, "--machine"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is False
    assert payload["reason"] == "dimensions differ: 1 vs 2"

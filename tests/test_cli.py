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
    # oracle and fuzz are test aids, not commands: argparse's usage error
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "{canon,equiv,invariants,gabriel,transpose,block}" in out
    for command in ("oracle", "fuzz"):
        code, out, err = run_cli([command])
        assert code == 2, command
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
    # IndexError
    for descriptor, message in (("G4(1/0)", "zero denominator"),
                                ("", "empty block descriptor")):
        code, out, err = run_cli(["block", descriptor, "--field", "q"])
        assert code == 4, descriptor
        assert out == "" and message in err, descriptor


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
    from matcanon import cli
    from matcanon.errors import InternalDegenerate

    def broken(*_args, **_kwargs):
        raise InternalDegenerate("eigen classes failed to be orthogonal")

    monkeypatch.setattr(cli, "canonicalize", broken)
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"}, [["1"]])
    assert cli.main(["canon", p]) == 5
    assert "internal error" in capsys.readouterr().err


def test_corrupt_stage_exit_code(tmp_path, monkeypatch, capsys):
    # a wrong stage fails the one certification of the answer; that is a
    # defect in matcanon, not an input error: exit 5
    from matcanon import canon, cli

    original = canon.eigen_split

    def corrupt(*args, **kwargs):
        res = original(*args, **kwargs)
        return res._replace(x=res.x.scale(res.x.ctx.scalar(2)))

    monkeypatch.setattr(canon, "eigen_split", corrupt)
    p = write_matrix(tmp_path, "a.json", {"kind": "rational"},
                     [["1", "2"], ["0", "1"]])
    assert cli.main(["canon", p]) == 5
    err = capsys.readouterr().err
    assert "internal error" in err and "X'AX = B failed" in err


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

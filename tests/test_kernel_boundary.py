"""Raw matrix rows stay in the kernel layer.

An ExactMatrix holds its entries' raw values (ExactMatrix.raw), and only
exactmat.py computes on them; cli.py, which prints matrices, reads entries
out as Scalars through ExactMatrix.rows.  Every other module of
src/matcanon reads a matrix through its methods (A[i, j], columns,
submatrix, blocks, ...): it reads no `.rows` attribute but an object's own
(`self.rows`), and no matrix's `.raw`.  `.rows` is found in the source.  A
matrix's `.raw` cannot be told from a Scalar's there, so a probe on the
slot records the module of every read while the entry points run over
each kind of raw value, singular inputs and extensions included.

The eliminations return matrices: inverse_or_rank and solve build their
kernel bases, transforms and solutions from raw values, and no Scalar.
"""

import ast
import pathlib
import sys

import pytest

import matcanon
from matcanon import (ExactMatrix, Scalar, canonicalize, equivalent, gf4,
                      inverse_or_rank, prime_field, rationals, solve,
                      transpose_witness)
from matcanon.field import artin_schreier_root_or_adjoin
from matcanon.unipotent import gamma_matrix

import sweep

SRC = pathlib.Path(matcanon.__file__).resolve().parent
KERNEL_LAYER = {"exactmat.py", "cli.py"}


def rows_readers(sources):
    """(module, line) of each `.rows` read, other than `self.rows`, in the
    given {module: source text} outside the kernel layer."""
    found = []
    for name, text in sorted(sources.items()):
        if name in KERNEL_LAYER:
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr == "rows" and \
                    not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
                found.append((name, node.lineno))
    return found


def test_no_stage_reads_rows():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert not rows_readers(sources)


def test_rows_rule_flags_a_stage_that_unpacks_a_matrix():
    sources = {
        "gabriel.py": "def stack(a, b):\n"
                      "    return list(a.rows) + list(b.rows)\n",
        "field.py": "class Table:\n"
                    "    def row(self, s):\n"
                    "        return self.rows[s]\n",
        "exactmat.py": "def rows(m):\n"
                       "    return m.rows\n",
    }
    assert rows_readers(sources) == [("gabriel.py", 2), ("gabriel.py", 2)]


@pytest.fixture
def raw_readers(monkeypatch):
    """The set of src/matcanon modules that read ExactMatrix.raw while the
    fixture is in use."""
    slot = ExactMatrix.raw
    readers = set()

    def read(m):
        path = pathlib.Path(sys._getframe(1).f_code.co_filename).resolve()
        if path.parent == SRC:
            readers.add(path.name)
        return slot.__get__(m, ExactMatrix)

    monkeypatch.setattr(ExactMatrix, "raw", property(read, slot.__set__))
    return readers


def _singular_inputs():
    """Block sums with 0-Jordan blocks, scrambled, so that every Gabriel
    step runs, over Q, GF(3) and GF(4)."""
    for ctx in (rationals(), prime_field(3), gf4()):
        parts = [ExactMatrix.jordan_block(ctx, 3), ExactMatrix.jordan_block(
            ctx, 2), ExactMatrix.identity(ctx, 1)]
        if ctx.characteristic != 2:
            parts.append(gamma_matrix(ctx, 2))
        a = ExactMatrix.block_diag(ctx, parts)
        y = ExactMatrix.jordan_block(ctx, a.nrows, 1).transpose()
        yield y.transpose() @ a @ y


def test_only_the_kernel_reads_raw_rows(raw_readers):
    cases = [sweep.case(1, i)[1] for i in range(28)]
    for a in cases + list(_singular_inputs()):
        for call in (canonicalize, transpose_witness):
            try:
                call(a)
            except matcanon.MatcanonError:
                pass
        try:
            equivalent(a, a.transpose())
        except matcanon.MatcanonError:
            pass
    assert "exactmat.py" in raw_readers
    assert raw_readers <= {"exactmat.py"}, raw_readers


def test_raw_probe_flags_a_stage_that_reads_raw_rows(raw_readers):
    stage = compile("def first(m):\n    return m.raw[0][0]\n",
                    str(SRC / "gabriel.py"), "exec")
    space = {}
    exec(stage, space)
    space["first"](ExactMatrix.identity(rationals(), 2))
    assert raw_readers == {"gabriel.py"}


def test_eliminations_build_no_scalar(monkeypatch):
    """inverse_or_rank in its three modes and solve, on singular, wide,
    tall and empty systems over each kind of raw value and with right-hand
    sides over an extension, construct no Scalar."""
    q, f3 = rationals(), prime_field(3)
    big = prime_field(65521)
    extensions = {q: q.adjoin_sqrt(q.scalar(2)),
                  f3: f3.adjoin_sqrt(f3.scalar(-1)),
                  gf4(): artin_schreier_root_or_adjoin(
                      gf4().base_element((0, 1)))[1],
                  big: big.adjoin_sqrt(big.scalar(17))}
    cases = []
    for a in [*_singular_inputs(), gamma_matrix(extensions[big], 4)]:
        n, ext = a.nrows, extensions.get(a.ctx, a.ctx)
        wide = a.submatrix(range(2), range(n))
        cases += [(a, ExactMatrix.jordan_block(ext, n, 1).submatrix(
                      range(n), range(2))),
                  (wide, ExactMatrix.identity(a.ctx, 2)),
                  (wide.transpose(), ExactMatrix.zeros(ext, n, 0)),
                  (a.submatrix([], range(n)), ExactMatrix.zeros(ext, 0, 1))]
    built = []
    init = Scalar.__init__

    def counting(self, ctx, raw):
        built.append(ctx)
        init(self, ctx, raw)

    monkeypatch.setattr(Scalar, "__init__", counting)
    for a, b in cases:
        for flags in ({}, {"transform": True}, {"rank_only": True}):
            inverse_or_rank(a, **flags)
        solve(a, b)
    assert not built

"""No dead helpers in src/matcanon.

Every top-level function, class and constant of the package must be read
somewhere in src/ outside its own definition, or be exported through
matcanon.__all__.  A read is a name load or an attribute access; an import
alone is not one.  A reference the tests alone need lives under tests/.
"""

import ast
import collections
import pathlib

import matcanon

SRC = pathlib.Path(matcanon.__file__).resolve().parent


def _defined(stmt):
    """Names a top-level statement defines (dunder names excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [n.id for t in stmt.targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                        ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _read(stmt):
    """Names a statement reads: loaded names and accessed attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def dead_names(sources):
    """Top-level names of the given {module: source text} that no other
    top-level statement of any module reads."""
    stmts = [stmt for text in sources.values()
             for stmt in ast.parse(text).body]
    reads = [_read(stmt) for stmt in stmts]
    readers = collections.Counter(name for r in reads for name in r)
    return {name for stmt, r in zip(stmts, reads) for name in _defined(stmt)
            if readers[name] == (name in r)}


def _package_sources():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_helper_has_a_reader():
    dead = dead_names(_package_sources()) - set(matcanon.__all__)
    assert not dead, sorted(dead)


def test_rule_flags_a_helper_left_behind():
    sources = {
        "exactmat.py": "def permutation_matrix(ctx, perm):\n"
                       "    return permutation_matrix(ctx, perm[1:])\n"
                       "def submatrix(m):\n"
                       "    return m\n",
        "gabriel.py": "from .exactmat import permutation_matrix, submatrix\n"
                      "LIMIT = 3\n"
                      "def reorder(x):\n"
                      "    return submatrix(x)\n",
    }
    assert dead_names(sources) == {"permutation_matrix", "LIMIT", "reorder"}

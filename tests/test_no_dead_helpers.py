"""No dead helpers in src/matcanon.

Every top-level function, class and constant of the package must be read
somewhere in src/ outside its own definition, or be exported through
matcanon.__all__.  A read is a name load or an attribute access; an import
alone is not one.  Every method of a class (dunder methods aside) must be
read in src/ outside its own body, or be named by a code span of README.md
(outside fenced blocks), where the public API of a context or a matrix is
documented.  A reference the tests alone need lives under tests/.  Every
exported name is documented: README.md names it in backticks.  Every name
a module imports is read in that module, except the re-exports of
__init__.py and __future__'s annotations.
"""

import ast
import collections
import pathlib
import re

import matcanon

SRC = pathlib.Path(matcanon.__file__).resolve().parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


def _reads(nodes, owner=None):
    """(name, cls) for each read under the given nodes: cls is the name of
    the innermost enclosing class for a read self.name, None for every
    other read."""
    for node in nodes:
        if isinstance(node, ast.Attribute):
            on_self = isinstance(node.value, ast.Name) and \
                node.value.id == "self"
            yield node.attr, owner if on_self else None
        elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                           ast.Store):
            yield node.id, None
        yield from _reads(ast.iter_child_nodes(node),
                          node.name if isinstance(node, ast.ClassDef)
                          else owner)


def dead_methods(sources, readme):
    """Methods of the classes in {module: source text} that nothing there
    reads outside the method's own body and no code span of the readme
    text names, as "Class.method".  A read self.name inside a class counts
    for the methods name of that class, its bases and its subclasses
    only; any other read counts for every method of that name.  A span
    names a method when it is the name alone, "x.name" or "x.name(...)";
    fenced code blocks are no spans."""
    trees = [ast.parse(text) for text in sources.values()]
    classes = [n for tree in trees for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef)]
    bases = {cls.name: {b.id if isinstance(b, ast.Name) else b.attr
                        for b in cls.bases
                        if isinstance(b, (ast.Name, ast.Attribute))}
             for cls in classes}

    def ancestors(name):
        seen, todo = set(), [name]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    todo.append(base)
        return seen

    kin = {name: ancestors(name) | {name} | {
        other for other in bases if name in ancestors(other)}
        for name in bases}
    reads = collections.Counter(_reads(trees))
    spans = re.findall(r"`([^`]*)`",
                       re.sub(r"```.*?```", "", readme, flags=re.S))
    named = {m.group(1) for m in (
        re.fullmatch(r"(?:\w+\.)*(\w+)(?:\(.*\))?", span) for span in spans)
        if m}
    dead = set()
    for cls in classes:
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name.startswith("__") or fn.name in named:
                continue
            own = collections.Counter(_reads(fn.body, cls.name))
            if all(reads[read] == own[read] for read in reads
                   if read[0] == fn.name
                   and (read[1] is None or read[1] in kin[cls.name])):
                dead.add("%s.%s" % (cls.name, fn.name))
    return dead


def unread_imports(sources):
    """(module, name) for each name a module of {module: source text}
    imports and never loads; __init__.py, whose imports are re-exports,
    and __future__'s annotations aside."""
    unread = set()
    for module, text in sources.items():
        if module == "__init__.py":
            continue
        nodes = list(ast.walk(ast.parse(text)))
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in nodes
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names} - {"annotations"}
        loaded = {node.id for node in nodes if isinstance(node, ast.Name)
                  and not isinstance(node.ctx, ast.Store)}
        unread |= {(module, name) for name in bound - loaded}
    return unread


def _package_sources():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_helper_has_a_reader():
    dead = dead_names(_package_sources()) - set(matcanon.__all__)
    assert not dead, sorted(dead)


def test_every_method_has_a_reader():
    assert not dead_methods(_package_sources(), README.read_text())


def test_every_import_is_read():
    assert not unread_imports(_package_sources())


def test_every_export_is_documented():
    text = README.read_text()
    missing = [name for name in matcanon.__all__ if "`%s`" % name not in text]
    assert not missing, missing


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


def test_rule_flags_a_method_left_behind():
    sources = {
        "exactmat.py": "class Matrix:\n"
                       "    def __init__(self, rows):\n"
                       "        self.rows = rows\n"
                       "    def columns(self):\n"
                       "        return self.transpose().columns()\n"
                       "    def transpose(self):\n"
                       "        return self\n"
                       "    def documented(self):\n"
                       "        return self\n"
                       "    def shape(self):\n"
                       "        return len(self.rows)\n",
        "gabriel.py": "def size(m):\n"
                      "    return m.shape()\n",
        # self.scale in _Rows reads the scale of its subclass _Flat, and
        # self.enter in _Mod the enter of its base _Rows, but neither
        # reads the scale of _Rat, an unrelated class
        "field.py": "class _Rows:\n"
                    "    def unit(self, x):\n"
                    "        return self.scale(x)\n"
                    "    def enter(self, x):\n"
                    "        return x\n"
                    "class _Flat(_Rows):\n"
                    "    def scale(self, x):\n"
                    "        return x\n"
                    "class _Rat:\n"
                    "    def scale(self, x):\n"
                    "        return x\n"
                    "class _Mod(_Rows):\n"
                    "    def scale(self, x):\n"
                    "        return self.enter(x)\n"
                    "def run(ops):\n"
                    "    return ops.unit(1)\n",
    }
    readme = ("Call `m.documented()` for a copy; `columns are vectors`.\n"
              "```python\nm.columns()\n```\n")
    assert dead_methods(sources, readme) == {"Matrix.columns", "_Rat.scale"}


def test_rule_flags_an_import_left_behind():
    sources = {
        "__init__.py": "from .field import EXTEND, STRICT\n",
        "unipotent.py": "from __future__ import annotations\n"
                        "import itertools\n"
                        "import os.path\n"
                        "from .errors import NoRootStrictPolicy as Refused\n"
                        "from .field import EXTEND, STRICT\n"
                        "def roots(c):\n"
                        "    from .field import quadratic_roots\n"
                        "    return os.path, quadratic_roots(c, EXTEND)\n",
    }
    assert unread_imports(sources) == {("unipotent.py", "itertools"),
                                       ("unipotent.py", "Refused"),
                                       ("unipotent.py", "STRICT")}

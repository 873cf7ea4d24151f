"""Every top-level name of the library is named somewhere else: in code of
``src/``, ``scripts/``, ``tests/`` or ``perfbench/``.  A function, class or
constant that nothing calls, reads or imports is dead code.  Standard
library only: each file is parsed with ``ast``; a name counts as named where
it is read, imported or taken as an attribute.  Dunder names are exempt."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
LIBRARY = sorted(glob.glob(os.path.join(ROOT, "src", "hopfcat", "*.py")))
EVERY_FILE = sorted(
    p for d in ("src", "scripts", "tests", "perfbench")
    for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"), recursive=True))


def top_level_names(tree) -> dict:
    """Each name a module binds at its top level, with the line that binds
    it; imports aside."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        out[n.id] = node.lineno
    return out


def named(tree) -> set:
    """Every name the file's code reads, imports or takes as an
    attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def unnamed(trees: dict, library) -> list:
    """The top-level names of the ``library`` files among ``trees`` that no
    file names, as ``path:line: name``."""
    seen = set().union(*(named(tree) for tree in trees.values()))
    return [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
            for path in library
            for name, line in top_level_names(trees[path]).items()
            if name not in seen
            and not (name.startswith("__") and name.endswith("__"))]


def test_the_scan_covers_the_library_and_its_users():
    names = {os.path.relpath(p, ROOT) for p in EVERY_FILE}
    for path in (("src", "hopfcat", "weak.py"), ("scripts", "ab_bench.py"),
                 ("tests", "oracles.py"), ("perfbench", "tracing.py")):
        assert os.path.join(*path) in names
    assert set(LIBRARY) <= set(EVERY_FILE)


def test_the_scan_finds_an_unnamed_name():
    lib = ast.parse("import os\n__all__ = []\nA, B = 1, 2\n"
                    "def f():\n    return A\ndef g():\n    pass\n"
                    "class C:\n    pass\n")
    user = ast.parse("from lib import C\nprint(os.sep)\n")
    assert unnamed({"lib.py": lib, "user.py": user}, ["lib.py"]) == [
        f"{os.path.relpath('lib.py', ROOT)}:3: B",
        f"{os.path.relpath('lib.py', ROOT)}:4: f",
        f"{os.path.relpath('lib.py', ROOT)}:6: g"]


def test_every_top_level_name_is_named_somewhere():
    trees = {}
    for path in EVERY_FILE:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
    assert unnamed(trees, LIBRARY) == []

"""No module of the library (``__init__.py`` aside, whose imports are its
exports), no script and no test module imports a name it never uses.
Standard library only: each file is parsed with ``ast`` and every name bound
by an import must be read somewhere in that file, in code or in a string
annotation."""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(
    p for p in glob.glob(os.path.join(ROOT, "src", "hopfcat", "*.py"))
    + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
    if os.path.basename(p) != "__init__.py")


def imported_names(tree) -> dict:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree) -> set:
    """Every name read in the file, string annotations included."""
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_the_scan_covers_the_library_and_the_scripts():
    names = {os.path.relpath(p, ROOT) for p in FILES}
    assert os.path.join("src", "hopfcat", "cli.py") in names
    assert os.path.join("scripts", "cli_identity.py") in names
    assert os.path.join("tests", "oracles.py") in names
    assert os.path.join("tests", "conftest.py") in names
    assert os.path.join("src", "hopfcat", "__init__.py") not in names


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\n"
                     "def f(x: 'e') -> None:\n    return os.sep\n")
    assert set(imported_names(tree)) - used_names(tree) == {"d"}


@pytest.mark.parametrize("path", FILES,
                         ids=[os.path.relpath(p, ROOT) for p in FILES])
def test_no_unused_import(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = imported_names(tree)
    unused = sorted(set(imported) - used_names(tree))
    assert not unused, [f"line {imported[n]}: {n}" for n in unused]

"""Source hygiene of the package, read with the standard ast module.

Two rules over every module of picardkit: each imported name is used (a
name listed in __all__ counts as used), and no module imports another
module's private name (one that starts with a single underscore).
"""

import ast
from pathlib import Path

import pytest

import picardkit

SOURCES = sorted(Path(picardkit.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield (a.asname or a.name), node.lineno


def _annotation_names(node):
    """Names inside a quoted annotation such as -> "DivisorClass"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return set()


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return used


def _private_imports(tree):
    """(module, name) for every relative import of a single-underscore
    name."""
    return [(node.module, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for a in node.names
            if a.name.startswith("_") and not a.name.startswith("__")]


def test_every_module_is_checked():
    names = {p.stem for p in SOURCES}
    assert {"cli", "cones", "curves", "fibration", "lattice"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    crossing = _private_imports(_tree(path))
    assert not crossing, f"{path.name} imports private names {crossing}"


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("from .curves import _scan, is_conic\n"
                     "from . import __version__\n"
                     "import json\n"
                     "def f(x: 'Sequence') -> None:\n"
                     "    return is_conic(x), __version__\n")
    used = _used(tree)
    assert [n for n, _ in _imported(tree) if n not in used] == ["_scan", "json"]
    assert "Sequence" in used
    assert _private_imports(tree) == [("curves", "_scan")]

"""The benchmark's view of the API, read from bench/ with the ast module.

The benchmark imports picardkit names and wraps some of them by name at
run time (the WRAPPED and COUNTED tables of bench/tracer.py).  Nothing
from bench/ is imported here: its files are parsed, and every picardkit
name they use, Class.method included, must still resolve, so removing one
fails the test suite rather than a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TABLES = ("WRAPPED", "COUNTED")


def _names_used(path):
    """(module, dotted name) for each picardkit name a file imports with
    `from picardkit... import` or lists in a tracer table."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "picardkit"):
            for a in node.names:
                yield node.module, a.name
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in TABLES
                for t in node.targets):
            for row in node.value.elts:
                module, name = (e.value for e in row.elts[:2])
                yield f"picardkit.{module}", name


def _resolves(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


USED = sorted({u for path in sorted(BENCH.glob("*.py"))
               for u in _names_used(path)})


def test_the_reader_finds_imports_and_table_rows():
    assert ("picardkit.fibration", "analyze_pair") in USED  # an import
    assert ("picardkit.cones", "ConePoly.rays") in USED  # a WRAPPED row
    assert ("picardkit.doublecover",
            "MultiHomogPoly.partial_derivative") in USED  # a COUNTED row


def test_the_check_sees_a_missing_name():
    assert _resolves("picardkit.cones", "ConePoly.contains")
    assert not _resolves("picardkit.cones", "ConePoly.no_such_method")
    assert not _resolves("picardkit.curves", "no_such_function")


@pytest.mark.parametrize("module, name", USED,
                         ids=[f"{m}.{n}" for m, n in USED])
def test_every_name_the_benchmark_uses_resolves(module, name):
    assert _resolves(module, name), \
        f"bench/ uses {module}.{name}, which picardkit does not have"

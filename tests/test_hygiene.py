"""Source hygiene of the package, read with the standard ast module.

Nine rules over every module of picardkit: each imported name is used (a
name listed in __all__ counts as used), no module imports another module's
private name (one that starts with a single underscore), no module reads a
private attribute that only another module defines (x._name, other than on
self or cls), and every public top-level function or class serves the
package or the benchmark, as does every public method or property of a
package class, read as an attribute somewhere in the package or in bench/,
no float is made: no true division, float literal, float() or round()
call, since every result is exact, and no module but lattice imports the
packed-field format, FIELD_BITS or DOT_LIMIT (tests may), and every
functools cache is listed in CACHES with the bound of its key, since a
cache keyed by what callers pass grows with them, and no code but
cli.run, the process entry, imports gc or calls into it, so that a caller
in process (a test, a suite, the benchmark) keeps a heap the collector can
reach, and no module but curves calls OrbitSignature, so that its rule,
the degree and the descending multiplicities, lives in
curves.orbit_signature alone.  A route that only the tests call belongs in tests/_oracles.py.
The attribute rule keeps trusted constructors inside their own modules:
ReducibleFiber._from_table skips validation and stores a cached pair of
components as it is.
"""

import ast
from pathlib import Path

import pytest

import picardkit
from test_bench_api import BENCH, USED

SOURCES = sorted(Path(picardkit.__file__).parent.glob("*.py"))
# (module, function) of every functools cache in the package, and the bound
# of its key; only checked arguments reach each one
CACHES = {
    ("curves", "conic_coords"): "rank, 1..8",
    ("curves", "contraction_table"): "rank, 0..8",
    ("curves", "enumerate_conic"): "rank, 1..8",
    ("curves", "enumerate_exceptional"): "rank, 0..8",
    ("curves", "_fiber_pairs"): "rank and conic class: 2334 over ranks 1..8",
    ("fibration", "_pair_scan"): "rank, 1..8",
}


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


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_imports(tree):
    """(module, name) for every relative import of a single-underscore
    name."""
    return [(node.module, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for a in node.names if _is_private(a.name)]


def _private_definitions(tree):
    """Private names a module binds: functions, methods and classes,
    assigned names and assigned attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)):
            names.add(node.attr)
    return {n for n in names if _is_private(n)}


def _foreign_private_reads(sources):
    """(module, attribute) for each x._name a module reads, x not self or
    cls, where _name is defined by another module and not by this one."""
    trees = {p.stem: _tree(p) for p in sources}
    defined = {stem: _private_definitions(t) for stem, t in trees.items()}
    out = []
    for stem, tree in sorted(trees.items()):
        foreign = set().union(*(d for other, d in defined.items()
                                if other != stem)) - defined[stem]
        out += [(stem, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in foreign
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))]
    return out


def _public_defs(tree):
    """Names of the public top-level functions and classes."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced(tree):
    """Every name read as an ast Name, or as the attribute of an
    Attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _unserved(sources, bench_used):
    """(module, name) for each public definition that no module but
    __init__ references and the benchmark does not use."""
    trees = {p.stem: _tree(p) for p in sources}
    referenced = set().union(*(_referenced(t) for stem, t in trees.items()
                               if stem != "__init__"))
    return [(stem, name) for stem, tree in sorted(trees.items())
            for name in _public_defs(tree)
            if name not in referenced
            and (f"picardkit.{stem}", name) not in bench_used]


def _public_methods(tree):
    """(class, name) for the public methods and properties of the
    top-level classes."""
    return [(node.name, item.name) for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def _unserved_methods(sources, bench_sources, bench_used):
    """(module, "Class.name") for each public method or property that no
    file of the package or the benchmark reads as an attribute, and that
    no benchmark table wraps by name.

    A read through a package class's own name, such as ProductPoint.of,
    serves only that class's method.  Any other read, such as c.rays(),
    serves every method of that name: telling its receiver apart would
    need types that the ast does not give.
    """
    trees = {p: _tree(p) for p in [*sources, *bench_sources]}
    classes = {node.name for p in sources for node in trees[p].body
               if isinstance(node, ast.ClassDef)}
    # (class, name) for a read through a class name, else (None, name)
    read = {(n.value.id if isinstance(n.value, ast.Name)
             and n.value.id in classes else None, n.attr)
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(p.stem, f"{cls}.{name}") for p in sources
            for cls, name in _public_methods(trees[p])
            if (None, name) not in read and (cls, name) not in read
            and (f"picardkit.{p.stem}", f"{cls}.{name}") not in bench_used]


def _float_sources(tree):
    """(line, what) for each place that makes a float: a true division, a
    float literal, or a call of float or round."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            out.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            out.append((node.lineno, f"{node.func.id}()"))
    return out


def _field_format_imports(sources):
    """(module, name) for each module other than lattice that imports the
    packed-field format, FIELD_BITS or DOT_LIMIT."""
    return [(p.stem, a.name) for p in sources if p.stem != "lattice"
            for node in ast.walk(_tree(p))
            if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name in ("FIELD_BITS", "DOT_LIMIT")]


def _signature_builders(sources):
    """(module, line) for each call of OrbitSignature, under any import
    name or as an attribute, in a module other than curves."""
    out = []
    for p in sources:
        if p.stem == "curves":
            continue
        tree = _tree(p)
        names = {"OrbitSignature"} | {
            a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name == "OrbitSignature"}
        out += [(p.stem, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and (node.func.attr if isinstance(node.func, ast.Attribute)
                     else getattr(node.func, "id", None)) in names]
    return sorted(out)


def _caches(sources):
    """(module, function) for each function wrapped in functools' cache or
    lru_cache, as a decorator or by assignment, under any import name."""
    out = []
    for p in sources:
        tree = _tree(p)
        names = {"cache", "lru_cache"} | {
            a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for a in node.names if a.name in ("cache", "lru_cache")}

        def is_cache(node):
            if isinstance(node, ast.Call):  # lru_cache(maxsize=...)
                node = node.func
            return (node.attr if isinstance(node, ast.Attribute)
                    else getattr(node, "id", None)) in names

        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(map(is_cache, node.decorator_list)):
                out.append((p.stem, node.name))
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call) \
                    and is_cache(node.value.func):
                out += [(p.stem, t.id) for t in node.targets
                        if isinstance(t, ast.Name)]
    return sorted(out)


def _collector_users(sources):
    """(module, scope) for each import of gc, each read of a name such
    an import binds, and each call with the argument "gc" (importlib's,
    say); scope is the top-level function or class it sits in, "" at
    module level."""
    out = set()
    for p in sources:
        tree = _tree(p)
        names = {a.asname or a.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 for a in node.names if a.name == "gc"}
        names |= {a.asname or a.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "gc"
                  for a in node.names}
        for top in tree.body:
            scope = getattr(top, "name", "")  # a def or a class
            for node in ast.walk(top):
                if (isinstance(node, ast.Import)
                        and any(a.name == "gc" for a in node.names)
                        or isinstance(node, ast.ImportFrom)
                        and node.module == "gc"
                        or isinstance(node, ast.Name) and node.id in names
                        or isinstance(node, ast.Call) and any(
                            isinstance(a, ast.Constant) and a.value == "gc"
                            for a in node.args)):
                    out.add((p.stem, scope))
    return sorted(out)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_is_made(path):
    made = _float_sources(_tree(path))
    assert not made, f"{path.name} makes floats at {made}"


def test_the_field_format_stays_in_lattice():
    leaks = _field_format_imports(SOURCES)
    assert not leaks, f"the packed-field format leaves lattice: {leaks}"


def test_the_field_format_check_sees_an_import(tmp_path):
    (tmp_path / "lattice.py").write_text("FIELD_BITS = 16\nDOT_LIMIT = 1\n")
    (tmp_path / "curves.py").write_text("from .lattice import FIELD_BITS\n")
    (tmp_path / "cones.py").write_text(
        "from .lattice import DOT_LIMIT as limit, pairing\n")
    assert _field_format_imports(sorted(tmp_path.glob("*.py"))) \
        == [("cones", "DOT_LIMIT"), ("curves", "FIELD_BITS")]


def test_only_curves_builds_orbit_signatures():
    builders = _signature_builders(SOURCES)
    assert not builders, (
        f"take OrbitSignature records from curves.orbit_signature: "
        f"{builders}")


def test_the_signature_check_sees_every_call(tmp_path):
    (tmp_path / "curves.py").write_text("class OrbitSignature: pass\n"
                                        "OrbitSignature()\n")
    (tmp_path / "fibration.py").write_text(
        "from .curves import OrbitSignature\nOrbitSignature(1, ())\n")
    (tmp_path / "cones.py").write_text(
        "from .curves import OrbitSignature as Sig\nx = [Sig(0, ())]\n")
    (tmp_path / "suites.py").write_text(
        "from . import curves\ncurves.OrbitSignature(2, (1,))\n")
    # an annotation names the class without building one
    (tmp_path / "cli.py").write_text(
        "from .curves import OrbitSignature\n"
        "def f(s: OrbitSignature) -> OrbitSignature: return s\n")
    assert _signature_builders(sorted(tmp_path.glob("*.py"))) \
        == [("cones", 2), ("fibration", 2), ("suites", 2)]


def test_every_cache_is_listed_with_the_bound_of_its_key():
    assert _caches(SOURCES) == sorted(CACHES), (
        "list each functools cache in CACHES with the bound of its key, "
        "and drop the rows of caches that are gone")


def test_the_cache_check_sees_every_cache(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache as lru, total_ordering\n"
        "@cache\ndef plain(r): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef sized(r): pass\n"
        "@lru(8)\ndef renamed(r): pass\n"
        "class C:\n    @functools.cache\n    def method(self): pass\n"
        "@total_ordering\nclass D: pass\n"
        "def uncached(r): pass\n"
        "wrapped = functools.cache(uncached)\n")
    (tmp_path / "b.py").write_text("from .a import plain\n")
    assert _caches(sorted(tmp_path.glob("*.py"))) == [
        ("a", "method"), ("a", "plain"), ("a", "renamed"), ("a", "sized"),
        ("a", "wrapped")]


def test_only_the_process_entry_touches_the_collector():
    assert _collector_users(SOURCES) == [("cli", "run")], (
        "only cli.run may import gc or call into it")


def test_the_collector_check_sees_every_use(tmp_path):
    (tmp_path / "a.py").write_text("import gc\n"
                                   "def f():\n    gc.freeze()\n")
    (tmp_path / "b.py").write_text("def g():\n"
                                   "    from gc import freeze as frozen\n"
                                   "    frozen()\n")
    (tmp_path / "c.py").write_text("import importlib\n"
                                   "def h():\n"
                                   "    importlib.import_module('gc').collect()\n"
                                   "def untouched(gcx):\n    return gcx\n")
    (tmp_path / "cli.py").write_text("def run():\n    import gc as g\n"
                                     "    g.freeze()\n"
                                     "class Main:\n"
                                     "    def main(self):\n"
                                     "        import gc\n")
    assert _collector_users(sorted(tmp_path.glob("*.py"))) == [
        ("a", ""), ("a", "f"), ("b", "g"), ("c", "h"), ("cli", "Main"),
        ("cli", "run")]


def test_no_module_reads_another_modules_private_attributes():
    crossing = _foreign_private_reads(SOURCES)
    assert not crossing, f"private attributes read across modules: {crossing}"


def test_the_private_attribute_check_sees_a_trusted_constructor(tmp_path):
    # fibration building a fibre through curves' unchecked constructor
    package = Path(picardkit.__file__).parent
    for name in ("curves.py", "fibration.py"):
        (tmp_path / name).write_text((package / name).read_text())
    assert _foreign_private_reads(sorted(tmp_path.glob("*.py"))) == []
    with open(tmp_path / "fibration.py", "a") as f:
        f.write("\n\ndef split(c, a, b):\n"
                "    return ReducibleFiber._from_table(c, (a, b))\n")
    assert _foreign_private_reads(sorted(tmp_path.glob("*.py"))) \
        == [("fibration", "_from_table")]


def test_every_public_definition_serves_the_package_or_the_benchmark():
    unserved = _unserved(SOURCES, set(USED))
    assert not unserved, (f"only tests call {unserved}; move them to "
                          f"tests/_oracles.py")


def test_the_unserved_check_sees_a_test_only_route(tmp_path):
    (tmp_path / "a.py").write_text("def used(): pass\n"
                                   "def benched(): pass\n"
                                   "def test_only(): pass\n"
                                   "class _Private: pass\n")
    (tmp_path / "b.py").write_text("from . import a\na.used()\n")
    (tmp_path / "__init__.py").write_text("from .a import test_only\n")
    assert _unserved(sorted(tmp_path.glob("*.py")),
                     {("picardkit.a", "benched")}) == [("a", "test_only")]


def test_every_public_method_serves_the_package_or_the_benchmark():
    unserved = _unserved_methods(SOURCES, sorted(BENCH.glob("*.py")),
                                 set(USED))
    assert not unserved, (f"only tests read {unserved}; move them to "
                          f"tests/_oracles.py")


def test_the_unserved_method_check_sees_a_test_only_method(tmp_path):
    (tmp_path / "a.py").write_text("class Cone:\n"
                                   "    def used(self): pass\n"
                                   "    def benched(self): pass\n"
                                   "    def wrapped(self): pass\n"
                                   "    @property\n"
                                   "    def test_only(self): pass\n"
                                   "    def _private(self): pass\n"
                                   "class Point:\n"
                                   "    @staticmethod\n"
                                   "    def of(x): pass\n"
                                   "class Spec:\n"
                                   "    @staticmethod\n"
                                   "    def of(x): pass\n")
    (tmp_path / "b.py").write_text("from .a import Cone, Point\n"
                                   "Cone().used()\nPoint.of(1)\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "w.py").write_text("def op(c):\n    return c.benched()\n")
    # Point.of is read through its class name, so it does not serve Spec.of
    assert _unserved_methods(sorted(tmp_path.glob("*.py")),
                             sorted(bench.glob("*.py")),
                             {("picardkit.a", "Cone.wrapped")}) \
        == [("a", "Cone.test_only"), ("a", "Spec.of")]


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


def test_the_float_check_sees_every_float_source():
    # a copy of lattice with each kind of float put into it
    package = Path(picardkit.__file__).parent
    source = (package / "lattice.py").read_text()
    assert _float_sources(ast.parse(source)) == []
    mutated = ast.parse(source + "\n\ndef f(x, y):\n"
                        "    x /= 2\n"
                        "    return x / y, 0.5, float(x), round(y), x // y\n")
    assert [what for _, what in _float_sources(mutated)] \
        == ["/", "/", "0.5", "float()", "round()"]

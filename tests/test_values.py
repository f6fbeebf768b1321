"""Value semantics of the package's thirteen frozen value classes.

One instance of each class, with its repr, equality and hash, immutability,
keyword construction, copying, OrbitSignature's ordering and every refusal
a constructor makes, each frozen as the classes behaved when they were
dataclasses.  The reprs and messages below are exact strings; a ConePoly
has no repr of its own, so its address is dropped before comparing.
"""

import copy
import pickle
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from picardkit.cones import ConeReport, surface_cone_report
from picardkit.curves import OrbitSignature, ReducibleFiber
from picardkit.doublecover import DoubleCoverSpec, MultiHomogPoly, ProductPoint
from picardkit.fibration import (FibrationPair, FinitenessReport, HodgeBound,
                                 PairClassEntry, PairScanSummary)
from picardkit.lattice import DivisorClass, FrozenValue, SurfaceModel

M1 = SurfaceModel("BlowupP2", 1)
M2 = SurfaceModel("BlowupP2", 2)
H = DivisorClass(M2, (1, 0, 0))
E1 = DivisorClass(M2, (0, 1, 0))
E2 = DivisorClass(M2, (0, 0, 1))
L1 = DivisorClass(M2, (1, -1, 0))  # the pencil of lines through point 1
L2 = DivisorClass(M2, (1, 0, -1))
L12 = DivisorClass(M2, (1, -1, -1))
SIG = OrbitSignature(1, (1, 0))
REPORT = surface_cone_report(M1)

_M2 = "SurfaceModel(kind='BlowupP2', size=2)"

# (id, class, field names, field values, frozen repr)
VALUES = [
    ("SurfaceModel", SurfaceModel, ("kind", "size"), ("BlowupP2", 3),
     "SurfaceModel(kind='BlowupP2', size=3)"),
    ("DivisorClass", DivisorClass, ("model", "coords"), (M2, (1, -1, 0)),
     f"DivisorClass(model={_M2}, coords=(1, -1, 0))"),
    ("OrbitSignature", OrbitSignature, ("degree", "multiplicities"),
     (2, (1, 1, 1, 1)),
     "OrbitSignature(degree=2, multiplicities=(1, 1, 1, 1))"),
    ("ReducibleFiber", ReducibleFiber, ("total", "components"),
     (L1, (E2, L12)),
     f"ReducibleFiber(total=DivisorClass(model={_M2}, coords=(1, -1, 0)), "
     f"components=(DivisorClass(model={_M2}, coords=(0, 0, 1)), "
     f"DivisorClass(model={_M2}, coords=(1, -1, -1))))"),
    ("FibrationPair", FibrationPair, ("model", "c1", "c2"), (M2, L1, L2),
     f"FibrationPair(model={_M2}, "
     f"c1=DivisorClass(model={_M2}, coords=(1, -1, 0)), "
     f"c2=DivisorClass(model={_M2}, coords=(1, 0, -1)))"),
    ("FinitenessReport", FinitenessReport,
     ("degree", "common_contracted", "is_finite"), (1, (E1,), False),
     f"FinitenessReport(degree=1, common_contracted=(DivisorClass("
     f"model={_M2}, coords=(0, 1, 0)),), is_finite=False)"),
    ("HodgeBound", HodgeBound, ("lhs", "rhs", "holds"), (14, 16, True),
     "HodgeBound(lhs=14, rhs=16, holds=True)"),
    ("PairClassEntry", PairClassEntry, ("signature_pair", "degree", "count"),
     ((SIG, SIG), 1, 2),
     "PairClassEntry(signature_pair=(OrbitSignature(degree=1, "
     "multiplicities=(1, 0)), OrbitSignature(degree=1, multiplicities="
     "(1, 0))), degree=1, count=2)"),
    ("PairScanSummary", PairScanSummary,
     ("rank", "class_count", "pair_count", "max_degree", "hodge_holds",
      "finite_pair_count", "finite_degrees"),
     (2, 2, 1, 1, True, 1, (1,)),
     "PairScanSummary(rank=2, class_count=2, pair_count=1, max_degree=1, "
     "hodge_holds=True, finite_pair_count=1, finite_degrees=(1,))"),
    ("DoubleCoverSpec", DoubleCoverSpec, ("n", "branch_type"),
     (3, (1, 1, 1)), "DoubleCoverSpec(n=3, branch_type=(1, 1, 1))"),
    ("ProductPoint", ProductPoint, ("n", "pairs"),
     (2, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1, 2)))),
     "ProductPoint(n=2, pairs=((Fraction(0, 1), Fraction(1, 1)), "
     "(Fraction(1, 1), Fraction(1, 2))))"),
    ("MultiHomogPoly", MultiHomogPoly, ("n", "terms", "multidegree"),
     (1, {(1, 0): Fraction(1)}, (1,)),
     "MultiHomogPoly(n=1, multidegree=(1,), 1 terms)"),
    ("ConeReport", ConeReport,
     ("model", "nef", "psef", "nef_generators", "equal", "mori_simplicial",
      "picard_number"),
     (M1, REPORT.nef, REPORT.psef, ((1, -1), (1, 0)), False, True, 2),
     "ConeReport(model=SurfaceModel(kind='BlowupP2', size=1), "
     "nef=<picardkit.cones.ConePoly object>, "
     "psef=<picardkit.cones.ConePoly object>, "
     "nef_generators=((1, -1), (1, 0)), equal=False, mori_simplicial=True, "
     "picard_number=2)"),
]
IDS = [v[0] for v in VALUES]


def _field_tuple(x, names):
    return tuple(getattr(x, name) for name in names)


@pytest.mark.parametrize("_, cls, names, values, text", VALUES, ids=IDS)
def test_repr_lists_every_field(_, cls, names, values, text):
    assert re.sub(r" at 0x[0-9a-f]+", "", repr(cls(*values))) == text


@pytest.mark.parametrize("_, cls, names, values, text", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(_, cls, names, values, text):
    x, y = cls(*values), cls(*values)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    fields = _field_tuple(x, names)
    if cls is MultiHomogPoly:  # its own hash: terms are a mapping view
        assert hash(x) == hash((x.n, x.multidegree,
                                frozenset(x.terms.items())))
    else:
        assert hash(x) == hash(fields)
    assert fields == tuple(values)
    assert {x: 1}[y] == 1


@pytest.mark.parametrize("_, cls, names, values, text", VALUES, ids=IDS)
def test_a_value_equals_only_its_own_class(_, cls, names, values, text):
    x = cls(*values)
    fields = _field_tuple(x, names)
    assert x != fields and fields != x
    assert x != SimpleNamespace(**dict(zip(names, fields)))
    sub = type("Sub", (cls,), {})(*values)
    assert x != sub and sub != x
    assert x.__eq__(fields) is NotImplemented


def test_one_field_apart_is_unequal():
    assert SurfaceModel("BlowupP2", 3) != SurfaceModel("BlowupP2", 4)
    assert DivisorClass(M1, (1, -1)) != DivisorClass(M2, (1, -1, 0))
    assert HodgeBound(14, 16, True) != HodgeBound(14, 16, False)
    assert OrbitSignature(2, (1, 1)) != OrbitSignature(2, (1, 0))
    assert (MultiHomogPoly(1, {(1, 0): 1})
            != MultiHomogPoly(1, {(1, 0): 2}))


@pytest.mark.parametrize("_, cls, names, values, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(_, cls, names, values, text):
    x = cls(*values)
    before = _field_tuple(x, names)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _field_tuple(x, names) == before
    assert not hasattr(x, "extra")


@pytest.mark.parametrize("_, cls, names, values, text", VALUES, ids=IDS)
def test_keyword_construction(_, cls, names, values, text):
    assert cls(**dict(zip(names, values))) == cls(*values)


UNCHECKED = [v for v in VALUES if v[0] in (
    "OrbitSignature", "FinitenessReport", "HodgeBound", "PairClassEntry",
    "PairScanSummary", "ConeReport")]


@pytest.mark.parametrize("_, cls, names, values, text", UNCHECKED,
                         ids=[v[0] for v in UNCHECKED])
def test_arguments_bind_to_fields_as_in_a_plain_function(
        _, cls, names, values, text):
    # (call, argument the message names, or None)
    bad = [
        (lambda: cls(*values, 0), None),
        (lambda: cls(*values[:-1]), names[-1]),
        (lambda: cls(*values, extra=0), "extra"),
        (lambda: cls(*values, **{names[0]: values[0]}), names[0]),
    ]
    for build, name in bad:
        with pytest.raises(TypeError) as exc:
            build()
        assert cls.__name__ in str(exc.value)
        if name is not None:
            assert repr(name) in str(exc.value)


@pytest.mark.parametrize("_, cls, names, values, text", VALUES, ids=IDS)
def test_copies_are_equal(_, cls, names, values, text):
    x = cls(*values)
    assert copy.copy(x) == x
    if cls is MultiHomogPoly:  # a mapping view cannot be pickled
        with pytest.raises(TypeError, match="mappingproxy"):
            copy.deepcopy(x)
        with pytest.raises(TypeError, match="mappingproxy"):
            pickle.dumps(x)
    elif cls is ConeReport:  # cones compare by identity
        assert type(pickle.loads(pickle.dumps(x))) is ConeReport
    else:
        assert copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x


def test_a_subclass_that_adds_no_field_keeps_its_base_fields():
    # __slots__ = () adds no field: the subclass binds, stores, compares,
    # prints and copies through its base's fields
    class TaggedSignature(OrbitSignature):
        __slots__ = ()

    class TaggedModel(SurfaceModel):
        __slots__ = ()

    x = TaggedSignature(2, (1, 1))
    assert repr(x) == (f"{TaggedSignature.__qualname__}"
                       f"(degree=2, multiplicities=(1, 1))")
    assert x == TaggedSignature(multiplicities=(1, 1), degree=2)
    assert hash(x) == hash((2, (1, 1)))
    assert x != OrbitSignature(2, (1, 1)) and x < TaggedSignature(3, ())
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    assert not hasattr(x, "__dict__")
    with pytest.raises(TypeError,
                       match="TaggedSignature\\(\\) missing argument "
                             "'multiplicities'"):
        TaggedSignature(2)
    with pytest.raises(AttributeError):
        x.degree = 3
    model = TaggedModel("BlowupP2", 3)
    assert repr(model) == f"{TaggedModel.__qualname__}(kind='BlowupP2', size=3)"
    assert (model.kind, model.size, model.rank) == ("BlowupP2", 3, 4)
    with pytest.raises(ValueError, match="needs 0 <= r <= 8, got 9"):
        TaggedModel("BlowupP2", 9)


@pytest.mark.parametrize("args, kwargs", [((), {}), ((1, 2), {}),
                                          ((), {"x": 1})])
def test_the_base_class_and_a_class_without_fields_are_abstract(args,
                                                                kwargs):
    # FrozenValue() raised AttributeError: ... '_arity'
    class NoFields(FrozenValue):
        __slots__ = ()

    for cls in (FrozenValue, NoFields):
        with pytest.raises(TypeError) as caught:
            cls(*args, **kwargs)
        assert str(caught.value) == (f"{cls.__name__} is abstract: build a "
                                     f"subclass that declares its fields")


def test_multihomog_poly_defaults_its_multidegree_to_its_terms():
    p = MultiHomogPoly(2, {(1, 0, 0, 2): 3})
    assert p.multidegree == (1, 2)
    assert p == MultiHomogPoly(n=2, terms={(1, 0, 0, 2): 3}, multidegree=[1, 2])
    zero = MultiHomogPoly(2, {}, multidegree=[1, 0])
    assert repr(zero) == "MultiHomogPoly(n=2, multidegree=(1, 0), 0 terms)"


def test_constructors_store_their_normal_forms():
    assert DivisorClass(M2, [1, -1, 0]).coords == (1, -1, 0)
    # a list given to a checked constructor is stored as a tuple, so the
    # value hashes and no entry can be added after the checks
    spec = DoubleCoverSpec(2, [1, 1])
    assert spec.branch_type == (1, 1)
    assert spec == DoubleCoverSpec.of([1, 1])
    assert hash(spec) == hash(DoubleCoverSpec.of([1, 1]))
    fiber = ReducibleFiber(L2, [E1, L12])
    assert fiber.components == (E1, L12)
    assert hash(fiber) == hash(ReducibleFiber(L2, (E1, L12)))
    assert ProductPoint(1, ([0, 1],)).pairs == ((Fraction(0), Fraction(1)),)
    p = MultiHomogPoly(1, {(1, 0): 1, (0, 1): 0})
    assert dict(p.terms) == {(1, 0): Fraction(1)}
    with pytest.raises(TypeError):
        p.terms[(0, 1)] = Fraction(1)


def test_orbit_signatures_order_by_degree_then_multiplicities():
    a, b, c = (OrbitSignature(1, (1, 0)), OrbitSignature(1, (1, 1)),
               OrbitSignature(2, (1, 1, 1, 1)))
    assert a < b < c and c > b > a
    assert a <= a and a >= a and not a < a and not a > a
    assert sorted([c, b, a]) == [a, b, c]
    assert max([a, c, b]) is c


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_orbit_signatures_do_not_order_against_other_types(op):
    sig = OrbitSignature(1, (1, 0))
    for other in [(1, (1, 0)), 1, HodgeBound(1, 1, True)]:
        with pytest.raises(TypeError):
            eval(f"sig {op} other")
        with pytest.raises(TypeError):
            eval(f"other {op} sig")


# (constructor call, exception type, exact message)
REFUSALS = [
    (lambda: SurfaceModel("BlowupP2", 2.0), ValueError,
     "model size must be an integer, got 2.0"),
    (lambda: SurfaceModel("BlowupP2", True), ValueError,
     "model size must be an integer, got True"),
    (lambda: SurfaceModel("BlowupP2", 9), ValueError,
     "BlowupP2 needs 0 <= r <= 8, got 9"),
    (lambda: SurfaceModel("ProductP1", 0), ValueError,
     "ProductP1 needs n = 2, got 0"),
    (lambda: SurfaceModel("P3", 1), ValueError, "unknown model kind 'P3'"),
    (lambda: DivisorClass(M2, (1, 0.5, 0)), ValueError,
     "divisor class coordinates must be integers"),
    (lambda: DivisorClass(M2, (1, 0.5)), ValueError,
     "divisor class coordinates must be integers"),
    (lambda: DivisorClass(M2, (1, 0)), ValueError,
     "expected 3 coordinates for BlowupP2(2), got 2"),
    (lambda: ReducibleFiber(L1, (E1, E2)), ValueError,
     "components do not sum to the fiber class"),
    (lambda: ReducibleFiber(H, (E1, L1)), ValueError,
     "components are not exceptional classes meeting once"),
    (lambda: FibrationPair(SurfaceModel("ProductP1", 2),
                           DivisorClass(SurfaceModel("ProductP1", 2), (1, 0)),
                           DivisorClass(SurfaceModel("ProductP1", 2), (0, 1))),
     ValueError, "fibration pairs need a BlowupP2 model, got ProductP1(2)"),
    (lambda: FibrationPair(M2, DivisorClass(M1, (1, -1)), L2), ValueError,
     "H - E1 does not live in BlowupP2(2)"),
    (lambda: FibrationPair(M2, L1, E1), ValueError,
     "E1 is not a conic fibration class"),
    (lambda: FibrationPair(M2, L1, L1), ValueError,
     "fibration pair needs two distinct classes"),
    (lambda: DoubleCoverSpec(0, ()), ValueError, "need at least one factor"),
    (lambda: DoubleCoverSpec(65, (1,) * 65), ValueError,
     "branch type has 65 factors; at most 64 are supported"),
    (lambda: DoubleCoverSpec(2, (1,)), ValueError,
     "one branch-type entry per factor required"),
    (lambda: DoubleCoverSpec(2, (1, -1)), ValueError,
     "branch-type entry -1 is not a nonnegative int"),
    (lambda: DoubleCoverSpec(1, (True,)), ValueError,
     "branch-type entry True is not a nonnegative int"),
    (lambda: DoubleCoverSpec(1, (1001,)), ValueError,
     "branch-type entry 1001 exceeds 1000"),
    (lambda: ProductPoint(2, ((0, 1),)), ValueError,
     "one coordinate pair per factor required"),
    (lambda: ProductPoint(0, ()), ValueError,
     "one coordinate pair per factor required"),
    (lambda: ProductPoint(1, ((0, 1, 2),)), ValueError,
     "coordinate pair (0, 1, 2) must have length 2"),
    (lambda: ProductPoint(1, ((0.5, 1),)), ValueError,
     "float coordinates are not accepted"),
    (lambda: ProductPoint(1, ((0, 0),)), ValueError,
     "a coordinate pair cannot be (0, 0)"),
    (lambda: MultiHomogPoly(0, {}), ValueError, "need at least one factor"),
    (lambda: MultiHomogPoly(1, {(1, 0, 0): 1}), ValueError,
     "exponent tuple (1, 0, 0) must have length 2"),
    (lambda: MultiHomogPoly(1, {(-1, 1): 1}), ValueError,
     "exponents must be nonnegative ints: (-1, 1)"),
    (lambda: MultiHomogPoly(1, {(1, 0): 0.5}), ValueError,
     "float coefficients are not accepted"),
    (lambda: MultiHomogPoly(1, {(1, 0): 1, (2, 0): 1}), ValueError,
     "term (2, 0) has factor degrees (2,), expected (1,)"),
    (lambda: MultiHomogPoly(1, {(1, 0): 1}, multidegree=[1, 1]), ValueError,
     "bad multidegree (1, 1)"),
    (lambda: MultiHomogPoly(1, {(1, 0): 1}, multidegree=[2]), ValueError,
     "terms have multidegree (1,), not (2,)"),
    (lambda: MultiHomogPoly(1, {}), ValueError,
     "the zero polynomial needs an explicit multidegree"),
    (lambda: DoubleCoverSpec(True, [1]), ValueError,
     "factor count must be an integer, got True"),
    (lambda: DoubleCoverSpec("2", [1, 1]), ValueError,
     "factor count must be an integer, got '2'"),
    (lambda: ProductPoint(True, ((0, 1),)), ValueError,
     "factor count must be an integer, got True"),
    (lambda: MultiHomogPoly(True, {(1, 0): 1}), ValueError,
     "factor count must be an integer, got True"),
]


@pytest.mark.parametrize("build, kind, message", REFUSALS,
                         ids=[str(i) for i in range(len(REFUSALS))])
def test_constructors_refuse_bad_values(build, kind, message):
    with pytest.raises(kind) as exc:
        build()
    assert type(exc.value) is kind
    assert str(exc.value) == message

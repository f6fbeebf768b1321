"""What the pencil entry points refuse, and with which exact error.

One table row per refusal of pairing, canonical_degree, is_conic,
orbit_signature, reducible_fibers, FibrationPair, analyze_pair and
hodge_bound: a non-class in each class slot, a class of another model, a
ProductP1 model, a wrong family, a class that is not a conic or not
square-zero, and two equal classes.  The rank rows give the ranks that
contraction_table, the two families, the conic coordinates and the pair
scan refuse: -1, 9, True and 8.0, and 0 for the conic family, its
coordinates and the scan; contraction_table answers rank 0 with an empty
table.  The
product rows give what ProductP1 sizes, the cone reports on them and
top_intersection refuse.  The long-input rows give the one-line
messages of the value constructors, check_class, ConePoly,
max_degree_bound, ProductPoint.scaled, MultiHomogPoly.partial_derivative,
a class multiple, a cone's vectors and a polynomial's exponents for a refused
value of 100 000 characters, entries or digits, and a polynomial's
factor degrees, whose tuples are cut one entry at a time: the 64-factor
mismatch the singular command can read shows them in full.  Each row
gives the exception type and the whole message; the CLI rows give the
exit code and the last stderr line.  Two acceptance tables follow: classes whose models are
equal but distinct objects, and instances of a DivisorClass subclass, get
the same answers as plain classes of one model object.
"""

from types import MappingProxyType, SimpleNamespace

import pytest

from picardkit.cli import main
from picardkit.cones import ConePoly, psef_generators, surface_cone_report
from picardkit.curves import (conic_coords, contraction_table,
                              enumerate_conic, enumerate_exceptional,
                              is_conic, orbit_signature, reducible_fibers)
from picardkit.doublecover import (DoubleCoverSpec, MultiHomogPoly,
                                   ProductPoint, poly_from_json_dict)
from picardkit.fibration import (FibrationPair, analyze_pair,
                                 classify_finite_pairs, hodge_bound,
                                 max_degree_bound, scan_conic_pairs)
from picardkit.lattice import (DivisorClass, SurfaceModel, canonical_degree,
                               check_class, pairing, top_intersection)

M8 = SurfaceModel("BlowupP2", 8)
M7 = SurfaceModel("BlowupP2", 7)
P2 = SurfaceModel("ProductP1", 2)


def cls(model, *coords):
    return DivisorClass(model, coords)


A = cls(M8, 1, -1, 0, 0, 0, 0, 0, 0, 0)     # H - E1, a conic
B = cls(M8, 2, -1, -1, -1, -1, 0, 0, 0, 0)  # a conic meeting A twice
H = cls(M8, 1, 0, 0, 0, 0, 0, 0, 0, 0)      # square 1
E1 = cls(M8, 0, 1, 0, 0, 0, 0, 0, 0, 0)     # square -1
C7 = cls(M7, 1, -1, 0, 0, 0, 0, 0, 0)       # H - E1 on BlowupP2(7)
R1, R2 = cls(P2, 1, 0), cls(P2, 0, 1)       # the two rulings of P1 x P1
F8 = enumerate_exceptional(8)
F7 = enumerate_exceptional(7)
PAIR = FibrationPair(M8, A, B)
T = A.coords
# not a class, though it carries a model and coordinates
DUCK = SimpleNamespace(model=M8, coords=A.coords)
# not a pair, though it carries a model and two conics
DUCK_PAIR = SimpleNamespace(model=M8, c1=A, c2=B)


class BigInt(int):
    """An int subclass, which class multiples refuse."""


def q3():
    """A class of ProductP1(3), which is no model: building it raises."""
    return cls(SurfaceModel("ProductP1", 3), 1, 0, 0)


NOT_A_CLASS = "expected DivisorClass, got tuple"
NOT_IN_M8 = "H - E1 does not live in BlowupP2(8)"
NO_P3 = "ProductP1 needs n = 2, got 3"
LONG = 100_000

# (case, rank, message) for every function that pairs or lists conic classes
CONIC_RANK_REFUSALS = [
    ("below-range", -1, "conic enumeration needs 1 <= r <= 8, got -1"),
    ("zero", 0, "conic enumeration needs 1 <= r <= 8, got 0"),
    ("above-range", 9, "conic enumeration needs 1 <= r <= 8, got 9"),
    ("bool", True, "model size must be an integer, got True"),
    ("float", 8.0, "model size must be an integer, got 8.0"),
]

# two terms on 64 factors, the most the singular command reads, with other
# factor degrees: the message writes out each tuple in full
WIDE = [tuple(k % 3 for k in range(128)), tuple(k % 4 for k in range(128))]
WIDE_DEGREES = [tuple(e[2 * k] + e[2 * k + 1] for k in range(64))
                for e in WIDE]
WIDE_POLY = {"n": 64, "multidegree": [0] * 64,
             "terms": [{"exponents": list(e), "coeff": 1} for e in WIDE]}

# (id, call, exception type, message)
REFUSALS = [
    # a non-class in each class slot
    ("pairing-first-not-a-class", lambda: pairing(T, B),
     TypeError, NOT_A_CLASS),
    ("pairing-second-not-a-class", lambda: pairing(A, T),
     TypeError, NOT_A_CLASS),
    ("pairing-none", lambda: pairing(A, None),
     TypeError, "expected DivisorClass, got NoneType"),
    ("pairing-duck", lambda: pairing(DUCK, A),
     TypeError, "expected DivisorClass, got SimpleNamespace"),
    ("canonical_degree-not-a-class", lambda: canonical_degree(T),
     TypeError, NOT_A_CLASS),
    ("canonical_degree-duck", lambda: canonical_degree(DUCK),
     TypeError, "expected DivisorClass, got SimpleNamespace"),
    ("is_conic-not-a-class", lambda: is_conic(T), TypeError, NOT_A_CLASS),
    ("orbit_signature-not-a-class", lambda: orbit_signature(T),
     TypeError, NOT_A_CLASS),
    ("orbit_signature-duck", lambda: orbit_signature(DUCK),
     TypeError, "expected DivisorClass, got SimpleNamespace"),
    ("reducible_fibers-not-a-class", lambda: reducible_fibers(T, F8),
     TypeError, NOT_A_CLASS),
    ("FibrationPair-c1-not-a-class", lambda: FibrationPair(M8, T, B),
     TypeError, NOT_A_CLASS),
    ("FibrationPair-c2-not-a-class", lambda: FibrationPair(M8, A, T),
     TypeError, NOT_A_CLASS),
    ("FibrationPair-duck", lambda: FibrationPair(M8, DUCK, B),
     TypeError, "expected DivisorClass, got SimpleNamespace"),
    ("analyze_pair-not-a-pair", lambda: analyze_pair(T, F8),
     TypeError, "expected FibrationPair, got tuple"),
    ("analyze_pair-duck", lambda: analyze_pair(DUCK_PAIR),
     TypeError, "expected FibrationPair, got SimpleNamespace"),
    ("hodge_bound-c1-not-a-class", lambda: hodge_bound(M8, T, B),
     TypeError, NOT_A_CLASS),
    ("hodge_bound-c2-not-a-class", lambda: hodge_bound(M8, A, T),
     TypeError, NOT_A_CLASS),
    ("hodge_bound-duck", lambda: hodge_bound(M8, A, DUCK),
     TypeError, "expected DivisorClass, got SimpleNamespace"),
    # a class of another model
    ("pairing-other-model", lambda: pairing(A, C7), ValueError,
     "classes live in different models: BlowupP2(8) vs BlowupP2(7)"),
    ("pairing-other-model-first", lambda: pairing(C7, A), ValueError,
     "classes live in different models: BlowupP2(7) vs BlowupP2(8)"),
    ("FibrationPair-c1-other-model", lambda: FibrationPair(M8, C7, B),
     ValueError, NOT_IN_M8),
    ("FibrationPair-c2-other-model", lambda: FibrationPair(M8, A, C7),
     ValueError, NOT_IN_M8),
    ("hodge_bound-c1-other-model", lambda: hodge_bound(M8, C7, B),
     ValueError, NOT_IN_M8),
    ("hodge_bound-c2-other-model", lambda: hodge_bound(M8, A, C7),
     ValueError, NOT_IN_M8),
    # a ProductP1 model
    ("pairing-product", lambda: pairing(q3(), q3()), ValueError, NO_P3),
    ("canonical_degree-product", lambda: canonical_degree(q3()),
     ValueError, NO_P3),
    ("is_conic-product", lambda: is_conic(q3()), ValueError, NO_P3),
    ("orbit_signature-product", lambda: orbit_signature(R1),
     ValueError, "multiplicities only make sense on BlowupP2"),
    ("reducible_fibers-product", lambda: reducible_fibers(R1, F8),
     ValueError, "reducible_fibers needs a BlowupP2 model, got ProductP1(2)"),
    ("FibrationPair-product", lambda: FibrationPair(P2, R1, R2),
     ValueError, "fibration pairs need a BlowupP2 model, got ProductP1(2)"),
    ("hodge_bound-product", lambda: hodge_bound(P2, R1, R2),
     ValueError, "hodge_bound needs a BlowupP2 model"),
    # a wrong family
    ("reducible_fibers-wrong-family", lambda: reducible_fibers(A, F7),
     ValueError,
     "reducible_fibers needs the exceptional family of the class's model"),
    ("analyze_pair-wrong-family", lambda: analyze_pair(PAIR, F7),
     ValueError, "analyze_pair needs the exceptional family of the pair's "
                 "model"),
    ("analyze_pair-family-as-list", lambda: analyze_pair(PAIR, list(F8)),
     ValueError, "analyze_pair needs the exceptional family of the pair's "
                 "model"),
    # not a conic, or not square-zero
    ("reducible_fibers-not-a-conic", lambda: reducible_fibers(E1, F8),
     ValueError, "E1 is not a conic fibration class"),
    ("FibrationPair-c1-not-a-conic", lambda: FibrationPair(M8, H, B),
     ValueError, "H is not a conic fibration class"),
    ("FibrationPair-c2-not-a-conic", lambda: FibrationPair(M8, A, E1),
     ValueError, "E1 is not a conic fibration class"),
    ("hodge_bound-c1-not-square-zero", lambda: hodge_bound(M8, H, B),
     ValueError, "H is not square-zero"),
    ("hodge_bound-c2-not-square-zero", lambda: hodge_bound(M8, A, E1),
     ValueError, "E1 is not square-zero"),
    # two equal classes
    ("FibrationPair-same-class", lambda: FibrationPair(M8, A, A),
     ValueError, "fibration pair needs two distinct classes"),
    ("FibrationPair-equal-classes",
     lambda: FibrationPair(M8, A, DivisorClass(M8, A.coords)),
     ValueError, "fibration pair needs two distinct classes"),
    # a rank that is no BlowupP2 model's
    ("contraction_table-below-range", lambda: contraction_table(-1),
     ValueError, "BlowupP2 needs 0 <= r <= 8, got -1"),
    ("contraction_table-above-range", lambda: contraction_table(9),
     ValueError, "BlowupP2 needs 0 <= r <= 8, got 9"),
    ("contraction_table-bool", lambda: contraction_table(True),
     ValueError, "model size must be an integer, got True"),
    ("contraction_table-float", lambda: contraction_table(8.0),
     ValueError, "model size must be an integer, got 8.0"),
    ("enumerate_exceptional-below-range", lambda: enumerate_exceptional(-1),
     ValueError, "BlowupP2 needs 0 <= r <= 8, got -1"),
    ("enumerate_exceptional-above-range", lambda: enumerate_exceptional(9),
     ValueError, "BlowupP2 needs 0 <= r <= 8, got 9"),
    ("enumerate_exceptional-bool", lambda: enumerate_exceptional(True),
     ValueError, "model size must be an integer, got True"),
    ("enumerate_exceptional-float", lambda: enumerate_exceptional(8.0),
     ValueError, "model size must be an integer, got 8.0"),
    *[(f"{name}-{case}", lambda f=f, r=r: f(r), ValueError, message)
      for name, f in [("conic_coords", conic_coords),
                      ("enumerate_conic", enumerate_conic),
                      ("scan_conic_pairs", scan_conic_pairs),
                      ("classify_finite_pairs", classify_finite_pairs)]
      for case, r, message in CONIC_RANK_REFUSALS],
    # ProductP1 sizes, the cone reports on them, and top_intersection
    ("SurfaceModel-product-zero", lambda: SurfaceModel("ProductP1", 0),
     ValueError, "ProductP1 needs n = 2, got 0"),
    ("SurfaceModel-product-negative", lambda: SurfaceModel("ProductP1", -1),
     ValueError, "ProductP1 needs n = 2, got -1"),
    ("psef_generators-product-1",
     lambda: psef_generators(SurfaceModel("ProductP1", 1)),
     ValueError, "ProductP1 needs n = 2, got 1"),
    ("psef_generators-product-3",
     lambda: psef_generators(SurfaceModel("ProductP1", 3)),
     ValueError, NO_P3),
    ("surface_cone_report-product-1",
     lambda: surface_cone_report(SurfaceModel("ProductP1", 1)),
     ValueError, "ProductP1 needs n = 2, got 1"),
    ("surface_cone_report-product-3",
     lambda: surface_cone_report(SurfaceModel("ProductP1", 3)),
     ValueError, NO_P3),
    ("top_intersection-arity",
     lambda: top_intersection([(1, 0, 0), (0, 1, 0)]),
     ValueError, "top_intersection needs 2 rows of 2 integers, "
                 "got (1, 0, 0)"),
    ("top_intersection-classes-not-rows",
     lambda: top_intersection([R1, R2]),
     TypeError, "'DivisorClass' object is not iterable"),
    ("top_intersection-size", lambda: top_intersection([(1,) * 21] * 21),
     ValueError, "permanent of a 21 x 21 matrix: at most 20 rows are "
                 "supported"),
    ("top_intersection-not-square",
     lambda: top_intersection([(1, 0), (0, 1), (1, 1)]),
     ValueError, "top_intersection needs 3 rows of 3 integers, got (1, 0)"),
    ("top_intersection-bool", lambda: top_intersection([(1, True), (0, 1)]),
     ValueError, "top_intersection needs 2 rows of 2 integers, "
                 "got (1, True)"),
    ("top_intersection-float", lambda: top_intersection([(1, 0), (1.0, 1)]),
     ValueError, "top_intersection needs 2 rows of 2 integers, "
                 "got (1.0, 1)"),
    # a refused value of LONG characters or entries
    ("SurfaceModel-long-size", lambda: SurfaceModel("BlowupP2", "x" * LONG),
     ValueError, "model size must be an integer, got 'xxxxxxxxxxxxxxxxxxx..."),
    ("SurfaceModel-long-kind", lambda: SurfaceModel("y" * LONG, 2),
     ValueError, "unknown model kind 'yyyyyyyyyyyyyyyyyyy..."),
    ("DoubleCoverSpec-long-entry", lambda: DoubleCoverSpec(1, ["x" * LONG]),
     ValueError,
     "branch-type entry 'xxxxxxxxxxxxxxxxxxx... is not a nonnegative int"),
    ("ProductPoint-long-pair", lambda: ProductPoint(1, [[0] * LONG]),
     ValueError, "coordinate pair [0, 0, 0, 0, 0, 0, 0... must have length 2"),
    ("ConePoly-long-dimension", lambda: ConePoly("z" * LONG, [(1,)]),
     ValueError, "ambient dimension must be a nonnegative integer, "
                 "got 'zzzzzzzzzzzzzzzzzzz..."),
    ("max_degree_bound-long-rank", lambda: max_degree_bound("q" * LONG),
     ValueError, "need 1 <= r <= 8, got 'qqqqqqqqqqqqqqqqqqq..."),
    ("ProductPoint-long-factor",
     lambda: ProductPoint.of([(1, 1)]).scaled("f" * LONG, 1),
     ValueError, "factor 'fffffffffffffffffff... is not in 0..0"),
    ("MultiHomogPoly-long-variable",
     lambda: MultiHomogPoly(1, {(1, 0): 1}).partial_derivative("v" * LONG),
     ValueError, "variable index 'vvvvvvvvvvvvvvvvvvv... out of range"),
    ("check_class-long-model", lambda: check_class(H, "x" * LONG),
     ValueError, "H does not live in 'xxxxxxxxxxxxxxxxxxx..."),
    # an int past 4300 digits has no repr, so the message names it
    ("DivisorClass-long-multiple", lambda: E1 * BigInt(10 ** LONG),
     ValueError, "class multiples must be integers, got (a very long "
                 "integer)"),
    ("ConePoly-long-vector", lambda: ConePoly(1, [(0,) * LONG]),
     ValueError, "vector (0, 0, 0, 0, 0, 0, 0... does not have dimension 1"),
    ("MultiHomogPoly-long-exponents",
     lambda: MultiHomogPoly(1, {(0,) * LONG: 1}),
     ValueError, "exponent tuple (0, 0, 0, 0, 0, 0, 0... must have length 2"),
    ("MultiHomogPoly-long-exponent",
     lambda: MultiHomogPoly(1, {("e" * LONG, 0): 1}),
     ValueError, "exponents must be nonnegative ints: ('eeeeeeeeeeeeeeeeee..."),
    ("MultiHomogPoly-huge-exponent",
     lambda: MultiHomogPoly(1, {(-10 ** LONG, 0): 1}),
     ValueError, "exponents must be nonnegative ints: (a very long integer)"),
    ("poly_from_json_dict-64-factor-mismatch",
     lambda: poly_from_json_dict(WIDE_POLY),
     ValueError, f"term {WIDE[1]} has factor degrees {WIDE_DEGREES[1]}, "
                 f"expected {WIDE_DEGREES[0]}"),
    # each tuple cut one entry at a time
    ("MultiHomogPoly-huge-degree",
     lambda: MultiHomogPoly(1, {(10 ** LONG, 0): 1, (1, 0): 1}),
     ValueError, "term (1, 0) has factor degrees (1,), expected ((a very "
                 "long integer),)"),
]


@pytest.mark.parametrize("call, error, message",
                         [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


# (id, argv, last stderr line); each exits 2
CLI_REFUSALS = [
    ("cones-product-rank-1", ["cones", "product", "--rank", "1"],
     "picardkit: error: ProductP1 needs n = 2, got 1"),
    ("cones-product-rank-3", ["cones", "product", "--rank", "3"],
     "picardkit: error: ProductP1 needs n = 2, got 3"),
]


@pytest.mark.parametrize("argv, line", [row[1:] for row in CLI_REFUSALS],
                         ids=[row[0] for row in CLI_REFUSALS])
def test_cli_refusal(capsys, argv, line):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line


def test_contraction_table_at_rank_zero_is_empty():
    # P^2 has no exceptional class and no conic class
    fam, masks = contraction_table(0)
    assert fam == () and dict(masks) == {}
    assert type(masks) is MappingProxyType


class SubClass(DivisorClass):
    """A DivisorClass subclass, which every entry point accepts."""


def answers(model, a, b):
    """Every entry point's answer on the conics a, b of model, as plain
    data: a class is read through its coordinates."""
    pair = FibrationPair(model, a, b)
    return {
        "pairing": (pairing(a, b), pairing(b, a), pairing(a, a)),
        "canonical_degree": (canonical_degree(a), canonical_degree(b)),
        "is_conic": (is_conic(a), is_conic(b), is_conic(a + b)),
        "orbit_signature": (orbit_signature(a), orbit_signature(b)),
        "reducible_fibers": [(f.total.coords, f.components)
                             for f in reducible_fibers(a, F8)],
        "FibrationPair": (pair.model, pair.c1.coords, pair.c2.coords),
        "analyze_pair": (analyze_pair(pair), analyze_pair(pair, F8)),
        "hodge_bound": hodge_bound(model, a, b),
    }


# (id, model passed to FibrationPair and hodge_bound, first, second class)
ACCEPTED = [
    ("equal-distinct-models", SurfaceModel("BlowupP2", 8),
     cls(SurfaceModel("BlowupP2", 8), *A.coords),
     cls(SurfaceModel("BlowupP2", 8), *B.coords)),
    ("equal-distinct-model-of-pair", SurfaceModel("BlowupP2", 8), A, B),
    ("subclass-first", M8, SubClass(M8, A.coords), B),
    ("subclass-second", M8, A, SubClass(M8, B.coords)),
    ("subclass-both", M8, SubClass(M8, A.coords), SubClass(M8, B.coords)),
]


@pytest.mark.parametrize("model, a, b", [row[1:] for row in ACCEPTED],
                         ids=[row[0] for row in ACCEPTED])
def test_accepted_like_plain_classes_of_one_model(model, a, b):
    assert answers(model, a, b) == answers(M8, A, B)

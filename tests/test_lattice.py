from enum import IntEnum
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, strategies as st

from _oracles import adjunction_genus
from picardkit import lattice
from picardkit.lattice import (
    DOT_LIMIT,
    FIELD_BITS,
    MAX_PERMANENT_SIZE,
    DivisorClass,
    SurfaceModel,
    canonical_class,
    canonical_degree,
    dense_mask,
    fields_at_least,
    is_exact_int,
    packed_dots,
    pairing,
    pairing_vector,
    top_intersection,
    zero_fields,
    zero_masks,
)

DP7 = SurfaceModel.blowup_p2(7)


def cls(model, *coords):
    return DivisorClass(model, tuple(coords))


def test_model_validation():
    with pytest.raises(ValueError):
        SurfaceModel.blowup_p2(9)
    with pytest.raises(ValueError):
        SurfaceModel.blowup_p2(-1)
    with pytest.raises(ValueError):
        SurfaceModel.product_p1(0)
    for n in (1, 3):
        with pytest.raises(ValueError, match=f"n = 2, got {n}"):
            SurfaceModel.product_p1(n)
    assert SurfaceModel.blowup_p2(3).rank == 4
    assert SurfaceModel.product_p1(2).rank == 2
    assert SurfaceModel.blowup_p2(2).basis_labels == ("H", "E1", "E2")


@pytest.mark.parametrize("size", [True, 2.0, Fraction(2), "2", None])
def test_model_size_must_be_an_exact_int(size):
    # True == 1 and hash(True) == hash(1): such a model would compare
    # equal to BlowupP2(1) and print as BlowupP2(True)
    for kind in ("BlowupP2", "ProductP1"):
        with pytest.raises(ValueError, match="must be an integer"):
            SurfaceModel(kind, size)


def test_canonical_class_is_built_once_per_model():
    k1 = canonical_class(SurfaceModel.blowup_p2(1))
    assert canonical_class(SurfaceModel("BlowupP2", 1)) == k1
    assert str(k1.model) == "BlowupP2(1)"
    assert canonical_class(SurfaceModel.product_p1(2)) is not k1


def test_divisor_class_validation():
    with pytest.raises(ValueError):
        cls(DP7, 1, 2)  # wrong length
    with pytest.raises(ValueError):
        DivisorClass(DP7, (Fraction(1, 2),) * 8)  # non-integer entries
    with pytest.raises(ValueError):
        DivisorClass(SurfaceModel.blowup_p2(1), (True, False))  # not H


class One(IntEnum):
    ONE = 1


def test_bulk_coordinate_check_is_is_exact_int():
    # DivisorClass and from_curve test every entry at once; each must
    # accept exactly what is_exact_int accepts
    m1 = SurfaceModel.blowup_p2(1)
    for x in (1, True, One.ONE, 1.0, Fraction(1), "1"):
        exact = is_exact_int(x)
        assert exact == (type(x) is int)
        for build in (lambda: DivisorClass(m1, (x, 0)),
                      lambda: DivisorClass(m1, (0, x)),
                      lambda: DivisorClass.from_curve(m1, 1, (x,))):
            if exact:
                assert build().coords in ((1, 0), (0, 1), (1, -1))
            else:
                with pytest.raises(ValueError, match="must be integers"):
                    build()


def test_only_plain_classes_of_one_model_object_skip_the_fallback(
        monkeypatch):
    calls = []

    def counted(check):
        def wrapper(*args):
            calls.append(check.__name__)
            return check(*args)
        return wrapper

    for name in ("check_class", "_same_model"):
        monkeypatch.setattr(lattice, name, counted(getattr(lattice, name)))

    class Sub(DivisorClass):
        pass

    a, b = cls(DP7, 1, -1, 0, 0, 0, 0, 0, 0), cls(DP7, 1, 0, -1, 0, 0, 0, 0, 0)
    assert (pairing(a, b), canonical_degree(a)) == (1, -2)
    assert calls == []
    twin = SurfaceModel.blowup_p2(7)  # equal to DP7, not the same object
    assert pairing(a, DivisorClass(twin, b.coords)) == 1
    assert calls == ["_same_model", "check_class", "check_class"]
    calls.clear()
    sub = Sub(DP7, b.coords)
    assert (pairing(a, sub), pairing(sub, a), canonical_degree(sub)) == (
        1, 1, -2)
    assert calls == (["_same_model", "check_class", "check_class"] * 2
                     + ["check_class"])


def test_cross_model_classes_never_equal():
    a = cls(SurfaceModel.blowup_p2(1), 1, 0)
    b = cls(SurfaceModel.product_p1(2), 1, 0)
    assert a != b
    assert a == cls(SurfaceModel.blowup_p2(1), 1, 0)


def test_arithmetic_refuses_other_models_and_non_classes():
    a = cls(SurfaceModel.blowup_p2(1), 1, 0)
    other = (cls(SurfaceModel.blowup_p2(2), 1, 0, 0),
             cls(SurfaceModel.product_p1(2), 1, 0))
    for b in other:
        with pytest.raises(ValueError, match="different models"):
            a + b
        with pytest.raises(ValueError, match="different models"):
            a - b
    for b in ((1, 0), 1, None):
        with pytest.raises(TypeError, match="expected DivisorClass"):
            a + b
        with pytest.raises(TypeError, match="expected DivisorClass"):
            a - b


def test_from_curve_and_multiplicities_roundtrip():
    c = DivisorClass.from_curve(DP7, 3, (0, 1, 1, 1, 1, 1, 2))
    assert c.coords == (3, 0, -1, -1, -1, -1, -1, -2)
    assert c.degree == 3
    assert c.multiplicities() == (0, 1, 1, 1, 1, 1, 2)
    # padding
    assert DivisorClass.from_curve(DP7, 1, (1,)).coords == (1, -1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="must be integers"):
        DivisorClass.from_curve(DP7, 1, (True,))


def test_pairing_examples():
    k7 = canonical_class(DP7)
    assert k7.coords == (-3, 1, 1, 1, 1, 1, 1, 1)
    assert pairing(k7, k7) == 2

    dp3 = SurfaceModel.blowup_p2(3)
    h = cls(dp3, 1, 0, 0, 0)
    assert pairing(h, h) == 1

    c1 = DivisorClass.from_curve(DP7, 1, (1,))
    c2 = DivisorClass.from_curve(DP7, 3, (0, 1, 1, 1, 1, 1, 2))
    assert pairing(c1, c2) == 3


def test_pairing_errors():
    a = cls(SurfaceModel.blowup_p2(1), 1, 0)
    b = cls(SurfaceModel.blowup_p2(2), 1, 0, 0)
    with pytest.raises(ValueError):
        pairing(a, b)
    # P1 x P1 and BlowupP2(1) have the same rank, but not the same form
    p2 = SurfaceModel.product_p1(2)
    with pytest.raises(ValueError):
        pairing(cls(p2, 1, 0), a)
    # a non-class is refused alike in either slot
    for args in ((a, (1, 0)), ((1, 0), a)):
        with pytest.raises(TypeError, match="expected DivisorClass, got tuple"):
            pairing(*args)


def test_hyperbolic_pairing_on_p1xp1():
    p2 = SurfaceModel.product_p1(2)
    h1, h2 = cls(p2, 1, 0), cls(p2, 0, 1)
    assert pairing(h1, h2) == 1
    assert pairing(h1, h1) == 0
    k = canonical_class(p2)
    assert pairing(k, k) == 8


def test_canonical_class_examples():
    assert canonical_class(SurfaceModel.blowup_p2(0)).coords == (-3,)
    k8 = canonical_class(SurfaceModel.blowup_p2(8))
    assert k8.coords == (-3,) + (1,) * 8
    assert pairing(k8, k8) == 1
    assert canonical_class(SurfaceModel.product_p1(2)).coords == (-2, -2)


def test_k_squared_is_nine_minus_r():
    for r in range(9):
        m = SurfaceModel.blowup_p2(r)
        k = canonical_class(m)
        assert pairing(k, k) == 9 - r


def test_adjunction_genus_examples():
    dp2 = SurfaceModel.blowup_p2(2)
    e1 = cls(dp2, 0, 1, 0)
    assert adjunction_genus(e1) == 0

    ruling = DivisorClass.from_curve(DP7, 1, (1,))
    assert adjunction_genus(ruling) == 0

    minus_k = -canonical_class(DP7)
    assert adjunction_genus(minus_k) == 1


def test_top_intersection_examples():
    d = (1, 1)
    assert top_intersection([d, d]) == 2

    t = (1, 1, 1)
    assert top_intersection([t, t, t]) == 6

    q = (2, 1)
    assert top_intersection([q, q]) == 4


def test_top_intersection_errors():
    t = (1, 1, 1)
    with pytest.raises(ValueError):
        top_intersection([t, t])  # arity
    with pytest.raises(TypeError):
        # a class is not a row
        top_intersection([cls(SurfaceModel.blowup_p2(2), 1, 1, 1)] * 3)


def test_top_intersection_size_limit():
    n = MAX_PERMANENT_SIZE + 1
    ones = (1,) * n
    # rejected before any of the 2^n Ryser steps
    with pytest.raises(ValueError, match="at most"):
        top_intersection([ones] * n)


def test_top_intersection_matches_leibniz_expansion():
    # the permanent summed over all 4! permutations, against Ryser's formula
    rows = [(2, -1, 0, 3), (1, 1, -2, 0), (0, 3, 1, -1), (-2, 0, 1, 1)]
    leibniz = sum(prod(rows[i][p[i]] for i in range(4))
                  for p in permutations(range(4)))
    assert top_intersection(rows) == leibniz


coords7 = st.tuples(*[st.integers(-9, 9)] * 8)


@given(coords7, coords7, coords7, st.integers(-4, 4), st.integers(-4, 4))
def test_pairing_symmetric_bilinear(xa, xb, xc, s, t):
    a, b, c = cls(DP7, *xa), cls(DP7, *xb), cls(DP7, *xc)
    assert pairing(a, b) == pairing(b, a)
    assert pairing(s * a + t * b, c) == s * pairing(a, c) + t * pairing(b, c)


models = st.one_of(st.integers(0, 8).map(SurfaceModel.blowup_p2),
                  st.just(SurfaceModel.product_p1(2)))


def _checked(c):
    """c rebuilt through the validating constructor, which raises unless
    its coordinates are exact ints of the model's length."""
    assert type(c) is DivisorClass
    return DivisorClass(c.model, c.coords)


@given(models, st.integers(), st.data())
def test_derived_classes_are_valid_classes(model, k, data):
    vec = st.tuples(*[st.integers()] * model.rank)
    a, b = cls(model, *data.draw(vec)), cls(model, *data.draw(vec))
    for got, coords in (
            (a + b, [x + y for x, y in zip(a.coords, b.coords)]),
            (a - b, [x - y for x, y in zip(a.coords, b.coords)]),
            (-a, [-x for x in a.coords]),
            (k * a, [k * x for x in a.coords]),
            (a * k, [k * x for x in a.coords])):
        assert _checked(got) == got == cls(model, *coords)
        assert hash(got) == hash(cls(model, *coords))


def test_multiple_by_an_int_subclass_is_checked():
    class Halved(int):
        def __mul__(self, other):
            if type(other) is not int:
                return NotImplemented
            return Fraction(int(self) * other, 2)

    a = cls(DP7, *range(8))
    assert a * 2 == cls(DP7, *range(0, 16, 2))
    with pytest.raises(ValueError, match="must be integers"):
        a * Halved(3)
    with pytest.raises(ValueError, match="must be integers"):
        Halved(3) * a
    with pytest.raises(ValueError, match="must be integers"):
        a * True
    with pytest.raises(ValueError, match="must be integers"):
        True * a


# every model with a surface pairing: BlowupP2(0..8) and ProductP1(2)
surface_models = st.one_of(st.integers(0, 8).map(SurfaceModel.blowup_p2),
                           st.just(SurfaceModel.product_p1(2)))


@given(surface_models, st.data())
def test_pairing_vector_dots_to_pairing(model, data):
    vec = st.tuples(*[st.integers(-9, 9)] * model.rank)
    a, b = cls(model, *data.draw(vec)), cls(model, *data.draw(vec))
    assert (sum(u * v for u, v in zip(pairing_vector(a), b.coords))
            == pairing(a, b))


@given(surface_models, st.data())
def test_canonical_degree_is_k_dot_c(model, data):
    c = cls(model, *data.draw(st.tuples(*[st.integers(-9, 9)] * model.rank)))
    assert canonical_degree(c) == pairing(canonical_class(model), c)


def test_canonical_degree_examples_and_errors():
    assert canonical_degree(canonical_class(DP7)) == 2
    assert canonical_degree(DivisorClass.from_curve(DP7, 1, (1,))) == -2
    assert canonical_degree(cls(SurfaceModel.product_p1(2), 1, 0)) == -2
    with pytest.raises(ValueError, match="ProductP1 needs n = 2, got 3"):
        canonical_degree(cls(SurfaceModel.product_p1(3), 1, 0, 0))
    with pytest.raises(TypeError):
        canonical_degree((1, 0))


def test_pairing_vector_examples_and_errors():
    assert pairing_vector(cls(DP7, 3, 0, -1, -1, -1, -1, -1, -2)) == \
        (3, 0, 1, 1, 1, 1, 1, 2)
    assert pairing_vector(cls(SurfaceModel.product_p1(2), 1, 2)) == (2, 1)
    with pytest.raises(ValueError, match="ProductP1 needs n = 2, got 3"):
        pairing_vector(cls(SurfaceModel.product_p1(3), 1, 0, 0))
    with pytest.raises(TypeError, match="expected DivisorClass, got tuple"):
        pairing_vector((1, 0))


@given(st.integers(1, 5), st.data())
def test_top_intersection_permutation_symmetric(n, data):
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n))
    base = top_intersection(rows)
    perm = data.draw(st.permutations(rows))
    assert top_intersection(perm) == base


@given(st.integers(1, 5), st.data())
def test_top_intersection_column_permutation_symmetric(n, data):
    # relabelling the factors of (P^1)^n permutes every row alike
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(n)))
    assert top_intersection([[row[j] for j in order] for row in rows]) == \
        top_intersection(rows)


@given(st.integers(1, 6), st.data())
def test_top_intersection_equal_rows_formula(n, data):
    a = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    expect = 1
    for v in a:
        expect *= v
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    assert top_intersection([a] * n) == fact * expect


@given(st.integers(1, 5), st.data())
def test_top_intersection_multilinear_first_slot(n, data):
    draw_vec = st.tuples(*[st.integers(-3, 3)] * n)
    rest = [data.draw(draw_vec) for _ in range(n - 1)]
    u = data.draw(draw_vec)
    v = data.draw(draw_vec)
    s = data.draw(st.integers(-3, 3))
    t = data.draw(st.integers(-3, 3))
    lhs = top_intersection([[s * x + t * y for x, y in zip(u, v)]] + rest)
    rhs = (s * top_intersection([u] + rest)
           + t * top_intersection([v] + rest))
    assert lhs == rhs


def _fields(packed, n):
    """The n fields of a packed int, each less the offset 2^(FIELD_BITS-1)."""
    full = (1 << FIELD_BITS) - 1
    return [(packed >> (FIELD_BITS * i) & full) - (1 << (FIELD_BITS - 1))
            for i in range(n)]


def _marked(packed, n):
    """The fields whose top bit is set."""
    return [i for i in range(n)
            if packed >> (FIELD_BITS * (i + 1) - 1) & 1]


@given(st.data())
def test_packed_dots_are_the_dot_products(data):
    width = data.draw(st.integers(1, 9))
    top = data.draw(st.integers(0, 40))
    # a drawn bound on the vectors too, so that small dots, 0 and 1
    # among them, come often; every dot stays below DOT_LIMIT:
    # 40 * 45 * 9 < 2^14
    reach = data.draw(st.integers(0, 45))
    entry = st.integers(-top, top)
    rows = data.draw(st.lists(st.tuples(*[entry] * width), max_size=30))
    vectors = data.draw(st.lists(
        st.tuples(*[st.integers(-reach, reach)] * width), max_size=5))
    ones, dots = packed_dots(rows, vectors)
    dots = list(dots)
    n = len(rows)
    assert len(dots) == len(vectors)
    assert ones == sum(1 << (FIELD_BITS * i) for i in range(n))
    highs = ones << (FIELD_BITS - 1)
    t = data.draw(st.integers(-DOT_LIMIT, DOT_LIMIT))
    for v, d in zip(vectors, dots):
        want = [sum(a * b for a, b in zip(v, row)) for row in rows]
        assert _fields(d, n) == want
        assert d >> (FIELD_BITS * n) == 0
        # the threshold and zero tests the helper documents
        assert _marked((d - t * ones) & highs, n) == \
            [i for i, x in enumerate(want) if x >= t]
        assert _marked(d & highs & ~(d - ones), n) == \
            [i for i, x in enumerate(want) if x == 0]
        # the helpers that hold those tests, as row bitmasks
        assert dense_mask(fields_at_least(d, ones, t), n) == \
            sum(1 << i for i, x in enumerate(want) if x >= t)
        assert dense_mask(zero_fields(d, ones), n) == \
            sum(1 << i for i, x in enumerate(want) if x == 0)
    assert zero_masks(rows, vectors) == \
        [sum(1 << i for i, row in enumerate(rows)
             if sum(a * b for a, b in zip(v, row)) == 0) for v in vectors]


def test_packed_dots_refuse_dots_past_the_field_width():
    # the bound comes from the coordinates: max |row entry| * max |vector
    # entry| * columns, which must stay below DOT_LIMIT = 2^14
    assert DOT_LIMIT == 1 << (FIELD_BITS - 2)
    edge = DOT_LIMIT - 1
    ones, dots = packed_dots([(edge,), (-edge,), (0,)], [(1,), (-1,)])
    assert [_fields(d, 3) for d in dots] == [[edge, -edge, 0],
                                             [-edge, edge, 0]]
    # the zero test at the edges of the width, and next to 0
    assert zero_masks([(edge,), (-edge,), (0,), (1,), (-1,)], [(1,)]) \
        == [0b100]
    for rows, vectors, reach in [
            ([(DOT_LIMIT,)], [(1,)], DOT_LIMIT),
            ([(1 << 7,)], [(-(1 << 7),)], DOT_LIMIT),
            # the dot itself is 0, but the coordinates allow 2^14
            ([(64, 64)], [(-128, 128)], DOT_LIMIT),
            ([(11,) * 9] * 3, [(200,) * 9], 11 * 200 * 9)]:
        with pytest.raises(ValueError) as caught:
            packed_dots(rows, vectors)
        assert str(caught.value) == \
            f"dot products up to {reach} do not fit 16-bit fields"


def test_packed_dots_refuse_rows_and_vectors_of_different_lengths():
    with pytest.raises(ValueError) as caught:
        packed_dots([(1, 2), (3, 4)], [(1, 2), (1, 2, 3)])
    assert str(caught.value) == "rows and vectors of lengths [2, 3]"


def test_packed_dots_of_nothing():
    ones, dots = packed_dots([], [(1, 2)])
    assert ones == 0 and list(dots) == [0]
    assert zero_masks([], [(1, 2)]) == [0]
    ones, dots = packed_dots([(1, 2)], [])
    assert ones == 1 and list(dots) == []

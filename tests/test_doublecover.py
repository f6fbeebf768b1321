from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import fraction_cover_singular_at
from picardkit.doublecover import (
    MAX_BRANCH_ENTRY,
    MAX_COEFF_DIGITS,
    MAX_FACTORS,
    MAX_POLY_DEGREE,
    MAX_POLY_TERMS,
    DoubleCoverSpec,
    MultiHomogPoly,
    ProductPoint,
    anticanonical_power,
    cover_singular_at,
    expected_picard_number,
    is_fano,
    parse_rational,
    poly_from_json_dict,
)
from picardkit.lattice import top_intersection

# branch divisor of type (2, 2, 2) with exactly the origin-like point
# (0:1) x (0:1) x (0:1) as a singular point of interest
BRANCH = MultiHomogPoly(3, {
    (2, 0, 2, 0, 0, 2): 1,
    (0, 2, 0, 2, 2, 0): 1,
    (1, 1, 0, 2, 1, 1): 1,
    (0, 2, 1, 1, 1, 1): 1,
})

P_SING = ProductPoint.of([(0, 1), (0, 1), (0, 1)])


# --- numerical invariants ----------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        DoubleCoverSpec(2, (1,))
    with pytest.raises(ValueError):
        DoubleCoverSpec.of([1, -1])
    with pytest.raises(ValueError):
        DoubleCoverSpec.of([True, 1])
    with pytest.raises(ValueError):
        DoubleCoverSpec(0, ())


def test_spec_size_bounds():
    DoubleCoverSpec.of([1] * MAX_FACTORS)
    DoubleCoverSpec.of([MAX_BRANCH_ENTRY, 0])
    with pytest.raises(ValueError, match="at most"):
        DoubleCoverSpec.of([1] * (MAX_FACTORS + 1))
    with pytest.raises(ValueError, match="exceeds"):
        DoubleCoverSpec.of([MAX_BRANCH_ENTRY + 1, 0])
    # the largest supported power prints without Python's digit limit
    worst = DoubleCoverSpec.of([MAX_BRANCH_ENTRY] * MAX_FACTORS)
    assert len(str(anticanonical_power(worst))) < 4300


def test_is_fano_examples():
    assert is_fano(DoubleCoverSpec.of([1, 1]))
    assert is_fano(DoubleCoverSpec.of([0, 0]))
    assert is_fano(DoubleCoverSpec.of([0, 1, 1, 1]))
    assert not is_fano(DoubleCoverSpec.of([1, 2]))
    assert not is_fano(DoubleCoverSpec.of([3, 0, 0]))


def test_anticanonical_power_examples():
    assert anticanonical_power(DoubleCoverSpec.of([1, 1])) == 4
    assert anticanonical_power(DoubleCoverSpec.of([1, 1, 1])) == 12
    assert anticanonical_power(DoubleCoverSpec.of([0, 0])) == 16


def test_anticanonical_power_all_ones():
    for n in range(1, 7):
        assert anticanonical_power(DoubleCoverSpec.of([1] * n)) == 2 * factorial(n)


def test_anticanonical_power_degenerate_types():
    assert anticanonical_power(DoubleCoverSpec.of([2, 1])) == 0
    assert anticanonical_power(DoubleCoverSpec.of([3, 1])) == -4


def test_threefold_anticanonical_sections():
    # h^0(-K) = (-K)^3 / 2 + 3 for the threefold cover of type (2, 2, 2)
    assert anticanonical_power(DoubleCoverSpec.of([1, 1, 1])) // 2 + 3 == 9


def test_expected_picard_number():
    assert expected_picard_number(DoubleCoverSpec.of([1, 1, 1])) == 3
    assert expected_picard_number(DoubleCoverSpec.of([1, 1, 1, 1])) == 4
    assert expected_picard_number(DoubleCoverSpec.of([1, 1])) is None
    assert expected_picard_number(DoubleCoverSpec.of([0, 1, 1])) is None


def test_fano_iff_positive_anticanonical_power_small_types():
    for n in range(1, 5):
        for ds in product((0, 1, 2), repeat=n):
            spec = DoubleCoverSpec.of(list(ds))
            assert is_fano(spec) == (anticanonical_power(spec) > 0)


def test_closed_form_agrees_with_top_intersection():
    # the closed form against the permanent route, on every type in
    # {0..3}^n for n <= 5
    for n in range(1, 6):
        for ds in product(range(4), repeat=n):
            minus_k = tuple(2 - d for d in ds)
            assert anticanonical_power(DoubleCoverSpec.of(list(ds))) == \
                2 * top_intersection([minus_k] * n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5), st.randoms())
def test_anticanonical_power_symmetric(ds, rng):
    shuffled = ds[:]
    rng.shuffle(shuffled)
    assert anticanonical_power(DoubleCoverSpec.of(ds)) == \
        anticanonical_power(DoubleCoverSpec.of(shuffled))


# --- polynomials --------------------------------------------------------------

def test_multidegree_inferred_and_checked():
    assert BRANCH.multidegree == (2, 2, 2)
    with pytest.raises(ValueError):
        MultiHomogPoly(2, {(1, 0, 1, 0): 1, (2, 0, 1, 0): 1})
    with pytest.raises(ValueError):
        MultiHomogPoly(2, {(1, 0, 1, 0): 1}, multidegree=(2, 1))
    with pytest.raises(ValueError):
        MultiHomogPoly(2, {})  # zero polynomial needs a declared multidegree
    zero = MultiHomogPoly(2, {}, multidegree=(1, 1))
    assert not zero.terms and zero.multidegree == (1, 1)


def test_float_coefficients_rejected():
    with pytest.raises(ValueError):
        MultiHomogPoly(1, {(1, 0): 0.5})


def test_terms_are_read_only():
    pt = ProductPoint.of([(1, 2), (1, 1), (3, 1)])
    before = BRANCH.evaluate(pt)
    with pytest.raises(TypeError):
        BRANCH.terms[(2, 0, 2, 0, 0, 2)] = 5
    assert BRANCH.evaluate(pt) == before


def test_equal_polynomials_hash_equal():
    a = MultiHomogPoly(1, {(2, 0): 1, (0, 2): Fraction(1, 2)})
    # other insertion order, an unreduced coefficient, a zero term
    b = MultiHomogPoly(1, {(1, 1): 0, (0, 2): Fraction(2, 4), (2, 0): 1})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, MultiHomogPoly(1, {(2, 0): 1})}) == 2
    zero = MultiHomogPoly(1, {}, multidegree=(2,))
    assert zero != MultiHomogPoly(1, {}, multidegree=(1,))
    assert hash(zero) == hash(MultiHomogPoly(1, {}, multidegree=(2,)))


def test_partial_derivative_basics():
    p = MultiHomogPoly(2, {(2, 0, 0, 2): Fraction(1, 3)})
    d = p.partial_derivative(0)
    assert d.terms == {(1, 0, 0, 2): Fraction(2, 3)}
    assert d.multidegree == (1, 2)
    # variable of factor degree zero: derivative is the zero polynomial
    q = MultiHomogPoly(1, {(2, 0): 1})
    assert not q.partial_derivative(1).terms
    with pytest.raises(ValueError):
        p.partial_derivative(4)
    # the index is an exact int: no bool, float or str, and no negative
    for var in (True, 1.0, "0", -1):
        with pytest.raises(ValueError, match="variable index"):
            p.partial_derivative(var)


def test_evaluate_is_exact():
    p = MultiHomogPoly(1, {(2, 0): Fraction(1, 3), (0, 2): 1})
    val = p.evaluate(ProductPoint.of([(Fraction(1, 2), Fraction(1, 5))]))
    assert val == Fraction(1, 12) + Fraction(1, 25)


def test_point_validation():
    with pytest.raises(ValueError):
        ProductPoint.of([(0, 0)])
    with pytest.raises(ValueError):
        ProductPoint.of([(1, 2, 3)])
    pt = ProductPoint.of([(1, 2), (3, 4)])
    assert pt.flat() == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        pt.scaled(0, 0)
    assert pt.scaled(1, Fraction(1, 2)).pairs[1] == (Fraction(3, 2), 2)


# inexact or non-numeric values, each refused with its type named
INEXACT = [(0.1, "float"), ("1/2", "str"), (True, "bool"), (None, "NoneType")]


@pytest.mark.parametrize("value, kind", INEXACT)
def test_point_coordinates_must_be_exact(value, kind):
    for pair in [(value, 1), (1, value)]:
        with pytest.raises(ValueError, match=f"^{kind} coordinates are not"):
            ProductPoint.of([(0, 1), pair])
    assert ProductPoint.of([(Fraction(1, 2), -3)]).pairs == \
        ((Fraction(1, 2), -3),)


@pytest.mark.parametrize("value, kind", INEXACT)
def test_scaling_factor_must_be_exact(value, kind):
    pt = ProductPoint.of([(1, 2), (3, 4)])
    with pytest.raises(ValueError, match=f"^{kind} scaling factors are not"):
        pt.scaled(0, value)
    assert pt.scaled(0, -2).pairs[0] == (-2, -4)


@pytest.mark.parametrize("factor", [-1, 2, 5, True, 1.0, "0"])
def test_scaled_checks_the_factor_index(factor):
    pt = ProductPoint.of([(1, 2), (3, 4)])
    with pytest.raises(ValueError, match=r"is not in 0\.\.1"):
        pt.scaled(factor, 2)


@pytest.mark.parametrize("value, kind", INEXACT)
def test_coefficients_must_be_exact(value, kind):
    with pytest.raises(ValueError, match=f"^{kind} coefficients are not"):
        MultiHomogPoly(1, {(1, 0): 1, (0, 1): value})
    assert MultiHomogPoly(1, {(1, 0): -2, (0, 1): Fraction(1, 3)}).terms \
        == {(1, 0): -2, (0, 1): Fraction(1, 3)}


# --- singularity of the cover --------------------------------------------------

def test_branch_example_is_singular_at_the_marked_point():
    assert BRANCH.evaluate(P_SING) == 0
    assert cover_singular_at(BRANCH, P_SING)


def test_singular_control_square():
    p = MultiHomogPoly(2, {(2, 0, 2, 0): 1})
    assert cover_singular_at(p, ProductPoint.of([(0, 1), (1, 0)]))


def test_smooth_control_point():
    q = MultiHomogPoly(2, {(1, 1, 1, 1): 1})
    assert not cover_singular_at(q, ProductPoint.of([(0, 1), (1, 1)]))


def test_point_off_the_branch_divisor_rejected():
    with pytest.raises(ValueError):
        cover_singular_at(BRANCH, ProductPoint.of([(1, 1), (1, 1), (1, 1)]))


def test_singularity_survives_coordinate_rescaling():
    pt = P_SING
    for k, lam in ((0, 7), (1, Fraction(-2, 3)), (2, Fraction(5, 11))):
        pt = pt.scaled(k, lam)
    assert cover_singular_at(BRANCH, pt)
    smooth = ProductPoint.of([(0, 1), (1, 1)])
    q = MultiHomogPoly(2, {(1, 1, 1, 1): 1})
    assert not cover_singular_at(q, smooth.scaled(0, 4).scaled(1, Fraction(1, 6)))


def _times(p, q):
    """Product of two polynomials given as {flat exponents: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _vanishing_line(n, k, pair):
    """b * x_k - a * y_k: a form of degree one in factor k through (a:b)."""
    a, b = pair
    first, second = [0] * (2 * n), [0] * (2 * n)
    first[2 * k], second[2 * k + 1] = 1, 1
    return {tuple(first): b, tuple(second): -a}


_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _branch_and_point(draw):
    """A polynomial with Fraction coefficients and a point with Fraction
    coordinates: a random polynomial (the point mostly off its divisor), one
    through the point, one singular there, or the zero polynomial."""
    n = draw(st.integers(1, 3))
    pairs = []
    for _ in range(n):
        a, b = draw(_RATIONAL), draw(_RATIONAL)
        pairs.append((a, b) if a or b else (a, Fraction(1)))
    md = [draw(st.integers(0, 2)) for _ in range(n)]
    kind = draw(st.sampled_from(["random", "through", "singular", "zero"]))
    if kind == "zero":
        return MultiHomogPoly(n, {}, multidegree=md), ProductPoint.of(pairs)
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = []
        for d in md:
            e0 = draw(st.integers(0, d))
            exps += [e0, d - e0]
        terms[tuple(exps)] = draw(_RATIONAL)
    lines = {"random": 0, "through": 1, "singular": 2}[kind]
    for _ in range(lines):
        k = draw(st.integers(0, n - 1))
        terms = _times(terms, _vanishing_line(n, k, pairs[k]))
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return MultiHomogPoly(n, {}, multidegree=[0] * n), \
            ProductPoint.of(pairs)
    return MultiHomogPoly(n, terms), ProductPoint.of(pairs)


def _answer(test, poly, point):
    try:
        return test(poly, point)
    except ValueError:
        return "off the divisor"


@settings(max_examples=200, deadline=None)
@given(_branch_and_point(),
       st.lists(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
                .map(lambda f: f if f.numerator % 2 else -f),
                min_size=3, max_size=3))
def test_singularity_test_matches_the_fraction_route(data, lams):
    poly, pt = data
    want = _answer(fraction_cover_singular_at, poly, pt)
    assert _answer(cover_singular_at, poly, pt) == want
    # a point rescaled pair by pair is the same point of the product
    scaled = pt
    for k in range(poly.n):
        scaled = scaled.scaled(k, lams[k])
    assert _answer(fraction_cover_singular_at, poly, scaled) == want
    assert _answer(cover_singular_at, poly, scaled) == want


def test_singularity_test_checks_the_factor_count():
    with pytest.raises(ValueError, match="factors"):
        cover_singular_at(BRANCH, ProductPoint.of([(0, 1), (0, 1)]))


# --- algebraic identities, randomized ------------------------------------------

@st.composite
def _poly_and_point(draw):
    n = draw(st.integers(1, 3))
    md = tuple(draw(st.integers(0, 2)) for _ in range(n))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = []
        for k in range(n):
            e0 = draw(st.integers(0, md[k]))
            exps += [e0, md[k] - e0]
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    poly = MultiHomogPoly(n, terms, multidegree=md)
    pairs = []
    for _ in range(n):
        a = draw(st.integers(-3, 3))
        b = draw(st.integers(-3, 3))
        if a == 0 and b == 0:
            b = 1
        pairs.append((a, b))
    return poly, ProductPoint.of(pairs)


@settings(max_examples=80, deadline=None)
@given(_poly_and_point())
def test_euler_identity_per_factor(data):
    poly, pt = data
    vals = pt.flat()
    for k in range(poly.n):
        lhs = vals[2 * k] * poly.partial_derivative(2 * k).evaluate(pt) \
            + vals[2 * k + 1] * poly.partial_derivative(2 * k + 1).evaluate(pt)
        assert lhs == poly.multidegree[k] * poly.evaluate(pt)


@settings(max_examples=80, deadline=None)
@given(_poly_and_point(), st.data())
def test_values_scale_by_the_multidegree(data, extra):
    poly, pt = data
    lams = [extra.draw(st.sampled_from(
        [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1), Fraction(-2, 3)]))
        for _ in range(poly.n)]
    scaled = pt
    for k, lam in enumerate(lams):
        scaled = scaled.scaled(k, lam)
    factor = Fraction(1)
    for lam, m in zip(lams, poly.multidegree):
        factor *= lam ** m
    assert poly.evaluate(scaled) == factor * poly.evaluate(pt)
    # and the same law for a first derivative, with its own multidegree
    d = poly.partial_derivative(0)
    dfactor = Fraction(1)
    for lam, m in zip(lams, d.multidegree):
        dfactor *= lam ** m
    assert d.evaluate(scaled) == dfactor * d.evaluate(pt)


# --- JSON boundary --------------------------------------------------------------

def test_json_parse_branch_example():
    obj = {
        "n": 3,
        "multidegree": [2, 2, 2],
        "terms": [
            {"exponents": [2, 0, 2, 0, 0, 2], "coeff": "1"},
            {"exponents": [0, 2, 0, 2, 2, 0], "coeff": 1},
            {"exponents": [1, 1, 0, 2, 1, 1], "coeff": "2/2"},
            {"exponents": [0, 2, 1, 1, 1, 1], "coeff": "1"},
        ],
    }
    assert poly_from_json_dict(obj) == BRANCH


def test_json_duplicates_sum_and_zeros_drop():
    obj = {
        "n": 1,
        "multidegree": [2],
        "terms": [
            {"exponents": [2, 0], "coeff": "1/2"},
            {"exponents": [2, 0], "coeff": "1/2"},
            {"exponents": [0, 2], "coeff": "3"},
            {"exponents": [0, 2], "coeff": "-3"},
        ],
    }
    poly = poly_from_json_dict(obj)
    assert poly.terms == {(2, 0): Fraction(1)}


def test_json_rejects_sloppy_input():
    base = {"n": 1, "multidegree": [1],
            "terms": [{"exponents": [1, 0], "coeff": "1"}]}
    bad_coeff = {**base, "terms": [{"exponents": [1, 0], "coeff": "0.5"}]}
    with pytest.raises(ValueError):
        poly_from_json_dict(bad_coeff)
    bad_float = {**base, "terms": [{"exponents": [1, 0], "coeff": 0.5}]}
    with pytest.raises(ValueError):
        poly_from_json_dict(bad_float)
    with pytest.raises(ValueError):
        poly_from_json_dict({**base, "style": "loose"})
    with pytest.raises(ValueError):
        poly_from_json_dict({"n": 1, "multidegree": [1]})
    wrong_len = {**base, "terms": [{"exponents": [1], "coeff": "1"}]}
    with pytest.raises(ValueError):
        poly_from_json_dict(wrong_len)
    mismatch = {**base, "multidegree": [2]}
    with pytest.raises(ValueError):
        poly_from_json_dict(mismatch)
    with pytest.raises(ValueError):
        poly_from_json_dict([1, 2, 3])


def test_json_accepts_negative_fractions():
    obj = {"n": 1, "multidegree": [1],
           "terms": [{"exponents": [0, 1], "coeff": "-3/7"}]}
    assert poly_from_json_dict(obj).terms == {(0, 1): Fraction(-3, 7)}


@pytest.mark.parametrize("text", [
    "\u0663/\u0664",  # Arabic-Indic digits 3/4
    "\uff15",  # fullwidth 5
    "5\n", "3/4\n", " 5", "5 ", "+5", "5/", "/5", "1/-2", "", "-",
])
def test_parse_rational_takes_only_ascii_p_or_p_over_q(text):
    with pytest.raises(ValueError):
        parse_rational(text)


# --- size limits at the JSON boundary ------------------------------------------

_ONE_TERM = {"n": 1, "multidegree": [1],
             "terms": [{"exponents": [1, 0], "coeff": "1"}]}


def _with_coeffs(*coeffs):
    return {"n": 1, "multidegree": [1],
            "terms": [{"exponents": [1 - i, i], "coeff": c}
                      for i, c in enumerate(coeffs)]}


@pytest.mark.parametrize("obj, message", [
    ({**_ONE_TERM, "n": 10 ** 100}, "not in 0..64"),
    ({**_ONE_TERM, "n": 10 ** 5000}, "very long integer"),
    ({**_ONE_TERM, "n": MAX_FACTORS + 1}, "not in 0..64"),
    ({**_ONE_TERM, "multidegree": [MAX_POLY_DEGREE + 1]}, "not in 0.."),
    ({"n": 2, "multidegree": [MAX_POLY_DEGREE // 2 + 1] * 2, "terms": []},
     "total degree"),
    ({**_ONE_TERM, "terms": [{"exponents": [10 ** 100, 0], "coeff": "1"}]},
     "exponent"),
    # the same entry object repeated: no large polynomial is ever built
    ({**_ONE_TERM, "terms": _ONE_TERM["terms"] * (MAX_POLY_TERMS + 1)},
     "term entries"),
    (_with_coeffs("9" * (MAX_COEFF_DIGITS + 1)), "digits"),
    (_with_coeffs("1/" + "9" * (MAX_COEFF_DIGITS + 1)), "digits"),
    (_with_coeffs(10 ** MAX_COEFF_DIGITS), "digits"),
    (_with_coeffs(-10 ** MAX_COEFF_DIGITS), "digits"),
    (_with_coeffs("1/0"), "zero denominator"),
    # each denominator is short, their lcm is not
    (_with_coeffs(f"1/{3 ** 60}", f"1/{2 ** 100}"), "common denominator"),
])
def test_json_limits(obj, message):
    with pytest.raises(ValueError, match=message):
        poly_from_json_dict(obj)


def test_json_limits_are_inclusive():
    poly_from_json_dict({"n": MAX_FACTORS, "multidegree": [0] * MAX_FACTORS,
                         "terms": [{"exponents": [0] * (2 * MAX_FACTORS),
                                    "coeff": "1"}]})
    widest = "9" * MAX_COEFF_DIGITS + "/" + "7" * MAX_COEFF_DIGITS
    top = poly_from_json_dict({
        "n": 1, "multidegree": [MAX_POLY_DEGREE],
        "terms": [{"exponents": [MAX_POLY_DEGREE, 0], "coeff": "-" + widest},
                  {"exponents": [0, MAX_POLY_DEGREE], "coeff": widest}]})
    assert not cover_singular_at(top, ProductPoint.of([(1, 1)]))
    assert poly_from_json_dict(_with_coeffs(-(10 ** MAX_COEFF_DIGITS - 1))) \
        .terms == {(1, 0): 1 - 10 ** MAX_COEFF_DIGITS}
    # 2^10 = MAX_POLY_TERMS monomials of multidegree (1, ..., 1)
    n = 10
    assert 2 ** n == MAX_POLY_TERMS
    full = poly_from_json_dict({
        "n": n, "multidegree": [1] * n,
        "terms": [{"exponents": [e for bit in bits for e in (bit, 1 - bit)],
                   "coeff": "1"} for bits in product((0, 1), repeat=n)]})
    assert len(full.terms) == MAX_POLY_TERMS

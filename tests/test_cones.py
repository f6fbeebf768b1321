import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (fraction_in_cone_lp, mori_cone,
                      recomputed_dual_description, reflect, weyl_roots)
from picardkit import cones
from picardkit.cones import (
    ConePoly,
    dual_cone,
    extremal_rays,
    in_cone_lp,
    is_simplicial,
    psef_generators,
    surface_cone_report,
)
from picardkit.curves import enumerate_conic, enumerate_exceptional
from picardkit.lattice import (SurfaceModel, canonical_class, pairing,
                               pairing_vector)


def _bp(r: int) -> SurfaceModel:
    return SurfaceModel.blowup_p2(r)


def _pp(n: int) -> SurfaceModel:
    return SurfaceModel.product_p1(n)


# --- duals -----------------------------------------------------------------

def test_orthant_is_self_dual():
    c = ConePoly.from_generators([(1, 0), (0, 1)])
    assert sorted(dual_cone(c).rays()) == [(0, 1), (1, 0)]


def _form_dual(model, gens):
    """The dual of a cone under the intersection form: the dual of its
    generators pushed through pairing_vector."""
    return dual_cone(ConePoly.from_generators(
        [pairing_vector(model, g) for g in gens], model.rank))


def test_dual_of_effective_cone_on_one_blowup():
    # generators E1 and H - E1, dualized by the intersection form
    d = _form_dual(_bp(1), [(0, 1), (1, -1)])
    assert sorted(d.rays()) == [(1, -1), (1, 0)]


def test_rulings_self_dual_under_hyperbolic_form():
    d = _form_dual(_pp(2), [(1, 0), (0, 1)])
    assert sorted(d.rays()) == [(0, 1), (1, 0)]


def test_dual_of_zero_cone_is_everything():
    z = ConePoly.from_generators([], ambient_dim=3)
    d = dual_cone(z)
    assert d.span_rank() == 3
    assert d.contains((1, -2, 5))
    assert in_cone_lp(d.rays(), (0, 0, -9))


def test_dual_of_whole_plane_is_zero():
    plane = ConePoly.from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert plane.facet_normals() == ()
    assert plane.contains((3, -7))
    assert dual_cone(plane).rays() == ()


# --- extremal rays and simpliciality ---------------------------------------

def test_square_cone_has_four_extremal_rays():
    sq = ConePoly.from_generators(
        [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, 1)])
    assert extremal_rays(sq) == [(-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)]
    assert not is_simplicial(sq)


def test_interior_generator_is_dropped():
    c = ConePoly.from_generators([(1, 0), (1, 1), (0, 1)])
    assert extremal_rays(c) == [(0, 1), (1, 0)]


def test_orthant_is_simplicial():
    basis = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    assert is_simplicial(ConePoly.from_generators(basis))


def test_all_effective_generators_extremal_rank7():
    cone = mori_cone(_bp(7))
    ext = extremal_rays(cone)
    assert len(ext) == 56
    assert set(ext) == set(cone.rays())


def test_pointed_cone_takes_one_pointedness_lp(monkeypatch):
    # one pointedness LP, then one extremality LP per generator: 1 + 56
    calls = []

    def counted(generators, x):
        calls.append(x)
        return in_cone_lp(generators, x)

    cone = mori_cone(_bp(7))
    cone.rays()
    monkeypatch.setattr(cones, "in_cone_lp", counted)
    assert len(extremal_rays(cone)) == 56
    assert len(calls) == 57


def test_pointedness_lp_agrees_with_lineality_search():
    # a cone is pointed exactly when no generator's negative is a member
    rng = random.Random(1978)
    for _ in range(60):
        dim = rng.randint(2, 5)
        c = _random_cone(rng, dim, rng.randint(1, dim + 3))
        gens = c.rays()
        assert cones._pointed(gens) == (
            not any(fraction_in_cone_lp(gens, tuple(-a for a in g))
                    for g in gens))


def test_is_simplicial_stops_counting_past_the_dimension(monkeypatch):
    # one pointedness LP, then extremality LPs until dim + 1 = 9 rays are
    # found among the 56 generators
    calls = []

    def counted(generators, x):
        calls.append(x)
        return in_cone_lp(generators, x)

    cone = mori_cone(_bp(7))
    cone.rays()
    monkeypatch.setattr(cones, "in_cone_lp", counted)
    assert not is_simplicial(cone)
    assert len(calls) == 1 + 9


def _simplicial_by_full_route(c):
    rays = extremal_rays(c)
    return len(rays) == len(cones._rref(rays))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_is_simplicial_matches_the_full_route(data):
    # pointed cones (last coordinate positive), cones with a line (a
    # generator and its negative), unrestricted ones, and the zero cone
    # (no generators, or only zero vectors)
    dim = data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * dim), max_size=dim + 3))
    shape = data.draw(st.sampled_from(["pointed", "line", "free"]))
    if shape == "pointed":
        gens = [g[:-1] + (abs(g[-1]) + 1,) for g in gens]
    elif shape == "line" and gens:
        gens.append(tuple(-a for a in gens[0]))
    c = ConePoly.from_generators(gens, ambient_dim=dim)
    assert is_simplicial(c) == _simplicial_by_full_route(c)


def test_zero_cone_is_simplicial():
    for gens in ([], [(0, 0, 0)]):
        c = ConePoly.from_generators(gens, ambient_dim=3)
        assert c.rays() == ()
        assert is_simplicial(c) and _simplicial_by_full_route(c)


def test_halfplane_lineality():
    hp = ConePoly.from_generators([(1, 0), (-1, 0), (0, 1)])
    assert extremal_rays(hp) == [(-1, 0), (0, 1), (1, 0)]
    assert not is_simplicial(hp)
    assert hp.facet_normals() == ((0, 1),)
    assert not hp.contains((5, -3))
    assert not in_cone_lp(hp.rays(), (5, -3))
    assert hp.contains((5, 3)) and in_cone_lp(hp.rays(), (5, 3))


def test_plane_of_lines_with_pointed_quotient():
    # lineality spanned by (1, 1, 1, 0) and (0, 1, 0, 0), reduced basis
    # (1, 0, 1, 0) and (0, 1, 0, 0); modulo it the generators leave
    # (0, 0, 1, 0), (0, 0, 0, 1) and (0, 0, -1, 1), the middle one the sum
    # of the outer two
    c = ConePoly.from_generators(
        [(1, 1, 1, 0), (-1, -1, -1, 0), (0, 1, 0, 0), (0, -1, 0, 0),
         (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 1)])
    assert extremal_rays(c) == [(-1, 0, -1, 0), (0, -1, 0, 0), (0, 0, -1, 1),
                                (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 1, 0)]
    assert not is_simplicial(c)
    assert c.span_rank() == 4


def test_mori_cone_of_products_is_simplicial():
    for n in (2, 3, 4):
        cone = mori_cone(_pp(n))
        assert is_simplicial(cone)
        assert len(cone.rays()) == n


# --- membership routes ------------------------------------------------------

def test_membership_accepts_rationals():
    c = ConePoly.from_generators([(1, 0), (1, 2)])
    x = (Fraction(3, 2), Fraction(1, 2))
    assert c.contains(x) and in_cone_lp(c.rays(), x)
    y = (Fraction(1, 3), Fraction(5, 3))
    assert not c.contains(y) and not in_cone_lp(c.rays(), y)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ConePoly(2)
    with pytest.raises(ValueError):
        ConePoly.from_generators([])
    with pytest.raises(ValueError):
        ConePoly.from_generators([(1, 0), (1, 0, 0)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nonnegative_combinations_are_members(data):
    dim = data.draw(st.integers(2, 4))
    count = data.draw(st.integers(1, 5))
    gens = [
        tuple(data.draw(st.integers(-4, 4)) for _ in range(dim))
        for _ in range(count)
    ]
    if not any(any(g) for g in gens):
        gens = [tuple(1 if i == 0 else 0 for i in range(dim))]
    coeffs = [data.draw(st.integers(0, 3)) for _ in gens]
    x = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim))
    cone = ConePoly.from_generators(gens, ambient_dim=dim)
    assert in_cone_lp(cone.rays(), x)
    assert cone.contains(x)


def _entry(data, fractional: bool):
    v = data.draw(st.integers(-4, 4))
    return Fraction(v, data.draw(st.integers(1, 3))) if fractional else v


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_simplex_matches_fraction_simplex(data):
    # the integer-pivoting kernel against the Fraction simplex it replaced
    dim = data.draw(st.integers(2, 8))
    count = data.draw(st.integers(1, dim + 4))
    fractional = data.draw(st.booleans())
    gens = [tuple(_entry(data, fractional) for _ in range(dim))
            for _ in range(count)]
    if data.draw(st.booleans()):
        # built inside the cone, then possibly pushed out along one axis
        coeffs = [data.draw(st.integers(0, 3)) for _ in gens]
        x = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
        x[data.draw(st.integers(0, dim - 1))] += data.draw(st.integers(-1, 0))
        x = tuple(x)
    else:
        x = tuple(_entry(data, data.draw(st.booleans())) for _ in range(dim))
    assert in_cone_lp(gens, x) == fraction_in_cone_lp(gens, x)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_carried_zero_sets_match_recomputed_zero_sets(data):
    # the double description with zero sets carried forward against the
    # same algorithm recomputing them from scratch at every halfspace
    dim = data.draw(st.integers(2, 6))
    vecs = data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=dim + 5))
    want = recomputed_dual_description(vecs, dim)
    assert ConePoly.from_facets(vecs, ambient_dim=dim).rays() == want
    assert ConePoly.from_generators(vecs, ambient_dim=dim).facet_normals() \
        == want


# --- randomized dual-route validation ---------------------------------------

def _random_cone(rng: random.Random, dim: int, count: int) -> ConePoly:
    gens = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(count)]
    gens = [g for g in gens if any(g)] or [tuple([1] + [0] * (dim - 1))]
    return ConePoly.from_generators(gens, ambient_dim=dim)


def test_double_dual_returns_the_same_cone():
    rng = random.Random(20260816)
    for _ in range(25):
        dim = rng.randint(2, 5)
        c = _random_cone(rng, dim, rng.randint(2, 7))
        dd = dual_cone(dual_cone(c))
        assert all(in_cone_lp(dd.rays(), g) for g in c.rays())
        assert all(in_cone_lp(c.rays(), r) for r in dd.rays())


def test_facet_and_lp_membership_agree():
    rng = random.Random(4711)
    for _ in range(8):
        dim = rng.randint(2, 4)
        c = _random_cone(rng, dim, rng.randint(2, 6))
        for _ in range(100):
            if rng.random() < 0.5:
                x = tuple(rng.randint(-6, 6) for _ in range(dim))
            else:
                coeffs = [rng.randint(0, 3) for _ in c.rays()]
                x = tuple(sum(a * g[i] for a, g in zip(coeffs, c.rays()))
                          for i in range(dim))
            assert c.contains(x) == in_cone_lp(c.rays(), x)


def test_dd_rays_match_lp_extremal_rays_on_pointed_cones():
    # last coordinate positive forces pointedness, so both routes must
    # recover exactly the same minimal ray set
    rng = random.Random(99)
    for _ in range(15):
        dim = rng.randint(2, 4)
        gens = [
            tuple([rng.randint(-4, 4) for _ in range(dim - 1)] + [rng.randint(1, 4)])
            for _ in range(rng.randint(2, 7))
        ]
        c = ConePoly.from_generators(gens, ambient_dim=dim)
        via_lp = set(extremal_rays(c))
        rebuilt = ConePoly.from_facets(c.facet_normals(), dim)
        assert set(rebuilt.rays()) == via_lp


# --- surface reports ---------------------------------------------------------

def test_report_plane():
    rep = surface_cone_report(_bp(0))
    assert rep.equal
    assert rep.mori_simplicial
    assert rep.picard_number == 1
    assert rep.psef.rays() == ((1,),)


def test_report_one_blowup():
    rep = surface_cone_report(_bp(1))
    assert not rep.equal
    assert rep.mori_simplicial
    assert rep.nef.rays_materialized
    assert sorted(rep.nef.rays()) == [(1, -1), (1, 0)]
    assert sorted(rep.psef.rays()) == [(0, 1), (1, -1)]


def test_report_product_of_lines():
    rep = surface_cone_report(_pp(2))
    assert rep.equal
    assert rep.mori_simplicial
    assert rep.picard_number == 2
    assert sorted(rep.nef.rays()) == [(0, 1), (1, 0)]


def test_equal_exactly_for_plane_and_product():
    expected = {0: True, 1: False, 2: False, 3: False, 4: False,
                5: False, 6: False, 7: False, 8: False}
    for r, want in expected.items():
        assert surface_cone_report(_bp(r)).equal is want


def test_mori_simplicial_iff_small_rank():
    for r in range(9):
        rep = surface_cone_report(_bp(r))
        assert rep.mori_simplicial is (r <= 2)
        if r <= 6:
            # the report against every extremal ray of mori_cone
            assert rep.mori_simplicial is _simplicial_by_full_route(
                mori_cone(_bp(r)))


def test_anticanonical_positive_on_effective_generators():
    for r in range(1, 9):
        model = _bp(r)
        mk = -canonical_class(model)
        assert all(pairing(mk, g) > 0 for g in psef_generators(model))


def test_psef_generator_tables():
    assert [g.coords for g in psef_generators(_bp(1))] == [(0, 1), (1, -1)]
    assert len(psef_generators(_bp(8))) == 240
    assert set(psef_generators(_bp(6))) == set(enumerate_exceptional(6))
    with pytest.raises(ValueError):
        psef_generators(_pp(3))


def test_weyl_words_preserve_the_cone_report():
    # W(E_r) preserves the pairing and K, so it permutes the psef
    # generators and maps the nef cone onto itself, for every r >= 3
    rng = random.Random(97)
    for r in range(3, 9):
        report = surface_cone_report(_bp(r))
        rays = set(report.psef.rays())
        conics = [c.coords for c in enumerate_conic(r)]
        roots = weyl_roots(r)
        for _ in range(10):
            word = rng.choices(roots, k=rng.randint(1, 12))

            def act(x):
                for root in word:
                    x = reflect(x, root)
                return x

            assert {act(g) for g in rays} == rays, r
            # conic sums are nef; random vectors mostly are not
            samples = [tuple(map(sum, zip(*rng.sample(conics, 2))))
                       if len(conics) > 1 else conics[0],
                       tuple(rng.randint(-3, 3) for _ in range(r + 1))]
            for x in samples:
                assert report.nef.contains(act(x)) == report.nef.contains(x)


def test_report_rejects_larger_products():
    with pytest.raises(ValueError):
        surface_cone_report(_pp(4))


def test_nef_description_stays_lazy_for_large_rank():
    rep = surface_cone_report(_bp(7))
    assert not rep.nef.rays_materialized
    # membership still works through the facet description
    h = (1, 0, 0, 0, 0, 0, 0, 0)
    assert rep.nef.contains(h)
    e1 = (0, 1, 0, 0, 0, 0, 0, 0)
    assert not rep.nef.contains(e1)

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (fraction_in_cone_lp, fraction_reduce, fraction_rref,
                      mori_cone, oracle_conic, recomputed_dual_description,
                      reflect, weyl_orbit, weyl_roots, witness_problem)
from picardkit import cones
from picardkit.cli import main
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
from picardkit.lattice import (DivisorClass, SurfaceModel, canonical_class,
                               pairing, pairing_vector)


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
    generator classes pushed through pairing_vector."""
    return dual_cone(ConePoly.from_generators(
        [pairing_vector(DivisorClass(model, g)) for g in gens], model.rank))


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


def test_dual_rays_are_the_facet_normals_of_a_generator_built_cone(
        monkeypatch):
    # one double description serves the facets of c and the rays of its dual
    runs = []
    run = cones._dual_description

    def counted(normals, dim):
        runs.append(normals)
        return run(normals, dim)

    c = ConePoly.from_generators([(1, 0, 2), (1, 3, -1), (2, -1, 1),
                                  (1, 1, 1), (3, 0, -2)])
    monkeypatch.setattr(cones, "_dual_description", counted)
    facets = c.facet_normals()
    dual = dual_cone(c)
    assert dual.rays() == facets
    assert dual.facet_normals() == c.rays()
    assert len(runs) == 1


def test_dual_cone_does_not_clean_its_descriptions_again(monkeypatch):
    # the dual's facets are c's rays and its rays come from the double
    # description, both already primitive, nonzero and distinct
    cleans = []
    clean = ConePoly._clean

    def counted(self, vecs):
        cleans.append(vecs)
        return clean(self, vecs)

    for c in (ConePoly.from_generators([(2, 0, 4), (1, 3, -1), (1, 3, -1),
                                        (0, 0, 0), (-1, -3, 1)]),
              ConePoly.from_facets([(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
              ConePoly.from_generators([], ambient_dim=2)):
        c.facet_normals()
        monkeypatch.setattr(ConePoly, "_clean", counted)
        dual = dual_cone(c)
        monkeypatch.undo()
        assert cleans == []
        assert dual.facet_normals() == c.rays()
        assert dual.rays() == ConePoly.from_facets(
            c.rays(), c.ambient_dim).rays()


def test_cone_queries_check_entry_types_once_per_cone(monkeypatch):
    # a cone's rays were checked when it was built, so neither the LPs nor
    # the row reduction of extremal_rays and is_simplicial check again
    shapes = [ConePoly.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                        (1, 1, 1), (2, 1, 0)]),
              ConePoly.from_generators([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                        (1, 1, 1)]),  # a line
              ConePoly.from_generators([(Fraction(1, 2), 0),
                                        (0, Fraction(1, 3)), (1, 1)]),
              # pointed, but the sum of the generators is negative on
              # (1, 0, 0), so no witness helps and every query is an LP
              ConePoly.from_generators([(1, 0, 0), (-1, 1, 0), (0, 0, 1),
                                        (0, 1, 1), (-1, 2, 1)])]
    calls = dict.fromkeys(["_integral", "_phase_one", "_rref"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cones, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cones, name, counted)
    for c in shapes:
        extremal_rays(c)
        is_simplicial(c)
    assert calls["_phase_one"] >= 20 and calls["_rref"] >= 3
    assert calls["_integral"] == 0
    # the public routes keep their boundary: one check per call, over
    # every vector, on ints and on Fractions alike
    c = shapes[0]
    for query in (lambda x: in_cone_lp([(1, 0, 0), (0, 1, 0)], x),
                  c.contains):
        before = calls["_integral"]
        assert query((1, 3, 0))
        assert query((Fraction(1, 2), 3, 0))
        assert calls["_integral"] == before + 2
        with pytest.raises(TypeError, match="float"):
            query((0.5, 3, 0))


def test_dual_of_a_facet_built_cone_drops_redundant_facets():
    # given facets may be redundant, so the dual of a cone built from them
    # is the minimal description of its rays, not the facets as given
    rng = random.Random(1996)
    for _ in range(40):
        dim = rng.randint(2, 5)
        facets = [tuple(rng.randint(-3, 3) for _ in range(dim))
                  for _ in range(rng.randint(dim, dim + 3))]
        facets = [f for f in facets if any(f)]
        # a positive sum of two facets is redundant
        f, g = rng.sample(facets, 2)
        facets.append(tuple(2 * a + b for a, b in zip(f, g)))
        c = ConePoly.from_facets(facets, dim)
        want = recomputed_dual_description(
            recomputed_dual_description(facets, dim), dim)
        assert dual_cone(c).rays() == want
    orthant = ConePoly.from_facets([(1, 0), (0, 1), (1, 1)])
    assert dual_cone(orthant).rays() == ((0, 1), (1, 0))


def test_one_double_description_serves_a_cone_and_its_double_dual(
        monkeypatch):
    # the run on c's generators also gives them back in minimal form, the
    # rays of the double dual; a run on facets also gives the minimal
    # facets, the rays of the dual
    runs = []
    run = cones._dual_description

    def counted(normals, dim):
        runs.append(normals)
        return run(normals, dim)

    monkeypatch.setattr(cones, "_dual_description", counted)
    gens = [(1, 0, 2), (1, 3, -1), (2, -1, 1), (1, 1, 1), (3, 0, -2),
            (2, 2, 2)]
    c = ConePoly.from_generators(gens)
    twice = dual_cone(dual_cone(c))
    assert len(runs) == 1
    assert twice.rays() == recomputed_dual_description(
        recomputed_dual_description(gens, 3), 3)
    assert twice.facet_normals() == c.facet_normals()
    assert len(runs) == 1
    runs.clear()
    facets = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 2)]
    dual = dual_cone(ConePoly.from_facets(facets))
    assert dual.rays() == ((0, 0, 1), (0, 1, 0), (1, -1, 2), (1, 0, 0))
    assert len(runs) == 1


def test_a_double_dual_with_a_line_takes_a_second_run(monkeypatch):
    # generators spanning a line are read off by running the double
    # description on the dual's rays, not from the first run's zero sets
    runs = []
    run = cones._dual_description

    def counted(normals, dim):
        runs.append(normals)
        return run(normals, dim)

    monkeypatch.setattr(cones, "_dual_description", counted)
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (1, 2, 3)]
    c = ConePoly.from_generators(gens)
    assert dual_cone(dual_cone(c)).rays() == recomputed_dual_description(
        recomputed_dual_description(gens, 3), 3)
    assert len(runs) == 2


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_double_dual_read_off_one_run_equals_two_runs(data):
    # free, low-rank and line shapes as in the zero-set test, plus a
    # positive sum of two vectors, which is redundant as a facet and
    # never extremal as a generator
    dim = data.draw(st.integers(1, 8))
    vecs = data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=dim + 5))
    shape = data.draw(st.sampled_from(["free", "low rank", "lines"]))
    if shape == "low rank" and dim > 1:
        span = vecs[:data.draw(st.integers(1, dim - 1))]
        vecs = [tuple(sum(c * v[k] for c, v in zip(coeffs, span))
                      for k in range(dim))
                for coeffs in data.draw(st.lists(
                    st.lists(st.integers(-2, 2), min_size=len(span),
                             max_size=len(span)),
                    min_size=1, max_size=dim + 5))]
    elif shape == "lines":
        vecs += [tuple(-a for a in v)
                 for v in vecs[:data.draw(st.integers(1, len(vecs)))]]
    if len(vecs) >= 2:
        f, g = data.draw(st.permutations(vecs))[:2]
        vecs.insert(data.draw(st.integers(0, len(vecs))),
                    tuple(2 * a + b for a, b in zip(f, g)))
    want = recomputed_dual_description(
        recomputed_dual_description(vecs, dim), dim)
    assert dual_cone(ConePoly.from_facets(vecs, dim)).rays() == want
    assert dual_cone(dual_cone(
        ConePoly.from_generators(vecs, dim))).rays() == want


def test_copies_of_a_cone_with_a_pending_double_dual_agree():
    # the pending answer is plain data, so a copy reads the same answer
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (1, 2, 3), (3, 3, 4)]
    for make in (lambda: dual_cone(ConePoly.from_generators(gens)),
                 lambda: ConePoly.from_facets(gens)):
        cone = make()
        cone.rays()
        assert type(cone._dual) is cones._Pending
        want = dual_cone(make()).rays()
        for copied in (copy.deepcopy(cone),
                       pickle.loads(pickle.dumps(cone))):
            assert type(copied._dual) is cones._Pending
            assert dual_cone(copied).rays() == want
        assert dual_cone(cone).rays() == want


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
        return in_cone(generators, x)

    # the LPs on a cone's own rays skip the entry check of in_cone_lp
    in_cone = cones._phase_one
    cone = mori_cone(_bp(7))
    cone.rays()
    monkeypatch.setattr(cones, "_phase_one", counted)
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
        return in_cone(generators, x)

    # the LPs on a cone's own rays skip the entry check of in_cone_lp
    in_cone = cones._phase_one
    cone = mori_cone(_bp(7))
    cone.rays()
    monkeypatch.setattr(cones, "_phase_one", counted)
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


# --- witnesses -------------------------------------------------------------

def _counted_lps(monkeypatch) -> list:
    """The right-hand sides of every _phase_one call from here on."""
    calls = []
    in_cone = cones._phase_one

    def counted(generators, x):
        calls.append(x)
        return in_cone(generators, x)

    monkeypatch.setattr(cones, "_phase_one", counted)
    return calls


def _lp_only(gens):
    """(extremal generators, simplicial) by the simplex alone, or None for
    a cone with a line: the route that decided both before witnesses."""
    if not cones._pointed(gens):
        return None
    ext = [g for g in gens
           if not cones._phase_one([h for h in gens if h != g], g)]
    return ext, len(ext) == len(fraction_rref(gens))


def test_every_witness_of_the_surface_reports_checks(monkeypatch):
    # -K proves each psef cone pointed, and each ray witnessed extremal
    # passes the oracle's check; a model with as many generators as its
    # rank is decided by independence, with no witness
    used = []
    witnessed = cones._witnessed

    def recorded(gens, w=None):
        found = witnessed(gens, w)
        used.append((gens, w, found))
        return found

    monkeypatch.setattr(cones, "_witnessed", recorded)
    counts = {}
    for model in [_bp(r) for r in range(9)] + [_pp(2)]:
        used.clear()
        surface_cone_report(model)
        gens = [g.coords for g in psef_generators(model)]
        mk = pairing_vector(-canonical_class(model))
        assert witness_problem(gens, mk, ()) is None
        if len(gens) == len(fraction_rref(gens)):
            assert used == []
            continue
        ((seen, w, found),) = used
        assert (list(seen), w) == (gens, mk)
        assert witness_problem(gens, w, found) is None
        counts[str(model)] = len(found)
    # more witnessed rays than the rank at r = 7 and 8 settle the answer
    assert counts == {"BlowupP2(3)": 3, "BlowupP2(4)": 4, "BlowupP2(5)": 6,
                      "BlowupP2(6)": 6, "BlowupP2(7)": 14, "BlowupP2(8)": 16}


def test_the_witness_check_catches_a_corrupted_witness():
    model = _bp(8)
    gens = [g.coords for g in psef_generators(model)]
    w = pairing_vector(-canonical_class(model))
    found = cones._witnessed(gens, w)
    assert witness_problem(gens, w, found) is None
    # one sign of w flipped: E1 pairs to -1
    flipped = (w[0], -w[1]) + w[2:]
    assert witness_problem(gens, flipped, found) == (
        "w.(0, 1, 0, 0, 0, 0, 0, 0, 0) = -1 is not positive")
    # H - E1 - E2 shares every maximum it reaches with another generator
    tied = (1, -1, -1, 0, 0, 0, 0, 0, 0)
    assert tied in gens and tied not in found
    assert witness_problem(gens, w, found | {tied}) == (
        f"no functional +-e_i has its unique maximum at {tied}")


@pytest.mark.parametrize("r", [7, 8])
def test_large_reports_decide_the_mori_cone_with_no_lp(monkeypatch, r):
    # the rays witnessed by -K and +-e_i outnumber the rank; the simplex
    # route alone took 10 LPs at r = 7 and 11 at r = 8
    calls = _counted_lps(monkeypatch)
    assert not surface_cone_report(_bp(r)).mori_simplicial
    assert calls == []


def test_verify_cone_dp_lp_count(monkeypatch, capsys):
    # 71 LPs by the simplex route alone: 63 in the reports and the 8
    # memberships of E1, which witnesses do not touch
    calls = _counted_lps(monkeypatch)
    assert main(["verify", "cone-dp"]) == 0
    capsys.readouterr()
    assert len(calls) == 15


_SHAPES = ["free", "low-rank", "+-v", "redundant"]


def _shaped(rng: random.Random, dim: int, shape: str, w: tuple) -> list:
    """Random generators of one shape.  Given w, each is first turned to
    the side where w is positive, and one w is orthogonal to is dropped,
    so w proves the cone pointed unless the shape adds a line."""
    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(dim))

    def at(g):
        return sum(a * b for a, b in zip(g, w))

    count = rng.randint(1, dim + 4)
    if shape == "low-rank":
        basis = [vec() for _ in range(rng.randint(1, max(1, dim - 1)))]
        gens = [tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                      for i in range(dim))
                for coeffs in ([rng.randint(-2, 2) for _ in basis]
                               for _ in range(count))]
    else:
        gens = [vec() for _ in range(count)]
    if w is not None:
        gens = [g if at(g) > 0 else tuple(-a for a in g)
                for g in gens if at(g)]
    if gens and shape == "+-v":
        gens.append(tuple(-a for a in gens[0]))
    elif len(gens) > 1 and shape == "redundant":
        a, b = rng.sample(gens, 2)
        gens.append(tuple(x + rng.randint(1, 2) * y for x, y in zip(a, b)))
    return gens


@pytest.mark.parametrize("shape", _SHAPES)
def test_witnesses_agree_with_the_lp_route(shape):
    # dims 1-8; half the cones are oriented by a random w, and each cone
    # is tried with w and with the sum of its generators.  Whatever a
    # witness proves, the simplex route agrees, and so do the answers
    rng = random.Random(f"witness:{shape}")
    proved = 0
    for _ in range(100):
        dim = rng.randint(1, 8)
        w = (tuple(rng.randint(-3, 3) for _ in range(dim))
             if rng.random() < 0.5 else None)
        c = ConePoly.from_generators(_shaped(rng, dim, shape, w), dim)
        gens, rank = list(c.rays()), c.span_rank()
        lp = _lp_only(gens)
        for trial in (None, w):
            found = cones._witnessed(gens, trial)
            if found is not None:
                assert lp is not None
                used = trial or [sum(col) for col in zip(*gens)]
                assert witness_problem(gens, used, found) is None
                assert found <= set(lp[0])
                proved += len(found)
            assert cones._simplicial(gens, rank, trial) == (
                lp is not None and lp[1])
        assert is_simplicial(c) == (lp is not None and lp[1])
        if lp is not None:
            assert extremal_rays(c) == sorted(lp[0])
    # a cone with a line has no witness
    assert proved == 0 if shape == "+-v" else proved >= 40


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
    # P1 x P1 through the oracle; the orthants of (P^1)^3 and (P^1)^4,
    # which are no surface model, as plain cones
    orthants = [ConePoly.from_generators(
        [tuple(int(i == j) for j in range(n)) for i in range(n)], n)
        for n in (3, 4)]
    for n, cone in zip((2, 3, 4), [mori_cone(_pp(2))] + orthants):
        assert is_simplicial(cone)
        assert len(cone.rays()) == n


# --- membership routes ------------------------------------------------------

def test_membership_accepts_rationals():
    c = ConePoly.from_generators([(1, 0), (1, 2)])
    x = (Fraction(3, 2), Fraction(1, 2))
    assert c.contains(x) and in_cone_lp(c.rays(), x)
    y = (Fraction(1, 3), Fraction(5, 3))
    assert not c.contains(y) and not in_cone_lp(c.rays(), y)
    # a one-pass iterator is read once, not once per facet or per check
    orthant = ConePoly.from_generators([(1, 0), (0, 1)])
    assert not orthant.contains(iter((-1, 1)))
    assert in_cone_lp((g for g in orthant.rays()), iter((2, 1)))


def test_constructor_validation():
    with pytest.raises(ValueError):
        ConePoly(2)
    with pytest.raises(ValueError):
        ConePoly.from_generators([])
    with pytest.raises(ValueError):
        ConePoly.from_generators([(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="ambient dimension"):
        ConePoly(2.0, generators=[(1, 0)])
    with pytest.raises(ValueError, match="ambient dimension"):
        ConePoly(-1, generators=[])
    # a query vector of the wrong length is refused too, not cut short;
    # in_cone_lp takes the dimension from x
    with pytest.raises(ValueError, match=r"\(1, 0\) does not have dimension 1"):
        in_cone_lp([(1, 0), (0, 1)], (1,))
    with pytest.raises(ValueError, match="does not have dimension 2"):
        in_cone_lp([(1, 0), (0, 1, 0)], (1, 1))
    with pytest.raises(ValueError, match="does not have dimension 2"):
        ConePoly.from_generators([(1, 0), (0, 1)]).contains((1,))


def test_first_vector_may_be_an_iterator_without_ambient_dim():
    # the dimension comes from the first vector after it is read, as it
    # would with ambient_dim given
    for make, vecs in ((ConePoly.from_generators, [(1, 0), (0, 1)]),
                       (ConePoly.from_facets, [(1, 0), (0, 1), (1, 1)])):
        given = make([iter(v) for v in vecs], ambient_dim=2)
        taken = make([iter(v) for v in vecs])
        assert taken.ambient_dim == 2
        assert taken.rays() == given.rays()
        assert taken.facet_normals() == given.facet_normals()


def test_dimensions_are_checked_before_entry_types():
    # one type check per description, after every length is checked, so
    # a float in one vector and a wrong length in another is a ValueError
    with pytest.raises(ValueError, match="does not have dimension 2"):
        ConePoly.from_generators([(0.5, 1), (1, 0, 0)])
    with pytest.raises(ValueError, match="does not have dimension 2"):
        ConePoly.from_facets([(1, 0), (Fraction(1, 2), 0.5), (1,)])
    with pytest.raises(TypeError, match="int or Fraction, not float"):
        ConePoly.from_generators([(Fraction(1, 2), 1), (1, 0.5)])
    # Fractions are scaled per vector, then deduplicated with the integers
    c = ConePoly.from_generators([(Fraction(1, 2), 1), (1, 2), (2, 4),
                                  (0, Fraction(0))])
    assert c.rays() == ((1, 2),)


@pytest.mark.parametrize("entry", [0.5, "1/2", True],
                         ids=["float", "str", "bool"])
def test_cone_entries_must_be_int_or_fraction(entry):
    # a float would enter as its binary expansion, a string would be
    # parsed, and True would count as 1; each is refused where it enters
    with pytest.raises(TypeError, match="int or Fraction"):
        ConePoly.from_generators([(entry, 1), (1, 0)])
    with pytest.raises(TypeError, match="int or Fraction"):
        ConePoly.from_facets([(1, 0), (1, entry)])
    with pytest.raises(TypeError, match="int or Fraction"):
        in_cone_lp([(entry, 1)], (1, 2))
    with pytest.raises(TypeError, match="int or Fraction"):
        in_cone_lp([(1, 1)], (entry, 2))
    with pytest.raises(TypeError, match="int or Fraction"):
        ConePoly.from_generators([(1, 0), (0, 1)]).contains((entry, 1))


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


@pytest.mark.parametrize("generators, x, want", [
    ([], (0, 0, 0), True),
    ([], (0, 1, 0), False),
    ([], (), True),
    # x = 0 is in every cone, the zero cone of no dimension too
    ([(1, 2), (3, -1)], (0, 0), True),
    ([(0, 0)], (0, 0), True),
    # rows with a negative right-hand side are negated
    ([(1, -1), (0, -1)], (1, -3), True),
    ([(1, -1), (0, -1)], (-1, -3), False),
    ([(-1, -2), (-3, 1)], (-4, -1), True),
    # equal ratios in the ratio test, at a positive and at a zero value
    ([(1, 1), (1, 0)], (2, 2), True),
    ([(1, 1, 0), (1, 1, 1), (0, 1, 1)], (2, 2, 1), True),
    ([(1, 1, 0), (1, 1, 1), (0, 1, 1)], (0, 0, 1), False),
    ([(1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)], (1, 1, 1), True),
    ([(1, 1, 1), (1, -1, 0), (0, 1, 0)], (1, 0, 0), True),
    ([(1, 1, 1), (1, -1, 0)], (1, 0, 0), False),
    ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], (0, 0, 1), True),
    ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], (0, 0, -1), False),
], ids=["no-gens-zero", "no-gens", "no-dims", "x-zero", "zero-gen",
        "neg-rhs", "neg-rhs-out", "all-neg", "tie", "tie-3d",
        "tie-3d-out", "tie-second-pivot", "tie-at-zero", "tie-at-zero-out",
        "square-centre", "square-below"])
def test_in_cone_lp_edge_cases(generators, x, want):
    assert in_cone_lp(generators, x) is want
    assert fraction_in_cone_lp(generators, x) is want


def _count_row_passes(monkeypatch):
    """Count in_cone_lp's passes over its rows: two per pivot."""
    passes = []

    def counted(rows):
        passes.append(rows)
        if len(passes) > 200:
            raise RuntimeError("the phase-I simplex cycles")
        return enumerate(rows)

    monkeypatch.setattr(cones, "enumerate", counted, raising=False)
    return passes


def test_simplex_stops_once_the_phase_one_value_is_zero(monkeypatch):
    # x = 0 needs no pivot, and (1, 0) one, although a generator column
    # still has a positive reduced cost afterwards
    passes = _count_row_passes(monkeypatch)
    assert in_cone_lp([(1, 1), (1, -1)], (0, 0))
    assert passes == []
    assert in_cone_lp([(1, 0), (0, 1), (1, 1)], (1, 0))
    assert len(passes) == 2


def test_blands_leaving_rule_keeps_a_degenerate_lp_from_cycling(
        monkeypatch):
    # ties in this LP's ratio test, broken towards the largest basis label,
    # make the simplex cycle; Bland's rule (the smallest label) ends in 8
    # pivots
    passes = _count_row_passes(monkeypatch)
    gens = [(-2, 2, 0, 1, 1), (2, -1, 2, 1, 0), (0, 0, -2, 2, -1),
            (1, 1, -1, 2, -1), (0, 0, 1, 1, 2), (0, 0, 2, -1, 2),
            (-2, 0, 0, 1, 1), (1, -1, -2, 1, 0)]
    x = (1, 0, 0, 0, 1)
    assert not in_cone_lp(gens, x)
    assert len(passes) == 2 * 8
    assert not fraction_in_cone_lp(gens, x)


def _positive_multiple(ints, fracs):
    """ints is a positive scalar multiple of the rational vector fracs."""
    k = next((i for i, v in enumerate(fracs) if v), None)
    if k is None:
        return not any(ints)
    scale = Fraction(ints[k]) / fracs[k]
    return scale > 0 and all(a == scale * b for a, b in zip(ints, fracs))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_rref_matches_fraction_rref(data):
    # the fraction-free row reduction against the Fraction one it replaced:
    # the same pivots, and each basis row and coset representative a
    # positive multiple of the rational one, primitive; a row is 0 before
    # its pivot, which extremal_rays relies on for its line basis
    dim = data.draw(st.integers(1, 8))
    fractional = data.draw(st.booleans())
    vecs = [tuple(_entry(data, fractional) for _ in range(dim))
            for _ in range(data.draw(st.integers(0, dim + 4)))]
    shape = data.draw(st.sampled_from(["free", "low rank", "lines"]))
    if shape == "low rank" and vecs and dim > 1:
        span = vecs[:data.draw(st.integers(1, dim - 1))]
        vecs = [tuple(sum(c * v[k] for c, v in zip(coeffs, span))
                      for k in range(dim))
                for coeffs in data.draw(st.lists(
                    st.lists(st.integers(-2, 2), min_size=len(span),
                             max_size=len(span)),
                    min_size=1, max_size=dim + 4))]
    elif shape == "lines" and vecs:
        vecs += [tuple(-a for a in v)
                 for v in vecs[:data.draw(st.integers(1, len(vecs)))]]
    # the row reduction trusts its input: Fractions are scaled first, by
    # the boundary that every vector entering the cone engine passes
    basis = cones._rref(cones._integral(vecs, dim))
    want = fraction_rref(vecs)
    assert [p for p, _ in basis] == [p for p, _ in want]
    for (p, row), (_, frow) in zip(basis, want):
        assert row[p] > 0 and gcd(*row) == 1
        assert not any(row[:p])
        assert _positive_multiple(row, frow)
    probes = vecs + [tuple(_entry(data, fractional) for _ in range(dim))]
    for v, ints in zip(probes, cones._integral(probes, dim)):
        rep = cones._reduce(ints, basis)
        assert gcd(*rep) <= 1
        assert _positive_multiple(rep, fraction_reduce(v, want))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_carried_zero_sets_match_recomputed_zero_sets(data):
    # the double description with zero sets carried forward against the
    # same algorithm recomputing them from scratch at every halfspace;
    # vectors spanning a proper subspace, and vectors next to their
    # negatives, keep lineality alive to the last halfspace
    dim = data.draw(st.integers(2, 8))
    vecs = data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=dim + 5))
    shape = data.draw(st.sampled_from(["free", "low rank", "lines"]))
    if shape == "low rank":
        span = vecs[:data.draw(st.integers(1, dim - 1))]
        vecs = [tuple(sum(c * v[k] for c, v in zip(coeffs, span))
                      for k in range(dim))
                for coeffs in data.draw(st.lists(
                    st.lists(st.integers(-2, 2), min_size=len(span),
                             max_size=len(span)),
                    min_size=1, max_size=dim + 5))]
    elif shape == "lines":
        vecs += [tuple(-a for a in v)
                 for v in vecs[:data.draw(st.integers(1, len(vecs)))]]
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
    assert sorted(rep.nef_generators) == [(1, -1), (1, 0)]
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
    with pytest.raises(ValueError, match="ProductP1 needs n = 2, got 3"):
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
    with pytest.raises(ValueError, match="ProductP1 needs n = 2, got 4"):
        surface_cone_report(_pp(4))


def _classical_nef_rays(r):
    # the conic classes and the W(E_r) orbit of H (Dolgachev, Classical
    # Algebraic Geometry, ch. 8), from routes that share no code with the
    # double description
    conics = {(d,) + tuple(-m for m in ms) for d, ms in oracle_conic(r)}
    return tuple(sorted(conics | weyl_orbit((1,) + (0,) * r, r)))


@pytest.mark.parametrize("r, count", [(3, 5), (4, 10), (5, 26), (6, 99),
                                      (7, 702)])
def test_nef_rays_are_conics_and_the_orbit_of_h(r, count):
    rays = surface_cone_report(_bp(r)).nef.rays()
    assert len(rays) == count
    assert rays == _classical_nef_rays(r)


@pytest.mark.slow
def test_nef_rays_at_eight_points_are_conics_and_the_orbit_of_h():
    # 2160 conic classes and 17280 classes in the orbit of H
    rays = surface_cone_report(_bp(8)).nef.rays()
    assert len(rays) == 19440
    assert rays == _classical_nef_rays(8)


def test_nef_description_stays_lazy_for_large_rank():
    rep = surface_cone_report(_bp(7))
    assert rep.nef_generators is None
    # membership still works through the facet description
    h = (1, 0, 0, 0, 0, 0, 0, 0)
    assert rep.nef.contains(h)
    e1 = (0, 1, 0, 0, 0, 0, 0, 0)
    assert not rep.nef.contains(e1)


def test_the_report_alone_decides_which_nef_generators_are_listed(
        monkeypatch):
    runs = []
    run = cones._dual_description

    def counted(normals, dim):
        runs.append(dim)
        return run(normals, dim)

    monkeypatch.setattr(cones, "_dual_description", counted)
    for model in [_bp(r) for r in range(9)] + [_pp(2)]:
        runs.clear()
        rep = surface_cone_report(model)
        large = model.kind == "BlowupP2" and model.size >= 3
        assert (rep.nef_generators is None) == large
        if large:
            # no double description ran, and a later one changes nothing
            assert runs == []
            if model.size <= 7:
                rep.nef.rays()
                assert runs and rep.nef_generators is None

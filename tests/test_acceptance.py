"""Acceptance gate: one timed check per shipped guarantee.

Each test prints a single ACCEPTANCE line on success and enforces its time
budget.  Every comparison is exact; nothing here is tolerance-based.
"""

import random
from fractions import Fraction
from itertools import product as iproduct
from math import factorial
from time import perf_counter

from picardkit.cones import (
    ConePoly,
    dual_cone,
    in_cone_lp,
    surface_cone_report,
)
from picardkit.curves import (
    enumerate_conic,
    enumerate_exceptional,
    orbit_signature,
    reducible_fibers,
)
from picardkit.doublecover import (
    DoubleCoverSpec,
    MultiHomogPoly,
    ProductPoint,
    anticanonical_power,
    cover_singular_at,
    is_fano,
)
from picardkit.fibration import (
    FibrationPair,
    analyze_pair,
    hodge_bound,
    max_degree_bound,
    scan_conic_pairs,
)
from picardkit.lattice import (
    DivisorClass,
    SurfaceModel,
    canonical_class,
    pairing,
)

from _oracles import oracle_conic, oracle_exceptional


def test_criterion_1_exceptional_counts():
    t0 = perf_counter()
    expected = [0, 1, 3, 6, 10, 16, 27, 56, 240]
    for r in range(9):
        fam = enumerate_exceptional(r)
        assert len(fam) == expected[r]
        got = sorted((c.degree, c.multiplicities()) for c in fam)
        assert got == oracle_exceptional(r)
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS exceptional counts match the oracle "
          f"({elapsed:.2f}s)")


def test_criterion_2_conic_orbits_at_seven_points():
    t0 = perf_counter()
    fam = enumerate_conic(7)
    assert len(fam) == 126 == len(oracle_conic(7))
    hist: dict = {}
    for c in fam:
        sig = orbit_signature(c)
        hist[(sig.degree, sig.multiplicities)] = \
            hist.get((sig.degree, sig.multiplicities), 0) + 1
    assert hist == {
        (1, (1, 0, 0, 0, 0, 0, 0)): 7,
        (2, (1, 1, 1, 1, 0, 0, 0)): 35,
        (3, (2, 1, 1, 1, 1, 1, 0)): 42,
        (4, (2, 2, 2, 1, 1, 1, 1)): 35,
        (5, (2, 2, 2, 2, 2, 2, 1)): 7,
    }
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS conic class count and orbit sizes at rank 7 "
          f"({elapsed:.2f}s)")


def test_criterion_3_ruling_partner_analysis():
    t0 = perf_counter()
    model = SurfaceModel.blowup_p2(7)
    c1 = DivisorClass.from_curve(model, 1, [1])
    by_sig: dict = {}
    for c2 in enumerate_conic(7):
        if c2 == c1:
            continue
        rep = analyze_pair(FibrationPair(model, c1, c2))
        if rep.is_finite:
            sig = orbit_signature(c2)
            by_sig.setdefault((sig.degree, sig.multiplicities), []) \
                .append((c2, rep.degree))

    cubics = by_sig.pop((3, (2, 1, 1, 1, 1, 1, 0)))
    quartics = by_sig.pop((4, (2, 2, 2, 1, 1, 1, 1)))
    quintics = by_sig.pop((5, (2, 2, 2, 2, 2, 2, 1)))
    assert by_sig == {}
    assert (len(cubics), len(quartics), len(quintics)) == (6, 20, 7)
    assert {d for _, d in cubics} == {3}
    assert {d for _, d in quartics} == {3}
    assert {d for _, d in quintics} == {3, 4}
    assert all((d == 4) == (c2.multiplicities()[0] == 1) for c2, d in quintics)

    line_p1p2 = DivisorClass.from_curve(model, 1, [1, 1])
    e6 = DivisorClass.from_curve(model, 0, [0, 0, 0, 0, 0, -1])
    excluded = [
        (DivisorClass.from_curve(model, 1, [0, 1]), line_p1p2),
        (DivisorClass.from_curve(model, 2, [1, 1, 1, 1]), e6),
        (DivisorClass.from_curve(model, 3, [2, 1, 1, 1, 1, 1]), line_p1p2),
        (DivisorClass.from_curve(model, 4, [2, 2, 2, 1, 1, 1, 1]), line_p1p2),
    ]
    for c2, named in excluded:
        rep = analyze_pair(FibrationPair(model, c1, c2))
        assert not rep.is_finite
        assert rep.common_contracted
        assert named in rep.common_contracted
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS ruling partners split into the three expected "
          f"families with the predicted degrees ({elapsed:.2f}s)")


def test_criterion_4_hodge_bound_and_finiteness_pattern():
    t0 = perf_counter()
    for r in range(1, 9):
        summary = scan_conic_pairs(r)
        assert summary.hodge_holds, r
        assert (summary.finite_pair_count > 0) == (r in (5, 7, 8)), r
        finite_max = max(summary.finite_degrees, default=0)
        assert finite_max <= max_degree_bound(r), r
        if r <= 6:
            assert finite_max <= 2, r

    # recompute the bound pairwise: exhaustively at small rank, sampled above
    for r in range(1, 6):
        model = SurfaceModel.blowup_p2(r)
        fam = list(enumerate_conic(r))
        for i, a in enumerate(fam):
            for b in fam[i:]:
                bound = hodge_bound(model, a, b)
                assert bound.lhs <= bound.rhs == 16
                assert bound.holds
    rng = random.Random(8191)
    for r in (6, 7, 8):
        model = SurfaceModel.blowup_p2(r)
        fam = list(enumerate_conic(r))
        for _ in range(200):
            a, b = rng.choice(fam), rng.choice(fam)
            assert hodge_bound(model, a, b).holds
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 4 PASS pair bound holds everywhere and finite pairs "
          f"appear at exactly the predicted ranks ({elapsed:.2f}s)")


def test_criterion_5_reducible_fiber_counts():
    t0 = perf_counter()
    for r in range(1, 9):
        family = enumerate_exceptional(r)
        for c in enumerate_conic(r):
            assert len(reducible_fibers(c, family)) == r - 1, (r, c)

    model = SurfaceModel.blowup_p2(8)
    pencil = DivisorClass.from_curve(model, 4, [0, 1, 1, 1, 1, 2, 2, 2])
    fibers = reducible_fibers(pencil, enumerate_exceptional(8))
    got = sorted(sorted([list(f.components[0].coords),
                         list(f.components[1].coords)]) for f in fibers)
    expected = sorted([
        [[0, 1, 0, 0, 0, 0, 0, 0, 0], [4, -1, -1, -1, -1, -1, -2, -2, -2]],
        [[1, 0, 0, 0, 0, 0, 0, -1, -1], [3, 0, -1, -1, -1, -1, -2, -1, -1]],
        [[1, 0, 0, 0, 0, 0, -1, 0, -1], [3, 0, -1, -1, -1, -1, -1, -2, -1]],
        [[1, 0, 0, 0, 0, 0, -1, -1, 0], [3, 0, -1, -1, -1, -1, -1, -1, -2]],
        [[2, 0, -1, -1, 0, 0, -1, -1, -1], [2, 0, 0, 0, -1, -1, -1, -1, -1]],
        [[2, 0, -1, 0, -1, 0, -1, -1, -1], [2, 0, 0, -1, 0, -1, -1, -1, -1]],
        [[2, 0, -1, 0, 0, -1, -1, -1, -1], [2, 0, 0, -1, -1, 0, -1, -1, -1]],
    ])
    assert got == expected
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 5 PASS every pencil has one reducible fiber fewer "
          f"than the rank, with the quartic pencil split as listed "
          f"({elapsed:.2f}s)")


def test_criterion_6_double_cover_anticanonical_power():
    t0 = perf_counter()
    assert anticanonical_power(DoubleCoverSpec.of([1, 1])) == 4
    for n in range(1, 7):
        assert anticanonical_power(DoubleCoverSpec.of([1] * n)) \
            == 2 * factorial(n)
    for n in range(1, 6):
        for ds in iproduct((0, 1, 2), repeat=n):
            spec = DoubleCoverSpec.of(list(ds))
            assert is_fano(spec) == (anticanonical_power(spec) > 0), ds
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 6 PASS anticanonical powers and the fano criterion "
          f"agree on the full grid ({elapsed:.2f}s)")


def test_criterion_7_cone_reports_and_engine_consistency():
    t0 = perf_counter()
    equal_models = []
    for r in range(9):
        report = surface_cone_report(SurfaceModel.blowup_p2(r))
        if report.equal:
            equal_models.append(("blowup", r))
    product = surface_cone_report(SurfaceModel.product_p1(2))
    if product.equal:
        equal_models.append(("product", 2))
    assert equal_models == [("blowup", 0), ("product", 2)]

    for r in range(1, 9):
        model = SurfaceModel.blowup_p2(r)
        report = surface_cone_report(model)
        mk = -canonical_class(model)
        assert all(pairing(mk, DivisorClass(model, g)) > 0
                   for g in report.psef.rays()), r
        e1 = tuple(1 if i == 1 else 0 for i in range(model.rank))
        assert in_cone_lp(report.psef.rays(), e1), r
        assert not report.nef.contains(e1), r

    rng = random.Random(20260816)
    for _ in range(100):
        dim = rng.randint(2, 6)
        count = rng.randint(1, dim + 2)
        gens = [tuple(rng.randint(-5, 5) for _ in range(dim))
                for _ in range(count)]
        gens = [g for g in gens if any(g)]
        if not gens:
            gens = [(1,) + (0,) * (dim - 1)]
        cone = ConePoly.from_generators(gens, dim)
        twice = dual_cone(dual_cone(cone))
        assert all(in_cone_lp(twice.rays(), g) for g in cone.rays())
        assert all(in_cone_lp(cone.rays(), r) for r in twice.rays())
        for _ in range(10):
            x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(dim))
            assert cone.contains(x) == in_cone_lp(cone.rays(), x)
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 7 PASS cone reports match the expected table and the "
          f"two membership routes agree on random fixtures ({elapsed:.2f}s)")


def test_criterion_8_branch_fixture_singularity():
    t0 = perf_counter()
    poly = MultiHomogPoly(3, {
        (2, 0, 2, 0, 0, 2): 1,
        (0, 2, 0, 2, 2, 0): 1,
        (1, 1, 0, 2, 1, 1): 1,
        (0, 2, 1, 1, 1, 1): 1,
    })
    marked = ProductPoint.of([(0, 1), (0, 1), (0, 1)])
    assert poly.evaluate(marked) == 0
    assert cover_singular_at(poly, marked)
    partials = [poly.partial_derivative(v) for v in range(6)]
    assert all(d.evaluate(marked) == 0 for d in partials)

    rng = random.Random(424242)
    lams = [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(7, 2),
            Fraction(-5, 4)]
    for _ in range(50):
        pairs = []
        for _ in range(3):
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            if a == 0 and b == 0:
                b = 1
            pairs.append((a, b))
        pt = ProductPoint.of(pairs)
        chosen = [rng.choice(lams) for _ in range(3)]
        scaled = pt
        for k, lam in enumerate(chosen):
            scaled = scaled.scaled(k, lam)
        for d in partials:
            factor = Fraction(1)
            for lam, m in zip(chosen, d.multidegree):
                factor *= lam ** m
            assert d.evaluate(scaled) == factor * d.evaluate(pt)
            assert (d.evaluate(scaled) == 0) == (d.evaluate(pt) == 0)
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 8 PASS the marked branch point is a singular point "
          f"of the cover and gradients rescale exactly ({elapsed:.2f}s)")

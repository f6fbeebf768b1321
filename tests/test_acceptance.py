"""Acceptance gate: one timed check per shipped guarantee.

Each test prints a single ACCEPTANCE line on success and enforces its time
budget.  Every comparison is exact; nothing here is tolerance-based.
Criteria 3 to 8 run the verify suites that the CLI ships, whose outputs
test_golden freezes, so each of the paper's cases is written once, in
picardkit.suites; criteria 4 and 7 add checks that no suite makes.
"""

import json
import random
from fractions import Fraction
from time import perf_counter

from picardkit import cli
from picardkit.cones import ConePoly, dual_cone, in_cone_lp
from picardkit.curves import (
    enumerate_conic,
    enumerate_exceptional,
    orbit_signature,
)
from picardkit.fibration import hodge_bound
from picardkit.lattice import SurfaceModel

from _oracles import oracle_conic, oracle_exceptional


def _verify(tmp_path, lemma_id):
    """Run one verify suite through the CLI: it exits 0 and every case has
    expected == got.  The report goes to a file, so that pytest's output
    capture, which would also swallow the ACCEPTANCE line, is not needed."""
    path = tmp_path / f"{lemma_id}.json"
    assert cli.main(["verify", lemma_id, "--format", "json",
                     "--out", str(path)]) == 0
    details = json.loads(path.read_text())["result"]["details"]
    assert details
    assert [d["case"] for d in details if d["expected"] != d["got"]] == []


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


def test_criterion_3_ruling_partner_analysis(tmp_path):
    t0 = perf_counter()
    _verify(tmp_path, "deg2-pairs")
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS ruling partners split into the three expected "
          f"families with the predicted degrees ({elapsed:.2f}s)")


def test_criterion_4_hodge_bound_and_finiteness_pattern(tmp_path):
    t0 = perf_counter()
    _verify(tmp_path, "quadric-target")
    _verify(tmp_path, "hodge-bound")

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


def test_criterion_5_reducible_fiber_counts(tmp_path):
    t0 = perf_counter()
    _verify(tmp_path, "fiber-counts")
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 5 PASS every pencil has one reducible fiber fewer "
          f"than the rank, with the quartic pencil split as listed "
          f"({elapsed:.2f}s)")


def test_criterion_6_double_cover_anticanonical_power(tmp_path):
    t0 = perf_counter()
    _verify(tmp_path, "double-cover-k")
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 6 PASS anticanonical powers and the fano criterion "
          f"agree on the full grid ({elapsed:.2f}s)")


def test_criterion_7_cone_reports_and_engine_consistency(tmp_path):
    t0 = perf_counter()
    _verify(tmp_path, "cone-dp")

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


def test_criterion_8_branch_fixture_singularity(tmp_path):
    t0 = perf_counter()
    _verify(tmp_path, "branch-singular")
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 8 PASS the marked branch point is a singular point "
          f"of the cover and gradients rescale exactly ({elapsed:.2f}s)")

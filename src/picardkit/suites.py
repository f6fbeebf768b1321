"""The named verification suites behind `picardkit verify`.

Each suite re-runs one of the package's frozen cross-checks and returns its
cases as detail records {"case", "expected", "got"}; the suite passes when
every record's two values are equal.  SUITES maps each suite id to its
suite.  A suite imports the layers it calls in its own body, so that
running one compiles and loads only those layers and lattice.
"""

from __future__ import annotations

from typing import Callable

from .lattice import (BLOWUP, MAX_BLOWUP_POINTS, DivisorClass, SurfaceModel,
                      canonical_class, pairing)

# the ranks of the blow-ups that have conic classes
_RANKS = range(1, MAX_BLOWUP_POINTS + 1)


def _detail(case: str, expected, got) -> dict:
    return {"case": case, "expected": expected, "got": got}


# the finite partners of the ruling H - E1 on the blow-up at 7 points, one
# row per family: name, signature (degree, multiplicities), count, degrees
_DEG2_PARTNERS = (
    ("cubic", (3, (2, 1, 1, 1, 1, 1, 0)), 6, [3]),
    ("quartic", (4, (2, 2, 2, 1, 1, 1, 1)), 20, [3]),
    ("quintic", (5, (2, 2, 2, 2, 2, 2, 1)), 7, [3, 4]),
)


def _suite_deg2_pairs() -> list[dict]:
    from .curves import enumerate_conic, orbit_signature
    from .fibration import FibrationPair, analyze_pair

    # ruling analysis on the blow-up at 7 points: partners of c1 = H - E1
    model = SurfaceModel.blowup_p2(7)
    c1 = DivisorClass.from_curve(model, 1, [1])
    # the finite partners, by signature as (degree, multiplicities)
    by_sig: dict = {}
    for c2 in enumerate_conic(7):
        if c2 == c1:
            continue
        rep = analyze_pair(FibrationPair(model, c1, c2))
        if rep.is_finite:
            sig = orbit_signature(c2)
            by_sig.setdefault((sig.degree, sig.multiplicities), []).append(
                (c2, rep.degree))
    details = [_detail("finite partner signatures",
                       [[d, list(m)] for _, (d, m), _, _ in _DEG2_PARTNERS],
                       sorted([d, list(m)] for d, m in by_sig))]
    details += [_detail(f"finite partner count by degree: {name}s", count,
                        len(by_sig.get(sig, [])))
                for name, sig, count, _ in _DEG2_PARTNERS]
    details += [_detail(f"{name} partner degrees", degrees,
                        sorted({d for _, d in by_sig.get(sig, [])}))
                for name, sig, _, degrees in _DEG2_PARTNERS]
    quintics = by_sig.get(_DEG2_PARTNERS[-1][1], [])
    details.append(_detail(
        "quintic degree 4 exactly when E1-coefficient is 1", True,
        all((d == 4) == (c2.multiplicities()[0] == 1) for c2, d in quintics)))
    # excluded families: each member shares a contracted curve with the ruling
    line_p1p2 = DivisorClass.from_curve(model, 1, [1, 1])
    e6 = DivisorClass.from_curve(model, 0, [0, 0, 0, 0, 0, -1])
    excluded = [
        ("excluded: lines through p2 contract the line through p1 p2",
         DivisorClass.from_curve(model, 1, [0, 1]), line_p1p2),
        ("excluded: conics through p1..p4 contract E6",
         DivisorClass.from_curve(model, 2, [1, 1, 1, 1]), e6),
        ("excluded: cubics double at p1 contract the line through p1 p2",
         DivisorClass.from_curve(model, 3, [2, 1, 1, 1, 1, 1]), line_p1p2),
        ("excluded: quartics double at p1 p2 p3 contract the line through p1 p2",
         DivisorClass.from_curve(model, 4, [2, 2, 2, 1, 1, 1, 1]), line_p1p2),
    ]
    for case, c2, named in excluded:
        rep = analyze_pair(FibrationPair(model, c1, c2))
        details.append(_detail(case, True,
                               (not rep.is_finite)
                               and named in rep.common_contracted))
    return details


def _suite_quadric_target() -> list[dict]:
    from .fibration import max_degree_bound, scan_conic_pairs

    details = []
    summaries = {r: scan_conic_pairs(r) for r in _RANKS}
    for r, summary in summaries.items():
        details.append(_detail(f"rank {r} finite pairs exist", r in (5, 7, 8),
                               summary.finite_pair_count > 0))
    details.append(_detail("rank 5 finite degrees", [2],
                           list(summaries[5].finite_degrees)))
    details.append(_detail("rank 5 degree bound", 2, max_degree_bound(5)))
    return details


def _suite_hodge_bound() -> list[dict]:
    from .fibration import max_degree_bound, scan_conic_pairs

    details = []
    for r in _RANKS:
        summary = scan_conic_pairs(r)
        details.append(_detail(f"rank {r} hodge bound holds", True,
                               summary.hodge_holds))
        finite_max = max(summary.finite_degrees, default=0)
        details.append(_detail(f"rank {r} finite degrees within bound", True,
                               finite_max <= max_degree_bound(r)))
    return details


def _suite_cone_dp() -> list[dict]:
    from .cones import in_cone_lp, surface_cone_report

    details = []
    models = [SurfaceModel.blowup_p2(r) for r in range(MAX_BLOWUP_POINTS + 1)]
    for model in models + [SurfaceModel.product_p1(2)]:
        report = surface_cone_report(model)
        # nef equals psef on P^2 and P1 x P1 only
        plane_or_quadric = model.kind != BLOWUP or model.size == 0
        details.append(_detail(f"nef equals psef on {model}",
                               plane_or_quadric, report.equal))
        if plane_or_quadric:
            continue  # the checks below are for BlowupP2(1..8)
        mk = -canonical_class(model)
        details.append(_detail(
            f"{model} -K pairs positively with every psef generator",
            True,
            all(pairing(mk, DivisorClass(model, g)) > 0
                for g in report.psef.rays())))
        e1 = tuple(1 if i == 1 else 0 for i in range(model.rank))
        details.append(_detail(
            f"{model} E1 lies in psef but not in nef", True,
            in_cone_lp(report.psef.rays(), e1)
            and not report.nef.contains(e1)))
    return details


def _suite_double_cover_k() -> list[dict]:
    from itertools import product as iproduct
    from math import factorial

    from .doublecover import DoubleCoverSpec, anticanonical_power, is_fano

    details = [
        _detail("surface cover of type (2,2)", 4,
                anticanonical_power(DoubleCoverSpec.of([1, 1]))),
        _detail("threefold cover of type (2,2,2)", 12,
                anticanonical_power(DoubleCoverSpec.of([1, 1, 1]))),
        _detail("unbranched-type surface cover (0,0)", 16,
                anticanonical_power(DoubleCoverSpec.of([0, 0]))),
    ]
    for n in range(1, 7):
        details.append(_detail(f"all-ones type, n={n}", 2 * factorial(n),
                               anticanonical_power(DoubleCoverSpec.of([1] * n))))
    agree = all(
        is_fano(DoubleCoverSpec.of(list(ds)))
        == (anticanonical_power(DoubleCoverSpec.of(list(ds))) > 0)
        for n in range(1, 6) for ds in iproduct((0, 1, 2), repeat=n))
    details.append(_detail(
        "fano iff positive anticanonical power on {0,1,2}^n, n <= 5", True,
        agree))
    return details


_BRANCH_FIXTURE = {
    (2, 0, 2, 0, 0, 2): 1,
    (0, 2, 0, 2, 2, 0): 1,
    (1, 1, 0, 2, 1, 1): 1,
    (0, 2, 1, 1, 1, 1): 1,
}


def _suite_branch_singular() -> list[dict]:
    import random
    from fractions import Fraction

    from .doublecover import MultiHomogPoly, ProductPoint, cover_singular_at

    poly = MultiHomogPoly(3, _BRANCH_FIXTURE)
    marked = ProductPoint.of([(0, 1), (0, 1), (0, 1)])
    partials = [poly.partial_derivative(v) for v in range(6)]
    details = [
        _detail("fixture vanishes at the marked point", "0",
                str(poly.evaluate(marked))),
        _detail("fixture singular at the marked point", True,
                cover_singular_at(poly, marked)),
        _detail("every partial vanishes at the marked point", True,
                all(d.evaluate(marked) == 0 for d in partials)),
        _detail("smooth control point on a (2,2) branch", False,
                cover_singular_at(MultiHomogPoly(2, {(1, 1, 1, 1): 1}),
                                  ProductPoint.of([(0, 1), (1, 1)]))),
        _detail("non-reduced square branch is singular on its support", True,
                cover_singular_at(MultiHomogPoly(2, {(2, 0, 2, 0): 1}),
                                  ProductPoint.of([(0, 1), (1, 0)]))),
    ]
    rng = random.Random(1729)
    lams = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1),
            Fraction(5, 3), Fraction(-2, 7)]
    ok = True
    for _ in range(50):
        pairs = []
        for _ in range(3):
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            if a == 0 and b == 0:
                b = 1
            pairs.append((a, b))
        pt = ProductPoint.of(pairs)
        scaled = pt
        chosen = [rng.choice(lams) for _ in range(3)]
        for k, lam in enumerate(chosen):
            scaled = scaled.scaled(k, lam)
        for d in partials:
            factor = Fraction(1)
            for lam, m in zip(chosen, d.multidegree):
                factor *= lam ** m
            if d.evaluate(scaled) != factor * d.evaluate(pt):
                ok = False
    details.append(_detail(
        "gradient rescaling law on 50 random points", True, ok))
    return details


def _suite_fiber_counts() -> list[dict]:
    from .curves import (enumerate_conic, enumerate_exceptional,
                         reducible_fibers)

    details = []
    for r in _RANKS:
        family = enumerate_exceptional(r)
        counts = {len(reducible_fibers(c, family)) for c in enumerate_conic(r)}
        details.append(_detail(f"rank {r} reducible fiber count", [r - 1],
                               sorted(counts)))
    # quartic pencil on the blow-up at 8 points: its 7 decompositions
    model = SurfaceModel.blowup_p2(8)
    pencil = DivisorClass.from_curve(model, 4, [0, 1, 1, 1, 1, 2, 2, 2])
    fibers = reducible_fibers(pencil, enumerate_exceptional(8))
    got = sorted(sorted([list(f.components[0].coords),
                         list(f.components[1].coords)]) for f in fibers)
    expected_pairs = [
        # E1 with the residual quartic
        [[0, 1, 0, 0, 0, 0, 0, 0, 0], [4, -1, -1, -1, -1, -1, -2, -2, -2]],
        # line through two of p6 p7 p8 with a cubic double at the third
        [[1, 0, 0, 0, 0, 0, 0, -1, -1], [3, 0, -1, -1, -1, -1, -2, -1, -1]],
        [[1, 0, 0, 0, 0, 0, -1, 0, -1], [3, 0, -1, -1, -1, -1, -1, -2, -1]],
        [[1, 0, 0, 0, 0, 0, -1, -1, 0], [3, 0, -1, -1, -1, -1, -1, -1, -2]],
        # two conics splitting p2..p5 between them, both through p6 p7 p8
        [[2, 0, -1, -1, 0, 0, -1, -1, -1], [2, 0, 0, 0, -1, -1, -1, -1, -1]],
        [[2, 0, -1, 0, -1, 0, -1, -1, -1], [2, 0, 0, -1, 0, -1, -1, -1, -1]],
        [[2, 0, -1, 0, 0, -1, -1, -1, -1], [2, 0, 0, -1, -1, 0, -1, -1, -1]],
    ]
    details.append(_detail("quartic pencil fiber decompositions",
                           sorted(expected_pairs), got))
    return details


SUITES: dict[str, Callable[[], list[dict]]] = {
    "deg2-pairs": _suite_deg2_pairs,
    "quadric-target": _suite_quadric_target,
    "hodge-bound": _suite_hodge_bound,
    "cone-dp": _suite_cone_dp,
    "double-cover-k": _suite_double_cover_k,
    "branch-singular": _suite_branch_singular,
    "fiber-counts": _suite_fiber_counts,
}

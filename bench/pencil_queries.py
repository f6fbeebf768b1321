"""pencil-queries: point queries on conic pencils, in process and warm.

One operation is a batch of fixed make-up on seeded rank-7 and rank-8
classes (MAKEUP, per rank).  POOL batches are drawn at set-up and cycled, so
a per-rank cache or table in the program can pay off here.
"""

from __future__ import annotations

import random

import reference as ref

RANKS = (7, 8)
POOL = 8
MAKEUP = {
    "analyze_with_family": 48,
    "analyze_without_family": 8,
    "reducible_fibers": 16,
    "hodge_bound": 128,
    "orbit_signature": 128,
}
IMPORTS = "import picardkit.curves, picardkit.fibration"


class State:
    def __init__(self, seed: int) -> None:
        from picardkit.curves import enumerate_exceptional
        from picardkit.lattice import DivisorClass, SurfaceModel

        rng = random.Random(seed)
        self.models = {r: SurfaceModel.blowup_p2(r) for r in RANKS}
        self.families = {r: enumerate_exceptional(r) for r in RANKS}
        self.batches = []
        for _ in range(POOL):
            batch = []
            for r in RANKS:
                conics = ref.conic_classes(r)
                model = self.models[r]

                def cls(c):
                    return DivisorClass(model, c)

                def pairs(k):
                    return [tuple(map(cls, rng.sample(conics, 2)))
                            for _ in range(k)]

                batch.append((r, {
                    "analyze_with_family":
                        pairs(MAKEUP["analyze_with_family"]),
                    "analyze_without_family":
                        pairs(MAKEUP["analyze_without_family"]),
                    "reducible_fibers":
                        [cls(rng.choice(conics))
                         for _ in range(MAKEUP["reducible_fibers"])],
                    "hodge_bound": pairs(MAKEUP["hodge_bound"]),
                    "orbit_signature":
                        [cls(rng.choice(conics))
                         for _ in range(MAKEUP["orbit_signature"])],
                }))
            self.batches.append(batch)


def setup(seed: int) -> State:
    state = State(seed)
    operate(state, job(state, 0))
    return state


def job(state: State, i: int):
    return state.batches[i % POOL]


def operate(state: State, batch):
    # imported per call, so that a traced run calls the tracer's wrappers
    from picardkit.curves import orbit_signature, reducible_fibers
    from picardkit.fibration import FibrationPair, analyze_pair, hodge_bound

    out = []
    for r, q in batch:
        model, fam = state.models[r], state.families[r]
        out.append({
            "analyze_with_family": [
                analyze_pair(FibrationPair(model, a, b), fam)
                for a, b in q["analyze_with_family"]],
            "analyze_without_family": [
                analyze_pair(FibrationPair(model, a, b))
                for a, b in q["analyze_without_family"]],
            "reducible_fibers": [reducible_fibers(c, fam)
                                 for c in q["reducible_fibers"]],
            "hodge_bound": [hodge_bound(model, a, b)
                            for a, b in q["hodge_bound"]],
            "orbit_signature": [orbit_signature(c)
                                for c in q["orbit_signature"]],
        })
    return out


def _analysis_problem(a, b, report) -> str | None:
    degree = ref.pair(a, b)
    shared = ref.contracted_mask(a) & ref.contracted_mask(b)
    want = set(ref.contracted_classes(shared, len(a) - 1))
    got = [e.coords for e in report.common_contracted]
    if report.degree != degree:
        return f"degree of {a}, {b} is {degree}, program says {report.degree}"
    if set(got) != want or len(got) != len(want):
        return f"commonly contracted classes of {a}, {b} differ"
    if report.is_finite != (degree > 0 and not shared):
        return f"finiteness of {a}, {b} is wrong"
    return None


def _fiber_problem(c, fibers) -> str | None:
    r = len(c) - 1
    if len(fibers) != r - 1:
        return f"{c} has {len(fibers)} reducible fibres, expected {r - 1}"
    seen = set()
    for f in fibers:
        a, b = (x.coords for x in f.components)
        if f.total.coords != c or tuple(x + y for x, y in zip(a, b)) != c:
            return f"fibre components of {c} do not sum to it"
        if not (ref.is_exceptional(a) and ref.is_exceptional(b)
                and ref.pair(a, b) == 1):
            return f"fibre {a} + {b} of {c} is not two exceptionals meeting once"
        seen.add(frozenset((a, b)))
    if len(seen) != len(fibers):
        return f"a reducible fibre of {c} is listed twice"
    return None


def check(state: State, batch, out) -> str | None:
    for (r, q), got in zip(batch, out):
        k_sq = 9 - r
        k = ref.canonical(r)
        for key in ("analyze_with_family", "analyze_without_family"):
            for (a, b), report in zip(q[key], got[key]):
                problem = _analysis_problem(a.coords, b.coords, report)
                if problem:
                    return problem
        for c, fibers in zip(q["reducible_fibers"], got["reducible_fibers"]):
            problem = _fiber_problem(c.coords, fibers)
            if problem:
                return problem
        for (a, b), hb in zip(q["hodge_bound"], got["hodge_bound"]):
            lhs = 2 * k_sq * ref.pair(a.coords, b.coords)
            rhs = (ref.pair(k, a.coords) + ref.pair(k, b.coords)) ** 2
            if (hb.lhs, hb.rhs, hb.holds) != (lhs, rhs, lhs <= rhs):
                return f"hodge bound of {a.coords}, {b.coords} is wrong"
        for c, sig in zip(q["orbit_signature"], got["orbit_signature"]):
            if (sig.degree, sig.multiplicities) != ref.orbit_signature(c.coords):
                return f"orbit signature of {c.coords} is wrong"
    return None

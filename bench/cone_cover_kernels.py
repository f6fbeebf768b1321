"""cone-cover-kernels: exact cone and double-cover kernels, in process.

One operation is a batch of fixed make-up on inputs drawn afresh from the
seed and the operation's index, so no input repeats:

* for each dimension d in CONE_DIMS, a cone spanned by generator_count(d)
  random integer vectors with first coordinate >= 1 (so pointed) and full
  rank: facets, rays back from the facets, dual_cone twice, and membership
  of one point built inside and one outside, by the simplex and by facet
  signs;
* extremal_rays and is_simplicial on the cones of dimension <= LP_MAX_DIM;
* anticanonical_power for one branch type of each length in BRANCH_LENGTHS,
  entries 0 or 1, so that no row sum vanishes and the cost depends on the
  length alone;
* cover_singular_at on SINGULAR_POLYS branch polynomials of multidegree
  (2, 2, 2), half built singular at their point, half smooth.
"""

from __future__ import annotations

import random

import reference as ref

CONE_DIMS = range(2, 9)
LP_MAX_DIM = 4
BRANCH_LENGTHS = range(2, 13)
SINGULAR_POLYS = 4
IMPORTS = "import picardkit.cones, picardkit.doublecover"


def generator_count(d: int) -> int:
    # two spare generators give the low dimensions a few more facets; above
    # that one spare keeps the double description's size, and so the
    # operation's cost, from swinging between seeds
    return d + 2 if d <= 5 else d + 1


class Job:
    def __init__(self, seed: int, i: int) -> None:
        from picardkit.doublecover import (DoubleCoverSpec, MultiHomogPoly,
                                           ProductPoint)

        rng = random.Random(f"{seed}:{i}")
        self.cones = [_cone(rng, d) for d in CONE_DIMS]
        self.branches = [tuple(rng.randint(0, 1) for _ in range(n))
                         for n in BRANCH_LENGTHS]
        self.specs = [DoubleCoverSpec.of(b) for b in self.branches]
        self.covers = []
        for k in range(SINGULAR_POLYS):
            terms, point, singular = ref.branch_poly(rng, singular=k % 2 == 0)
            self.covers.append((MultiHomogPoly(3, terms),
                                ProductPoint.of(point), singular))


def _cone(rng: random.Random, d: int):
    while True:
        gens = [tuple([rng.randint(1, 4)]
                      + [rng.randint(-3, 3) for _ in range(d - 1)])
                for _ in range(generator_count(d))]
        if ref.rank(gens) == d:
            break
    weights = [rng.randint(0, 3) for _ in gens]
    weights[rng.randrange(len(gens))] += 1
    inside = tuple(sum(w * g[k] for w, g in zip(weights, gens))
                   for k in range(d))
    outside = (-1,) + inside[1:]
    return gens, inside, outside


def setup(seed: int):
    """The state is the seed: every operation draws fresh inputs."""
    operate(seed, job(seed, -1))
    return seed


def job(state, i: int) -> Job:
    return Job(state, i)


def operate(state, j: Job):
    # imported per call, so that a traced run calls the tracer's wrappers
    from picardkit.cones import (ConePoly, dual_cone, extremal_rays,
                                 in_cone_lp, is_simplicial)
    from picardkit.doublecover import anticanonical_power, cover_singular_at

    cones = []
    for gens, inside, outside in j.cones:
        c = ConePoly.from_generators(gens)
        facets = c.facet_normals()
        back = ConePoly.from_facets(facets).rays()
        dual = dual_cone(c)
        dual2 = dual_cone(dual)
        lp = len(gens[0]) <= LP_MAX_DIM
        cones.append({
            "facets": facets,
            "rays": back,
            "dual": dual.rays(),
            "dual2": dual2.rays(),
            "extremal": extremal_rays(c) if lp else None,
            "simplicial": is_simplicial(c) if lp else None,
            "lp": (in_cone_lp(c.rays(), inside), in_cone_lp(c.rays(), outside)),
            "facet_test": (c.contains(inside), c.contains(outside)),
        })
    powers = [anticanonical_power(s) for s in j.specs]
    singular = [cover_singular_at(p, pt) for p, pt, _ in j.covers]
    return cones, powers, singular


def check(state, j: Job, out) -> str | None:
    cones, powers, singular = out
    for (gens, inside, outside), got in zip(j.cones, cones):
        d = len(gens[0])
        # a facet is verified when every generator satisfies it and the
        # generators it is tight on span a hyperplane
        problem = ref.ray_problem(got["facets"], gens, d, "facet")
        if problem:
            return problem
        extreme = {ref.primitive(g) for g in gens}
        for what, rays, normals in (("cone", got["rays"], got["facets"]),
                                    ("dual", got["dual"], gens),
                                    ("dual of dual", got["dual2"],
                                     got["dual"])):
            problem = ref.ray_problem(rays, normals, d, what)
            if problem:
                return problem
        if not set(got["rays"]) <= extreme or \
                set(got["dual2"]) != set(got["rays"]):
            return f"rays of the cone on {gens} and of its double dual differ"
        if got["extremal"] is not None and (
                set(got["extremal"]) != set(got["rays"])
                or got["simplicial"] != (len(got["rays"]) == d)):
            return f"extremal rays of the cone on {gens} are wrong"
        if not any(ref.dot(outside, n) < 0 for n in got["facets"]):
            return f"no facet separates {outside} from the cone on {gens}"
        if got["lp"] != (True, False) or got["facet_test"] != (True, False):
            return f"membership in the cone on {gens} is wrong"
    for branch, power in zip(j.branches, powers):
        if power != ref.anticanonical_power(branch):
            return f"anticanonical power of {branch} is {power}"
    for (_, _, want), got in zip(j.covers, singular):
        if got != want:
            return f"singularity test returned {got}, built {want}"
    return None

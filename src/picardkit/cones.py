"""Exact rational polyhedral cones and the nef/psef/mori surface reports.

Everything here runs over exact arithmetic.  Vector entries must be int or
Fraction: ConePoly and in_cone_lp raise TypeError for anything else (float,
str, bool), so no floating point enters.  The double description and the
simplex work on integers only; Fraction inputs are scaled to integers on
entry, and the row reduction is the one place that keeps Fractions.

* Double description: a cone given by halfspace normals is converted to
  generators by Motzkin-style incremental refinement.  Lineality is carried
  explicitly: processing a halfspace that cuts the current lineality space
  shrinks it by one dimension and emits the cut direction as a ray, so
  non-pointed intermediate cones are handled without perturbation.  Each
  ray carries its zero set, a bitmask over the processed halfspaces, and
  each halfspace the bitmask of the rays on it.  Two rays on either side
  of a cut are adjacent when no third ray lies on every halfspace both lie
  on, which keeps the description minimal at every step: the AND of the
  ray sets of their common halfspaces must hold the pair and nothing else.
  An edge lies on at least dim - 2 - dim(lineality) processed halfspaces,
  so pairs with fewer in common are skipped by a popcount before that test
  (Fukuda & Prodon 1996).  Each halfspace step takes one dot product per
  ray and per lineality direction, and a gcd keeps each new vector
  primitive; a ray already on a halfspace that cuts the lineality stays
  where it is.  A ConePoly runs the double description of its generators
  once: the one result is its facet normals and the generators of its dual
  cone.
* Membership and extremality: a phase-I simplex with Bland's rule, pivoting
  over the integers with one common denominator, decides whether a vector
  is a nonnegative combination of given generators.  This is the second,
  independent route to containment next to the facet-sign test, and the
  two are required to agree.  One such LP decides whether a cone is
  pointed.  is_simplicial, the one route to simpliciality, runs it and
  stops counting extremal rays at one past the dimension of the span.
* Row reduction: one Fraction RREF helper gives ranks, lineality bases and
  coset representatives modulo the lineality space.

Normalization: rays and facet normals are scaled to primitive integer
vectors (denominators cleared, gcd divided out) with orientation preserved;
flipping the sign would change the ray or the halfspace.  Only lineality
line directions, where both signs belong to the cone, are canonicalized to
a positive leading coordinate.

Surface reports: the effective generators are classical and hard-coded
(basis classes H or E_i plus all exceptional classes, two rulings on
P1 x P1), then sanity-checked by their canonical degree: -K.g, read off
the coordinates by lattice.canonical_degree, must be strictly positive on
every generator.  The nef cone is stored by its facet normals,
the psef generators pushed through the intersection form with
lattice.pairing_vector.  The report materializes its generators only for
the tiny models (r <= 2); nef.rays() builds them on request.  For
3 <= r <= 8 they are the conic classes plus the W(E_r) orbit of H: 702
rays at r = 7 in about 0.02 s, and 19440 at r = 8 in about 3 s (2 cores,
Python 3.11).
The Mori cone of a blow-up model is identified with the psef cone (divisor
and curve classes coincide on a surface); for ProductP1(n) it is the
nonnegative orthant of curve classes.
On every reported model that orthant has the psef generators too, so the
report decides Mori simpliciality by is_simplicial on the psef cone
itself, and psef inside nef by the nef cone's own facet test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .curves import enumerate_exceptional
from .lattice import (BLOWUP, DivisorClass, SurfaceModel, canonical_degree,
                      pairing_vector)

Vec = tuple[int, ...]


def _neg(v: Sequence) -> tuple:
    return tuple(-a for a in v)


def _all_int(entries: Iterable) -> bool:
    """Whether every entry is an int (False: some are Fractions).

    The check at the boundary: anything but int and Fraction (float, str,
    bool, ...) raises TypeError, so everything past it is exact.
    """
    kinds = set(map(type, entries))
    if kinds <= {int}:
        return True
    if kinds <= {int, Fraction}:
        return False
    bad = next(t for t in kinds if t is not int and t is not Fraction)
    raise TypeError(f"cone entries must be int or Fraction, not {bad.__name__}")


def _integral(vec: Sequence) -> Sequence[int]:
    """vec with its denominators cleared, as integers."""
    if _all_int(vec):
        return vec
    fracs = [Fraction(v) for v in vec]
    den = lcm(*(f.denominator for f in fracs))
    return [int(f * den) for f in fracs]


def _primitive(ints: Sequence[int]) -> Vec:
    """An integer vector divided by the gcd of its entries.  Orientation
    preserved."""
    g = gcd(*ints)
    if g <= 1:
        return tuple(ints)
    return tuple([v // g for v in ints])


def _canon_line(ints: Sequence[int]) -> Vec:
    """Primitive vector with positive leading entry: canonical form for a
    line direction, where both signs generate the same set."""
    p = _primitive(ints)
    for v in p:
        if v:
            return p if v > 0 else _neg(p)
    return p


def _reduce(vec: Sequence, basis: list[tuple[int, list[Fraction]]]
            ) -> list[Fraction]:
    """vec with its pivot columns cleared against a _rref basis: the
    canonical coset representative modulo the span of the basis."""
    row = [Fraction(v) for v in vec]
    for piv, b in basis:
        if row[piv]:
            f = row[piv]
            row = [a - f * c for a, c in zip(row, b)]
    return row


def _rref(vectors: Iterable[Sequence]) -> list[tuple[int, list[Fraction]]]:
    """Reduced row echelon basis of the span, as (pivot column, row) pairs.

    Each row is 1 at its own pivot and 0 at every other pivot, so the rank
    is the length of the basis.  Stops once the basis spans everything.
    """
    basis: list[tuple[int, list[Fraction]]] = []
    for vec in vectors:
        row = _reduce(vec, basis)
        piv = next((i for i, v in enumerate(row) if v), None)
        if piv is None:
            continue
        row = [a / row[piv] for a in row]
        # re-reduce the earlier rows so the basis stays in reduced form
        basis = [(p, [a - b[piv] * c for a, c in zip(b, row)] if b[piv] else b)
                 for p, b in basis]
        basis.append((piv, row))
        if len(basis) == len(row):
            break
    return basis


def in_cone_lp(generators: Sequence[Sequence], x: Sequence) -> bool:
    """Is x a nonnegative rational combination of the generators?

    Phase-I simplex with Bland's rule, pivoting over the integers
    (Edmonds 1967; Bareiss 1968).  The rational tableau is T / D for an
    integer matrix T and one common denominator D > 0, which starts at 1.
    A pivot on p = T[r][e] keeps row r, replaces every other entry a by
    (a*p - f*c) // D, where f is the entry of a's row in column e and c that
    of row r in a's column, and then sets D = p.  Each division is exact,
    since every entry of T is a minor of the starting matrix.  As D stays
    positive, signs are those of the rational tableau and the ratio test
    compares cross products, so every pivot is the one the same simplex
    takes over Fractions.
    """
    d = len(x)
    m = len(generators)
    rows = [[g[i] for g in generators] + [x[i]] for i in range(d)]
    if not _all_int(v for row in rows for v in row):
        # one denominator for the whole system: scaling all rows alike
        # scales the phase-I objective too, so the pivots do not change
        rows = [[Fraction(v) for v in row] for row in rows]
        den = lcm(*(v.denominator for row in rows for v in row))
        rows = [[int(v * den) for v in row] for row in rows]
    # columns: the m generators, one artificial per row, the right-hand side
    T = []
    for i, row in enumerate(rows):
        if row[m] < 0:
            row = [-a for a in row]
        T.append(row[:m] + [int(k == i) for k in range(d)] + [row[m]])
    # phase-I objective row: artificial columns reduce to 0, and the last
    # entry is the sum of the artificials
    obj = [sum(col) for col in zip(*T)] or [0] * (m + 1)
    obj[m:m + d] = [0] * d
    basis = list(range(m, m + d))
    D = 1
    while True:
        enter = next((j for j in range(m + d) if obj[j] > 0), None)
        if enter is None:
            return obj[-1] == 0
        pr = None
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if pr is None:
                    pr = i
                    continue
                # b_i / a < b_pr / a_pr, with both a positive
                lhs, rhs = row[-1] * T[pr][enter], T[pr][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pr]):
                    pr = i
        if pr is None:
            # cannot happen: the phase-I objective is bounded below by 0
            raise RuntimeError("unbounded phase-I simplex")
        prow = T[pr]
        p = prow[enter]
        for i, row in enumerate(T):
            if i != pr:
                f = row[enter]
                T[i] = [(a * p - f * c) // D for a, c in zip(row, prow)]
        f = obj[enter]
        obj = [(o * p - f * c) // D for o, c in zip(obj, prow)]
        D = p
        basis[pr] = enter


def _dual_description(normals: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """Generators of {x : <x, h> >= 0 for every h}, sorted.

    The normals are nonzero primitive integer vectors, as ConePoly keeps
    them.  The generators are the primitive rays of the pointed part plus
    each line direction of the lineality space in both signs.
    """
    lineality: list[Vec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    # Each ray sits in a slot, and the slots of dropped rays are reused.
    # zsets[s] is the bitmask of the processed halfspaces that the ray in
    # slot s lies on; tight[k] is the bitmask of the slots on halfspace k.
    rays: list[Vec | None] = []
    zsets: list[int] = []
    tight: list[int] = []
    free: list[int] = []
    live = 0

    def place(ray: Vec, zset: int) -> int:
        if free:
            s = free.pop()
            rays[s], zsets[s] = ray, zset
        else:
            s = len(rays)
            rays.append(ray)
            zsets.append(zset)
        sb = 1 << s
        while zset:
            low = zset & -zset
            tight[low.bit_length() - 1] |= sb
            zset ^= low
        return sb

    for k, h in enumerate(normals):
        bit = 1 << k
        lvals = [sum(map(mul, l, h)) for l in lineality]
        idx = next((i for i, v in enumerate(lvals) if v), None)
        if idx is not None:
            lstar, a = lineality[idx], lvals[idx]
            if a < 0:
                lstar, a = _neg(lstar), -a
            lineality = [
                _canon_line([a * x - v * y for x, y in zip(l, lstar)]) if v
                else l
                for i, (l, v) in enumerate(zip(lineality, lvals)) if i != idx]
            # every ray moves onto h along lstar, which lies on all earlier
            # halfspaces, so no zero set loses a bit
            for s, r in enumerate(rays):
                if r is not None:
                    v = sum(map(mul, r, h))
                    if v:
                        rays[s] = _primitive([a * x - v * y
                                              for x, y in zip(r, lstar)])
                    zsets[s] |= bit
            tight.append(live)
            live |= place(lstar, bit - 1)
            continue
        vals = [0 if r is None else sum(map(mul, r, h)) for r in rays]
        neg = [s for s, v in enumerate(vals) if v < 0]
        # a halfspace that cuts nothing is redundant from here on, so
        # leaving it out of every zero set keeps the adjacency test exact
        if not neg:
            tight.append(0)
            continue
        pos = [s for s, v in enumerate(vals) if v > 0]
        # Two rays are adjacent when no third ray lies on every halfspace
        # both lie on.  An edge of the current cone lies on at least need
        # of the processed halfspaces, so a pair sharing fewer is no edge.
        need = dim - 2 - len(lineality)
        fresh: list[tuple[Vec, int]] = []
        for j in neg:
            rj, vj, zj, bj = rays[j], vals[j], zsets[j], 1 << j
            for i in pos:
                common = zsets[i] & zj
                if common.bit_count() < need:
                    continue
                on_all = live
                c = common
                while c:
                    low = c & -c
                    on_all &= tight[low.bit_length() - 1]
                    c ^= low
                if on_all == bj | 1 << i:
                    vi = vals[i]
                    fresh.append((_primitive([vi * y - vj * x for x, y
                                              in zip(rays[i], rj)]), common))
        dropped = 0
        for j in neg:
            rays[j] = None
            dropped |= 1 << j
        free.extend(neg)
        keep = ~dropped
        live &= keep
        tight = [t & keep for t in tight]
        on_h = 0
        for s, v in enumerate(vals):
            if v == 0 and rays[s] is not None:
                zsets[s] |= bit
                on_h |= 1 << s
        tight.append(on_h)
        # adjacent pairs span distinct edges, so the new rays are distinct
        # from each other and from every kept ray
        for w, common in fresh:
            live |= place(w, common | bit)
    return tuple(sorted([r for r in rays if r is not None]
                        + [s for l in lineality for s in (l, _neg(l))]))


class ConePoly:
    """A rational polyhedral cone, described by generators, facet normals,
    or both.  Whichever description is missing is computed on demand by the
    double description and cached.  The double description of the
    generators runs at most once per cone: it gives the facet normals when
    none were given, and the generators of dual_cone(cone) either way.
    Membership is the facet-sign test; the simplex route
    in_cone_lp(cone.rays(), x) is the independent check.
    """

    def __init__(self, ambient_dim: int,
                 generators: Sequence[Sequence] | None = None,
                 facets: Sequence[Sequence] | None = None) -> None:
        if generators is None and facets is None:
            raise ValueError("a cone needs generators or facet normals")
        self.ambient_dim = ambient_dim
        self._generators = self._clean(generators)
        self._facets = self._clean(facets)
        self._dual: tuple[Vec, ...] | None = None

    def _clean(self, vecs) -> tuple[Vec, ...] | None:
        if vecs is None:
            return None
        out: list[Vec] = []
        seen = set()
        for v in vecs:
            if len(v) != self.ambient_dim:
                raise ValueError(
                    f"vector {tuple(v)} does not have dimension {self.ambient_dim}"
                )
            p = _primitive(_integral(v))
            if any(p) and p not in seen:
                seen.add(p)
                out.append(p)
        return tuple(out)

    @classmethod
    def from_generators(cls, generators: Sequence[Sequence],
                        ambient_dim: int | None = None) -> "ConePoly":
        generators = list(generators)
        if ambient_dim is None:
            if not generators:
                raise ValueError("ambient_dim required for the zero cone")
            ambient_dim = len(generators[0])
        return cls(ambient_dim, generators=generators)

    @classmethod
    def from_facets(cls, facets: Sequence[Sequence],
                    ambient_dim: int | None = None) -> "ConePoly":
        facets = list(facets)
        if ambient_dim is None:
            if not facets:
                raise ValueError("ambient_dim required without facet data")
            ambient_dim = len(facets[0])
        return cls(ambient_dim, facets=facets)

    @property
    def rays_materialized(self) -> bool:
        """Whether the generator description is known without running DD."""
        return self._generators is not None

    def rays(self) -> tuple[Vec, ...]:
        """Generators; computed from the facet description if absent."""
        if self._generators is None:
            self._generators = _dual_description(self._facets,
                                                 self.ambient_dim)
        return self._generators

    def facet_normals(self) -> tuple[Vec, ...]:
        """Halfspace normals with x in cone iff all <x, n> >= 0.

        Computed from the generators if absent; lineality directions of the
        dual cone contribute both signs (equality constraints).
        """
        if self._facets is None:
            self._facets = self._dual_rays()
        return self._facets

    def _dual_rays(self) -> tuple[Vec, ...]:
        """The double description of the generators, run once."""
        if self._dual is None:
            self._dual = _dual_description(self.rays(), self.ambient_dim)
        return self._dual

    def contains(self, x: Sequence) -> bool:
        """Membership, by the signs of x against the facet normals."""
        return all(sum(map(mul, x, n)) >= 0 for n in self.facet_normals())

    def span_rank(self) -> int:
        return len(_rref(self.rays()))


def dual_cone(c: ConePoly) -> ConePoly:
    """The cone {x : <x, g> >= 0 for every generator g of c}.

    The result has c's generators as its facet normals and materialized
    generators: the double description of c's generators, the very tuple
    c.facet_normals() returns when c was built from generators, so that
    description is computed once for both.  A cone built from facets runs
    it afresh on its rays, since given facets may be redundant.  A dual
    under the intersection form is the dual of the generators pushed
    through lattice.pairing_vector.
    """
    dual = ConePoly.from_facets(c.rays(), c.ambient_dim)
    dual._generators = c._dual_rays()
    return dual


def _extremal(gens: Sequence[Vec]) -> Iterator[Vec]:
    """Each generator that is not a nonnegative combination of the others,
    in input order (the simplex route)."""
    for g in gens:
        if not in_cone_lp([h for h in gens if h != g], g):
            yield g


def _pointed(gens: Sequence[Vec]) -> bool:
    """No line in the cone: 0 is no nonnegative combination of the
    generators with coefficients summing to 1, which one LP settles."""
    return not gens or not in_cone_lp([g + (1,) for g in gens],
                                      (0,) * len(gens[0]) + (1,))


def extremal_rays(c: ConePoly) -> list[Vec]:
    """A minimal generating set of primitive rays, sorted.

    For a pointed cone this is the unique set of extremal rays, each kept
    exactly when it is not a nonnegative combination of the others (the
    simplex route).  A cone with lineality returns a canonical line basis
    in both signs plus the extremal rays of the pointed quotient.
    """
    gens = list(c.rays())
    if _pointed(gens):
        return sorted(_extremal(gens))
    lin_members = [g for g in gens if in_cone_lp(gens, _neg(g))]
    basis = _rref(lin_members)
    reduced = []
    seen = set()
    for g in gens:
        q = _primitive(_integral(_reduce(g, basis)))
        if any(q) and q not in seen:
            seen.add(q)
            reduced.append(q)
    lines = [_canon_line(_integral(b)) for _, b in basis]
    return sorted(set(lines) | {_neg(l) for l in lines} | set(_extremal(reduced)))


def is_simplicial(c: ConePoly) -> bool:
    """Pointed, with as many extremal rays as the dimension of the span;
    the count stops at one past the dimension."""
    gens = list(c.rays())
    if not _pointed(gens):
        return False  # a cone with a line
    dim = c.span_rank()
    return len(list(islice(_extremal(gens), dim + 1))) == dim


@dataclass(frozen=True)
class ConeReport:
    model: SurfaceModel
    nef: ConePoly
    psef: ConePoly
    equal: bool
    mori_simplicial: bool
    picard_number: int


def psef_generators(model: SurfaceModel) -> tuple[DivisorClass, ...]:
    """Classical generator table for the pseudo-effective cone."""
    if model.kind == BLOWUP:
        r = model.size
        if r == 0:
            return (DivisorClass(model, (1,)),)
        if r == 1:
            return (DivisorClass(model, (0, 1)), DivisorClass(model, (1, -1)))
        return enumerate_exceptional(r)
    if model.size == 2:
        return (DivisorClass(model, (1, 0)), DivisorClass(model, (0, 1)))
    raise ValueError(f"no cone report for {model}")


def surface_cone_report(model: SurfaceModel) -> ConeReport:
    """Nef/psef comparison for BlowupP2(r), 0 <= r <= 8, or ProductP1(2)."""
    gens = psef_generators(model)  # raises for unsupported models
    for g in gens:
        if canonical_degree(g) >= 0:
            raise RuntimeError(
                f"psef generator table corrupt: -K.{g} not positive")
    coords = [g.coords for g in gens]
    psef = ConePoly.from_generators(coords, model.rank)
    nef = ConePoly.from_facets([pairing_vector(model, v) for v in coords],
                               model.rank)
    if model.kind != BLOWUP or model.size <= 2:
        nef.rays()  # materialize: cheap here, huge for the larger blow-ups

    # psef inside nef, then nef inside psef; on a blow-up with r >= 1 the
    # first psef generator, an exceptional class, is already outside nef
    equal = (all(nef.contains(v) for v in coords)
             and all(psef.contains(r) for r in nef.rays()))
    return ConeReport(
        model=model,
        nef=nef,
        psef=psef,
        equal=equal,
        # on every reported model the Mori cone has the psef generators
        mori_simplicial=is_simplicial(psef),
        picard_number=model.rank,
    )

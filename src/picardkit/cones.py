"""Exact rational polyhedral cones and the nef/psef/mori surface reports.

Everything here runs over exact arithmetic.  Each vector entering the cone
engine (a ConePoly description, in_cone_lp, ConePoly.contains) is checked
once, by _integral: every length (ValueError), then every entry, which must
be int or Fraction (TypeError for float, str, bool), so no float enters.
_integral alone clears denominators; the double description, the simplex
and the row reduction run on integers and check nothing again.

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
  where it is.
  One run also gives the double description of its own output, the
  generators of the cone the normals span, read off its final zero sets
  the first time it is asked for (_Pending):
  - a normal that cut nothing when it was processed is a nonnegative
    combination of earlier ones; the run records it in a bitmask, and it
    is never a generator;
  - a kept normal is a generator when it is the only kept normal tight
    on all the rays it is tight on (the AND of their zero sets), unless
    some kept normal is tight on every output ray: that normal lies in
    the lineality space of the cone the normals span, so the cone has a
    line, and a second run, on the output, gives its generators.
  So one run on a cone's generators gives its facets, which are its
  dual's rays, and its minimal generators, which are its double dual's;
  one run on given facets gives the rays and the minimal facets, which
  are the dual's rays.  ConePoly keeps both and dual_cone hands them on,
  so a cone, its dual and its double dual cost one run, or two when the
  cone the normals span has a line.
* Membership and extremality: a phase-I simplex with Bland's rule, pivoting
  over the integers with one common denominator and no artificial
  columns, decides whether a vector is a nonnegative combination of given
  generators.  This is the second, independent route to containment next
  to the facet-sign test, and the two are required to agree.  One such LP
  decides whether a cone is pointed.  is_simplicial, the one route to
  simpliciality, runs it and stops counting extremal rays at one past the
  dimension of the span.  in_cone_lp passes its vectors through _integral,
  then calls _phase_one, the one simplex, which extremal_rays and
  is_simplicial call directly on a cone's rays, checked once when the cone
  was built.
* Row reduction: one RREF helper over primitive integer rows gives ranks,
  lineality bases and coset representatives modulo the lineality space.

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
the psef generator classes pushed through the intersection form with
lattice.pairing_vector.  report.nef_generators lists the nef rays for
the tiny models (P1 x P1, r <= 2) and is None above; it alone decides what
the JSON shows, and nef.rays() builds them on request.  For 3 <= r <= 8 they
are the conic classes plus the W(E_r) orbit of H: 702 rays at r = 7 and
19440 at r = 8.
The Mori cone of a blow-up model is identified with the psef cone (divisor
and curve classes coincide on a surface); for P1 x P1 it is the
nonnegative quadrant spanned by the two rulings.
On every reported model that orthant has the psef generators too, so the
report decides Mori simpliciality by is_simplicial on the psef cone
itself, and psef inside nef by the nef cone's own facet test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .curves import enumerate_exceptional
from .lattice import (BLOWUP, DivisorClass, FrozenValue, SurfaceModel,
                      canonical_degree, is_exact_int, pairing_vector,
                      short_repr)

Vec = tuple[int, ...]


def _neg(v: Sequence) -> tuple:
    return tuple(-a for a in v)


def _integral(vecs: Iterable[Iterable], dim: int) -> list[Vec]:
    """The vectors, read once, as integer tuples of length dim.

    Every length is checked (ValueError), then every entry type: int or
    Fraction, else TypeError.  A vector with a Fraction is scaled by the lcm
    of its denominators, which changes no ray, halfspace or membership.
    """
    vecs = [tuple(v) for v in vecs]
    for v in vecs:
        if len(v) != dim:
            raise ValueError(f"vector {short_repr(v)} does not have "
                             f"dimension {dim}")
    kinds = set(map(type, chain.from_iterable(vecs)))
    if kinds <= {int}:
        return vecs
    bad = kinds - {int, Fraction}
    if bad:
        raise TypeError(
            f"cone entries must be int or Fraction, not {bad.pop().__name__}")
    dens = [lcm(*(a.denominator for a in v)) for v in vecs]
    return [tuple([a.numerator * (d // a.denominator) for a in v])
            for v, d in zip(vecs, dens)]


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


def _reduce(row: Sequence[int], basis: list[tuple[int, Vec]]) -> Vec:
    """row with its pivot columns cleared against a _rref basis, made
    primitive: a positive multiple of the canonical coset representative
    modulo the span of the basis."""
    for piv, b in basis:
        f = row[piv]
        if f:
            p = b[piv]
            row = [a * p - f * c for a, c in zip(row, b)]
    return _primitive(row)


def _rref(vectors: Iterable[Sequence[int]]) -> list[tuple[int, Vec]]:
    """Reduced row echelon basis of the span, as (pivot column, row) pairs.

    Each row is primitive, positive at its own pivot and 0 at every other
    pivot: a positive multiple of the rational row that is 1 there.  The
    rank is the length of the basis.  Stops once the basis spans everything.
    """
    basis: list[tuple[int, Vec]] = []
    for vec in vectors:
        row = _reduce(vec, basis)
        piv = next((i for i, v in enumerate(row) if v), None)
        if piv is None:
            continue
        if row[piv] < 0:
            row = _neg(row)
        p = row[piv]
        # re-reduce the earlier rows so the basis stays in reduced form
        basis = [(q, _primitive([a * p - b[piv] * c for a, c in zip(b, row)])
                  if b[piv] else b)
                 for q, b in basis]
        basis.append((piv, row))
        if len(basis) == len(row):
            break
    return basis


def in_cone_lp(generators: Iterable[Iterable], x: Iterable) -> bool:
    """Is x a nonnegative rational combination of the generators?

    x and the generators, any iterables, pass _integral together, once, so
    a generator of another length than x raises ValueError.  Its scaling
    changes neither the answer nor the pivots of _phase_one.
    """
    x = tuple(x)
    *generators, x = _integral(chain(generators, (x,)), len(x))
    return _phase_one(generators, x)


def _phase_one(generators: Sequence[Sequence[int]],
               x: Sequence[int]) -> bool:
    """Whether sum_j y_j g_j = x has a solution y >= 0, for integer vectors
    of one length, which it trusts: one row [g_1[i], ..., g_m[i], x[i]] per i.

    Phase-I simplex with Bland's rule, pivoting over the integers
    (Edmonds 1967; Bareiss 1968).  The rational tableau is T / D for an
    integer matrix T and one common denominator D > 0, which starts at 1.
    A pivot on p = T[r][e] keeps row r, replaces every other entry a by
    (a*p - f*c) // D, where f is the entry of a's row in column e and c that
    of row r in a's column, and then sets D = p.  Each division is exact,
    since every entry of T is a minor of the starting matrix.  As D stays
    positive, signs are those of the rational tableau and the ratio test
    compares cross products.  The tableau holds only the generator columns
    and the right-hand side: each row starts with an artificial in the
    basis, and one that leaves is never let back in, since fixing it at 0
    keeps every feasible point.  The simplex stops once the phase-I value
    is 0.  Its answer is the Fraction simplex's; the pivots may differ.
    """
    m, d = len(generators), len(x)
    # columns: the m generators, then the right-hand side, made nonnegative
    T = [[g[i] for g in generators] + [x[i]] if x[i] >= 0
         else [-g[i] for g in generators] + [-x[i]] for i in range(d)]
    # phase-I objective row: the row sum, ending in the artificials' sum
    obj = [sum(col) for col in zip(*T)] or [0] * (m + 1)
    # the labels of the artificials, for Bland's tie-break
    basis = list(range(m, m + d))
    D = 1
    while obj[-1]:
        enter = next((j for j in range(m) if obj[j] > 0), None)
        if enter is None:
            return False
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
    return True


def _dual_description(normals: Sequence[Vec],
                      dim: int) -> tuple[tuple[Vec, ...], "_Pending"]:
    """Generators of {x : <x, h> >= 0 for every h}, sorted, and the run's
    final state, from which _Pending.read gives the double description of
    those generators without running again.

    The normals are distinct nonzero primitive integer vectors, as
    ConePoly keeps them.  The generators are the primitive rays of the
    pointed part plus each line direction of the lineality space in both
    signs.
    """
    lineality: list[Vec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    # Slots are append-only: a dropped ray leaves None, and live, the
    # bitmask of the slots holding a ray, masks it out.  zsets[s]: the
    # processed halfspaces slot s lies on; tight[k]: the slots on k;
    # redundant: the halfspaces that cut nothing.
    rays: list[Vec | None] = []
    zsets: list[int] = []
    tight: list[int] = []
    live = redundant = 0

    def place(ray: Vec, zset: int) -> int:
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
            redundant |= bit
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
        for j in neg:
            rays[j] = None
            live ^= 1 << j
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
    gens = tuple(sorted([r for r in rays if r is not None]
                        + [s for l in lineality for s in (l, _neg(l))]))
    kept = ((1 << len(normals)) - 1) & ~redundant
    return gens, _Pending(normals, dim, gens, tight, zsets, live, kept)


class _Pending:
    """The double description of a run's output gens, the generators of
    cone(normals), read off the state the run ended in the first time it
    is asked for, by the rules in the module docstring.  When cone(normals)
    has a line, reading it is a second run, on gens.  Plain data, so a
    cone holding one copies and pickles.
    """

    __slots__ = ("normals", "dim", "gens", "tight", "zsets", "live", "kept",
                 "answer")

    def __init__(self, normals: Sequence[Vec], dim: int,
                 gens: tuple[Vec, ...], tight: list[int], zsets: list[int],
                 live: int, kept: int) -> None:
        self.normals, self.dim, self.gens = normals, dim, gens
        self.tight, self.zsets, self.live, self.kept = tight, zsets, live, kept
        self.answer: tuple[Vec, ...] | None = None

    def read(self) -> tuple[Vec, ...]:
        """_dual_description(gens, dim)[0], derived once."""
        if self.answer is None:
            self.answer = self._derive()
        return self.answer

    def _derive(self) -> tuple[Vec, ...]:
        tight, zsets, live, kept = self.tight, self.zsets, self.live, self.kept
        out = []
        for k, h in enumerate(self.normals):
            if not kept >> k & 1:
                continue
            z = tight[k] & live
            if z == live:  # the normals span a line
                return _dual_description(self.gens, self.dim)[0]
            on_all = kept
            while z:
                low = z & -z
                on_all &= zsets[low.bit_length() - 1]
                z ^= low
            if on_all == 1 << k:
                out.append(h)
        return tuple(sorted(out))


class ConePoly:
    """A rational polyhedral cone, described by generators, facet normals,
    or both.  Whichever description is missing is computed on demand by the
    double description and cached.  Membership is the facet-sign test; the
    simplex route in_cone_lp(cone.rays(), x) is the independent check.

    A cone also keeps two double descriptions, each a tuple, a _Pending
    not yet read, or None until needed: _dual, that of its generators (its
    dual's generators, and its facets when it was built from generators),
    and _minimal, that of _dual (its own generators in the double
    description's form).  One run gives both, as the module docstring says.
    """

    def __init__(self, ambient_dim: int,
                 generators: Sequence[Sequence] | None = None,
                 facets: Sequence[Sequence] | None = None) -> None:
        if generators is None and facets is None:
            raise ValueError("a cone needs generators or facet normals")
        if not (is_exact_int(ambient_dim) and ambient_dim >= 0):
            raise ValueError(f"ambient dimension must be a nonnegative "
                             f"integer, got {short_repr(ambient_dim)}")
        self.ambient_dim = ambient_dim
        self._generators = self._clean(generators)
        self._facets = self._clean(facets)
        self._dual: tuple[Vec, ...] | _Pending | None = None
        self._minimal: tuple[Vec, ...] | _Pending | None = None

    def _clean(self, vecs) -> tuple[Vec, ...] | None:
        if vecs is None:
            return None
        vecs = _integral(vecs, self.ambient_dim)
        # distinct nonzero primitive vectors, in first-seen order
        return tuple(dict.fromkeys(p for p in map(_primitive, vecs) if any(p)))

    @classmethod
    def _described(cls, ambient_dim: int, generators: tuple[Vec, ...],
                   facets: tuple[Vec, ...],
                   dual: tuple[Vec, ...] | _Pending) -> "ConePoly":
        """A cone from two descriptions already clean, distinct nonzero
        primitive integer vectors, the generators in the double
        description's form, and the double description of the
        generators."""
        cone = cls.__new__(cls)
        cone.ambient_dim, cone._generators, cone._facets = (
            ambient_dim, generators, facets)
        cone._dual, cone._minimal = dual, generators
        return cone

    @staticmethod
    def _read(vecs: Iterable[Sequence], ambient_dim: int | None,
              empty: str) -> tuple[list[Vec], int]:
        """The vectors, read once, and ambient_dim, or else the first
        vector's length (ValueError(empty) when there is none)."""
        vecs = [tuple(v) for v in vecs]
        if ambient_dim is None:
            if not vecs:
                raise ValueError(empty)
            ambient_dim = len(vecs[0])
        return vecs, ambient_dim

    @classmethod
    def from_generators(cls, generators: Sequence[Sequence],
                        ambient_dim: int | None = None) -> "ConePoly":
        generators, ambient_dim = cls._read(
            generators, ambient_dim, "ambient_dim required for the zero cone")
        return cls(ambient_dim, generators=generators)

    @classmethod
    def from_facets(cls, facets: Sequence[Sequence],
                    ambient_dim: int | None = None) -> "ConePoly":
        facets, ambient_dim = cls._read(
            facets, ambient_dim, "ambient_dim required without facet data")
        return cls(ambient_dim, facets=facets)

    def rays(self) -> tuple[Vec, ...]:
        """Generators; computed from the facet description if absent."""
        if self._generators is None:
            self._generators, self._dual = _dual_description(
                self._facets, self.ambient_dim)
            self._minimal = self._generators
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
        """The double description of the generators, run at most once."""
        if self._dual is None:
            gens = self.rays()  # a cone built from facets sets _dual here
            if self._dual is None:
                self._dual, self._minimal = _dual_description(
                    gens, self.ambient_dim)
        if self._dual.__class__ is _Pending:
            self._dual = self._dual.read()
        return self._dual

    def contains(self, x: Iterable) -> bool:
        """Membership, by the signs of x, checked by _integral, against the
        facet normals."""
        (x,) = _integral((x,), self.ambient_dim)
        return all(sum(map(mul, x, n)) >= 0 for n in self.facet_normals())

    def span_rank(self) -> int:
        return len(_rref(self.rays()))


def dual_cone(c: ConePoly) -> ConePoly:
    """The cone {x : <x, g> >= 0 for every generator g of c}.

    The result has c's generators, already clean, as its facet normals,
    and as generators the double description of c's generators: the very
    tuple c.facet_normals() returns when c was built from generators, or
    what c's own run left pending when c was built from facets, so minimal
    even where the given facets were redundant.  Its double description is
    c's generators in their minimal form, c._minimal, handed on pending,
    so dual_cone(dual_cone(c)) runs a second double description only
    when the normals of c's run span a line.  A dual under the
    intersection form is the dual of the generators pushed through
    lattice.pairing_vector.
    """
    dual = c._dual_rays()
    return ConePoly._described(c.ambient_dim, dual, c.rays(), c._minimal)


def _extremal(gens: Sequence[Vec]) -> Iterator[Vec]:
    """Each generator that is not a nonnegative combination of the others,
    in input order (the simplex route)."""
    for g in gens:
        if not _phase_one([h for h in gens if h != g], g):
            yield g


def _pointed(gens: Sequence[Vec]) -> bool:
    """No line in the cone: 0 is no nonnegative combination of the
    generators with coefficients summing to 1, which one LP settles."""
    return not gens or not _phase_one([g + (1,) for g in gens],
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
    lin_members = [g for g in gens if _phase_one(gens, _neg(g))]
    basis = _rref(lin_members)
    reduced = []
    seen = set()
    for g in gens:
        q = _reduce(g, basis)
        if any(q) and q not in seen:
            seen.add(q)
            reduced.append(q)
    lines = [_canon_line(b) for _, b in basis]
    return sorted(set(lines) | {_neg(l) for l in lines} | set(_extremal(reduced)))


def is_simplicial(c: ConePoly) -> bool:
    """Pointed, with as many extremal rays as the dimension of the span;
    the count stops at one past the dimension."""
    gens = list(c.rays())
    if not _pointed(gens):
        return False  # a cone with a line
    dim = c.span_rank()
    return len(list(islice(_extremal(gens), dim + 1))) == dim


class ConeReport(FrozenValue):
    __slots__ = ("model", "nef", "psef", "nef_generators", "equal",
                 "mori_simplicial", "picard_number")
    model: SurfaceModel
    nef: ConePoly
    psef: ConePoly
    nef_generators: tuple[Vec, ...] | None  # None unless cheap to list
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
    return (DivisorClass(model, (1, 0)), DivisorClass(model, (0, 1)))


def surface_cone_report(model: SurfaceModel) -> ConeReport:
    """Nef/psef comparison for BlowupP2(r), 0 <= r <= 8, or ProductP1(2)."""
    gens = psef_generators(model)
    for g in gens:
        if canonical_degree(g) >= 0:
            raise RuntimeError(
                f"psef generator table corrupt: -K.{g} not positive")
    coords = [g.coords for g in gens]
    psef = ConePoly.from_generators(coords, model.rank)
    nef = ConePoly.from_facets([pairing_vector(g) for g in gens], model.rank)
    small = model.kind != BLOWUP or model.size <= 2  # few nef rays

    # psef inside nef, then nef inside psef; on a blow-up with r >= 1 the
    # first psef generator, an exceptional class, is already outside nef
    equal = (all(nef.contains(v) for v in coords)
             and all(psef.contains(r) for r in nef.rays()))
    # mori_simplicial is is_simplicial(psef): on every reported model the
    # Mori cone has the psef generators
    return ConeReport(model, nef, psef, nef.rays() if small else None,
                      equal, is_simplicial(psef), model.rank)

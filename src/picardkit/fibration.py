"""Pairs of conic fibration classes: degree, finiteness, degree bounds.

A pair (c1, c2) of distinct conic classes on BlowupP2(r) induces a map to
P^1 x P^1 whose degree is the pairing c1.c2.  The map is finite exactly when
that degree is positive and no curve is contracted by both fibrations.
"Contracted by both" is decided against the exceptional classes only: on
these lattices every irreducible class with negative square is exceptional,
and a common irreducible fiber would force degree 0, which is reported
separately through the degree field.

The signature-(1, r) index bound 2 K^2 (c1.c2) <= (K.c1 + K.c2)^2 caps the
degree at 8 / K^2 for conic pairs (the right side is 16); max_degree_bound
is that cap, and the pair scan checks its maximum degree against it.
Pairs live on BlowupP2 models only (see curves).

For one pair, which exceptional classes a conic contracts comes from the
per-rank contraction table of curves (one int bitmask per conic), so the
classes two conics both contract are the bits of mask1 & mask2.  The
whole-rank pair scan (rank 8 has 2160 conic classes, about 2.3 million
unordered pairs) runs once per rank in pure Python and uses the S_r
symmetry that permutes E_1, ..., E_r: it preserves the pairing and the
exceptional family, so every class of one orbit signature has the same
partners up to relabelling.  The scan pairs one representative per
signature (15 at rank 8) with every class and weights each count by the
size of the representative's orbit.  That counts each unordered pair once
from each end, so every count is halved.

The scan reads conic coordinates (curves.conic_coords), not classes, and
builds a DivisorClass for its representatives alone; the contraction
table's keys are conic coordinates too, so neither calls enumerate_conic,
while analyze_pair reads the pair's classes.  The scan deals in bitmasks
over the conics (bit y is conic y), read off one lattice.packed_dots call:
per representative x, the conics y at each degree x.y, less those with
e.y = 0 for a class e that x contracts, which share e with x and so are
not finite partners.  The classes x contracts come from lattice.zero_masks,
the contraction table's route to e.c = 0.  A count per (signature, degree)
is then the popcount of that level's mask and the signature's members.
The degree loop stops at the largest degree present, not at the bound it
is checked against.  It builds no contraction table.  It groups the conics
by one key per conic, the degree and the sorted E-coordinates, and takes
each orbit's OrbitSignature record from curves.orbit_signature on the
orbit's one class, so curves alone builds those records.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .curves import (
    OrbitSignature,
    conic_coords,
    contraction_table,
    enumerate_exceptional,
    is_conic,
    orbit_signature,
    selected,
)
from .lattice import (BLOWUP, DivisorClass, FrozenValue, SurfaceModel,
                      canonical_degree, check_class, dense_mask,
                      fields_at_least, is_exact_int, packed_dots, pairing,
                      pairing_vector, short_repr, zero_fields,
                      zero_masks)


class FibrationPair(FrozenValue):
    __slots__ = ("model", "c1", "c2")
    model: SurfaceModel
    c1: DivisorClass
    c2: DivisorClass

    def __init__(self, model: SurfaceModel, c1: DivisorClass,
                 c2: DivisorClass) -> None:
        if model.kind != BLOWUP:
            raise ValueError(f"fibration pairs need a BlowupP2 model, "
                             f"got {model}")
        for c in (c1, c2):
            if c.__class__ is not DivisorClass or c.model is not model:
                check_class(c, model)
            if not is_conic(c):
                raise ValueError(f"{c} is not a conic fibration class")
        if c1 == c2:
            raise ValueError("fibration pair needs two distinct classes")
        FrozenValue.__init__(self, model, c1, c2)


class FinitenessReport(FrozenValue):
    __slots__ = ("degree", "common_contracted", "is_finite")
    degree: int
    common_contracted: tuple[DivisorClass, ...]
    is_finite: bool


class HodgeBound(FrozenValue):
    __slots__ = ("lhs", "rhs", "holds")
    lhs: int
    rhs: int
    holds: bool


class PairClassEntry(FrozenValue):
    """One group of finite pairs: unordered signature pair, degree, count."""

    __slots__ = ("signature_pair", "degree", "count")
    signature_pair: tuple[OrbitSignature, OrbitSignature]
    degree: int
    count: int


class PairScanSummary(FrozenValue):
    """Whole-rank facts about the set of unordered conic pairs."""

    __slots__ = ("rank", "class_count", "pair_count", "max_degree",
                 "hodge_holds", "finite_pair_count", "finite_degrees")
    rank: int
    class_count: int
    pair_count: int
    max_degree: int
    hodge_holds: bool
    finite_pair_count: int
    finite_degrees: tuple[int, ...]


def analyze_pair(pair: FibrationPair,
                 exceptional: tuple[DivisorClass, ...] | None = None
                 ) -> FinitenessReport:
    """Degree, commonly contracted exceptional classes, and finiteness.

    The contracted classes come from the contraction table.  A family, if
    given, must be the exceptional family of the pair's model
    (enumerate_exceptional, or a tuple with the same members).
    """
    if not isinstance(pair, FibrationPair):
        raise TypeError(f"expected FibrationPair, got {type(pair).__name__}")
    table_fam, masks = contraction_table(pair.model.size)
    # members carry their model, so this also tells the ranks apart
    if (exceptional is not None and exceptional is not table_fam
            and exceptional != table_fam):
        raise ValueError("analyze_pair needs the exceptional family of the "
                         "pair's model")
    degree = pairing(pair.c1, pair.c2)
    contracted = selected(table_fam, masks.get(pair.c1.coords, 0)
                          & masks.get(pair.c2.coords, 0))
    return FinitenessReport(degree, contracted,
                            degree > 0 and not contracted)


def hodge_bound(model: SurfaceModel, c1: DivisorClass,
                c2: DivisorClass) -> HodgeBound:
    """Index-theorem inequality 2 K^2 (c1.c2) <= (K.c1 + K.c2)^2 for
    square-zero classes, with K^2 = 9 - r on BlowupP2(r)."""
    if model.kind != BLOWUP:
        raise ValueError("hodge_bound needs a BlowupP2 model")
    for c in (c1, c2):
        if c.__class__ is not DivisorClass or c.model is not model:
            check_class(c, model)
        if pairing(c, c) != 0:
            raise ValueError(f"{c} is not square-zero")
    lhs = 2 * (9 - model.size) * pairing(c1, c2)
    rhs = (canonical_degree(c1) + canonical_degree(c2)) ** 2
    return HodgeBound(lhs, rhs, lhs <= rhs)


def max_degree_bound(r: int) -> int:
    """Degree cap floor(8 / K^2) for finite conic pairs on BlowupP2(r)."""
    if not (is_exact_int(r) and 1 <= r <= 8):
        raise ValueError(f"need 1 <= r <= 8, got {short_repr(r)}")
    return 8 // (9 - r)


@cache
def _pair_scan(r: int) -> tuple[PairScanSummary, tuple[PairClassEntry, ...]]:
    """The scan summary and the finite-pair classification of one rank.

    Pairs one representative per orbit signature with every conic class,
    all conics at once; see the module docstring for the weighting.
    """
    coords = conic_coords(r)
    n = len(coords)
    model = SurfaceModel.blowup_p2(r)
    # per orbit, the bitmask of its members (bit y is conic y), keyed by
    # degree and ascending E-coordinates: one sort per conic
    orbits: dict[tuple[int, ...], int] = {}
    for y, c in enumerate(coords):
        key = (c[0], *sorted(c[1:]))
        orbits[key] = orbits.get(key, 0) | 1 << y
    # per orbit, its first member as the one class the scan builds, and
    # that class's signature; the orbits in signature order
    groups = []
    for m in orbits.values():
        x = DivisorClass(model, coords[(m & -m).bit_length() - 1])
        groups.append((orbit_signature(x), x, m))
    sigs, reps, members = zip(*sorted(groups, key=itemgetter(0)))
    # the exceptional classes each representative contracts, e.x = 0, as
    # the vectors that dot against a conic's coordinates
    twisted = tuple(pairing_vector(e) for e in enumerate_exceptional(r))
    contracted = [selected(twisted, mask) for mask in
                  zero_masks(twisted, [x.coords for x in reps])]
    # per representative x: x.y for every conic y, then, for each class e
    # that x contracts, the conics y with e.y = 0, which are not finite
    # partners of x
    vectors = []
    for x, found in zip(reps, contracted):
        vectors.append(pairing_vector(x))
        vectors += found
    ones, dots = packed_dots(coords, vectors)
    counts: dict[tuple[int, int, int], int] = {}
    max_degree = 0
    for s, found in enumerate(contracted):
        size = members[s].bit_count()
        degrees = next(dots)
        blocked = 0
        for _ in found:
            blocked |= zero_fields(next(dots), ones)
        # y meets x at least degree times; x.x = 0 leaves x itself out
        degree = 1
        at_least = fields_at_least(degrees, ones, 1)
        while at_least:
            above = fields_at_least(degrees, ones, degree + 1)
            exact = dense_mask(at_least & ~(above | blocked), n)
            if exact:
                for t, m in enumerate(members):
                    k = (exact & m).bit_count()
                    if k:
                        key = (s, t, degree) if s <= t else (t, s, degree)
                        counts[key] = counts.get(key, 0) + k * size
            at_least = above
            degree += 1
        max_degree = max(max_degree, degree - 1)
    entries = tuple(
        PairClassEntry((sigs[a], sigs[b]), deg, total // 2)
        for (a, b, deg), total in sorted(counts.items()))
    summary = PairScanSummary(
        rank=r,
        class_count=n,
        pair_count=n * (n - 1) // 2,
        max_degree=max_degree,
        hodge_holds=max_degree <= max_degree_bound(r),
        finite_pair_count=sum(e.count for e in entries),
        finite_degrees=tuple(sorted({e.degree for e in entries})),
    )
    return summary, entries


def scan_conic_pairs(r: int) -> PairScanSummary:
    """Exhaustive facts over every unordered pair of conic classes."""
    return _pair_scan(r)[0]


def classify_finite_pairs(r: int) -> list[PairClassEntry]:
    """Group all finite unordered conic pairs by signature pair and degree.

    Entries are sorted by (first signature, second signature, degree); each
    signature pair is ordered with the smaller signature first.
    """
    return list(_pair_scan(r)[1])

"""Exhaustive enumeration of distinguished curve classes on blow-up models.

Two families are enumerated on BlowupP2(r), writing classes as
dH - sum(m_i E_i):

* exceptional classes: c^2 = -1 and c.K = -1, i.e.
  d^2 - sum m_i^2 = -1 and 3d - sum m_i = 1;
* conic fibration classes: c^2 = 0 and c.K = -2, i.e.
  d^2 = sum m_i^2 and 3d - sum m_i = 2.

Cauchy-Schwarz caps the degree: (3d-1)^2 <= r(d^2+1) for exceptional
classes and (3d-2)^2 <= r d^2 for conic classes, and each multiplicity by
m_i^2 <= d^2 + 1.  The search is a positional depth-first walk over
multiplicity vectors inside those bounds, pruned by feasibility of the
remaining sum and square sum.  It is a plain recursive function that
appends each finished vector to one list, and it solves the last entry
rather than searching it: v = target sum - the others, kept when it lies
in the box and the square sum matches.  The independent test oracle walks
descending multisets instead, so the two routes share no loop structure,
and a property test checks the walker against a filter over the whole box.

Degrees below zero are not curve classes and are never searched.  At d = 0
the exceptional equations admit only the basis classes E_i: a sum of -1
with a square sum of 1 forces a single m_i = -1.  For d >= 1 every solution
of the exceptional system automatically has all m_i >= 0: were some
m_j <= -1, dropping it leaves sum' >= 3d and square budget <= d^2, and
Cauchy-Schwarz over at most 7 remaining coordinates would force
9d^2 <= 7d^2, impossible for d >= 1.  The conic system behaves the same
way ((3d-1)^2 <= 7(d^2-1) has no integer solutions at all).  So for d >= 1
the walk searches m_i >= 0 alone; the oracle still searches both signs.

Classes here live purely in the lattice.  Whether a class is realized by an
actual curve depends on the blown-up points being in general position,
which has no lattice counterpart; the enumerations assume it.

Output order is lexicographic on (d, multiplicity vector), so reports and
JSON renderings are stable across runs.  A family is a plain tuple of
classes, built once per rank and shared, so every caller gets the same
object; each class carries its model, so two families are equal exactly
when they have the same model and members.  The conic coordinates come
first: conic_coords(r) is the tuple of coordinate tuples, cached per rank
and refusing what enumerate_conic refuses, and enumerate_conic(r) builds
one checked DivisorClass on each, sharing the tuple.  Who reads which:
the pencil queries, orbit signatures, the cone layer and the CLI listings
read classes; the contraction table, the fibre pairs that
reducible_fibers keeps per conic (keyed by rank and coordinates), the
whole-rank pair scan of fibration and the rank check of the CLI's pairs
command read coordinates alone, so a cold pair scan builds one class per
orbit signature, and the table and the fibre pairs build none.

Contraction: a conic fibration contracts an exceptional class e exactly
when e.c = 0, and then c - e is exceptional too and meets e once (its square
is -1, its K-degree -1, and e.(c - e) = 1), so the contracted classes are
the components of the reducible fibres (Manin, Cubic Forms, ch. IV;
Dolgachev, Classical Algebraic Geometry, ch. 8).  lattice.zero_masks is
the one route to the test e.c = 0: contraction_table takes from it, once
per rank, each conic's bitmask of the exceptional classes it contracts
(bit i is member i of the family), and the pair scan of fibration its
representatives' masks.  selected(fam, mask) decodes a mask into the
family's members.  The table is the route to that fact for a given conic:
reducible_fibers and the pair analysis in fibration read it, and a family
passed to them must equal the table's own.  reducible_fibers finds the
partner b = c - a of each contracted a among the members c contracts
(b.c = b.a + b^2 = 0): x -> c - x reverses the lexicographic order, so in
coordinate order the i-th pairs with the i-th from the end.  It pairs each
conic once: _fiber_pairs(r, coords) keeps the (a, b) pairs, filled on
first use, and reducible_fibers asks it only after checking the class,
the model, that the class is a conic and the family, so it holds at most
one entry per conic class (2334 over r = 1..8).  A call builds only its
records, each with the caller's class as total and a cached pair as
components, in a new list; the records are not cached.  The table
tests e.c = 0 and nothing else, so that each fibre's components are
exceptional and meet once rests on the theorem above;
test_reducible_fibers_match_direct_scan checks it for every fibre at
r = 1..8.  Both take BlowupP2 models only: the rulings of P1 x P1 are conic
classes too, but no table covers them.
"""

from __future__ import annotations

from functools import cache, total_ordering
from math import isqrt
from operator import attrgetter, neg
from types import MappingProxyType
from typing import Mapping, Sequence

from .lattice import (BLOWUP, MAX_BLOWUP_POINTS, DivisorClass, FrozenValue,
                      SurfaceModel, canonical_degree, check_class, pairing,
                      pairing_vector, zero_masks)


@total_ordering
class OrbitSignature(FrozenValue):
    """(degree, descending multiplicity multiset): the fingerprint of a
    class up to permutations of the blown-up points.  Signatures order as
    that pair, and not against any other type."""

    __slots__ = ("degree", "multiplicities")
    degree: int
    multiplicities: tuple[int, ...]

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) < key(other)
        return NotImplemented

    def __str__(self) -> str:
        return f"({self.degree}; {','.join(map(str, self.multiplicities))})"


def selected(fam: tuple, mask: int) -> tuple:
    """The members of fam, a family of classes or of their vectors, whose
    bit is set in mask (bit i is member i), in family order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(fam[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


class ReducibleFiber(FrozenValue):
    """A conic-class decomposition into two exceptional components.

    A fibre built by a caller is checked: a + b = total, a^2 = b^2 = -1
    and a.b = 1.  reducible_fibers builds its fibres through _from_table
    without that check: it stores the caller's total and one (a, b) pair
    of _fiber_pairs, as it is, through the class's _store with no
    argument binding, so every call on one conic shares those pairs.
    The contraction table marks each exceptional a with a.total = 0, and
    the theorem in the module docstring makes total - a exceptional with
    a.(total - a) = 1; the Tier-1 tests check every fibre of every conic
    class at r = 1..8 against these equations and a direct scan.
    """

    __slots__ = ("total", "components")
    total: DivisorClass
    components: tuple[DivisorClass, DivisorClass]

    def __init__(self, total: DivisorClass,
                 components: Sequence[DivisorClass]) -> None:
        a, b = components
        if a + b != total:
            raise ValueError("components do not sum to the fiber class")
        if pairing(a, a) != -1 or pairing(b, b) != -1 or pairing(a, b) != 1:
            raise ValueError("components are not exceptional classes meeting once")
        FrozenValue.__init__(self, total, (a, b))

    @classmethod
    def _from_table(cls, total: DivisorClass,
                    components: tuple[DivisorClass, DivisorClass]
                    ) -> "ReducibleFiber":
        """The fibre of total whose components are the pair (a, b), read
        from the contraction table; the pair is stored as it is."""
        fiber = object.__new__(cls)
        cls._store(fiber, (total, components))
        return fiber


def is_conic(c: DivisorClass) -> bool:
    return canonical_degree(c) == -2 and pairing(c, c) == 0


def _mult_vectors(r: int, target_sum: int, target_sq: int,
                  low: int) -> list[tuple[int, ...]]:
    """Positional DFS, in lexicographic order, over integer vectors m with
    the given sum and square sum (>= 0), entries low <= m_i <=
    isqrt(target_sq), with low = 0 or -isqrt(target_sq).  The last entry
    is solved, not searched: it is target_sum less the others."""
    bound = isqrt(target_sq)
    out: list[tuple[int, ...]] = []
    if not r:
        if target_sum == target_sq == 0:
            out.append(())
        return out
    prefix = [0] * r
    last = r - 1

    def rec(i: int, s: int, q: int) -> None:
        if i == last:
            v = target_sum - s
            if low <= v <= bound and q + v * v == target_sq:
                prefix[i] = v
                out.append(tuple(prefix))
            return
        k = last - i  # entries after this one
        for v in range(low, bound + 1):
            q2 = q + v * v
            if q2 > target_sq:
                continue
            s2 = s + v
            rem_s = target_sum - s2
            rem_q = target_sq - q2
            if rem_s * rem_s > k * rem_q:
                continue  # Cauchy-Schwarz: unreachable sum
            prefix[i] = v
            rec(i + 1, s2, q2)

    rec(0, 0, 0)
    return out


def _family_coords(r: int, k: int, eps: int,
                   d0: int) -> tuple[tuple[int, ...], ...]:
    """The coordinates (d, -m_1, ..., -m_r) of the classes c = dH -
    sum(m_i E_i) of BlowupP2(r) with -K.c = k and c^2 = -eps, i.e. sum m_i
    = 3d - k and sum m_i^2 = d^2 + eps, for d >= d0 while Cauchy-Schwarz
    allows them, in lexicographic order on (d, m)."""
    out = []
    d = d0
    while (3 * d - k) ** 2 <= r * (d * d + eps):
        # no multiplicity is negative once d >= 1 (see the module docstring)
        low = 0 if d else -isqrt(d * d + eps)
        out += [(d, *map(neg, m))
                for m in _mult_vectors(r, 3 * d - k, d * d + eps, low)]
        d += 1
    return tuple(out)


@cache
def enumerate_exceptional(r: int) -> tuple[DivisorClass, ...]:
    """All classes with c^2 = c.K = -1 on BlowupP2(r), 0 <= r <= 8."""
    model = SurfaceModel.blowup_p2(r)
    return tuple([DivisorClass(model, x)
                  for x in _family_coords(r, 1, 1, 0)])


@cache
def conic_coords(r: int) -> tuple[tuple[int, ...], ...]:
    """The coordinates of enumerate_conic(r), in its order: one tuple per
    conic class of BlowupP2(r), 1 <= r <= 8, built once per rank and
    shared.  It refuses what enumerate_conic refuses."""
    if not 1 <= r <= MAX_BLOWUP_POINTS:
        raise ValueError(f"conic enumeration needs 1 <= r <= "
                         f"{MAX_BLOWUP_POINTS}, got {r}")
    SurfaceModel.blowup_p2(r)  # refuses True, 8.0 and other non-ints
    return _family_coords(r, 2, 0, 1)


@cache
def enumerate_conic(r: int) -> tuple[DivisorClass, ...]:
    """All classes with c^2 = 0, c.K = -2 on BlowupP2(r), 1 <= r <= 8;
    each class's coords is the tuple conic_coords(r) holds."""
    coords = conic_coords(r)
    model = SurfaceModel.blowup_p2(r)
    return tuple([DivisorClass(model, x) for x in coords])


def orbit_signature(c: DivisorClass) -> OrbitSignature:
    """Degree plus the sorted multiplicity multiset of a blow-up class."""
    if c.__class__ is not DivisorClass:
        check_class(c)
    if c.model.kind != BLOWUP:
        raise ValueError("multiplicities only make sense on BlowupP2")
    coords = c.coords
    # ascending E-coordinates are descending multiplicities, negated
    return OrbitSignature(coords[0], tuple(map(neg, sorted(coords[1:]))))


@cache
def contraction_table(r: int) -> tuple[tuple[DivisorClass, ...],
                                       Mapping[tuple[int, ...], int]]:
    """The exceptional family of BlowupP2(r) and, per conic class, the
    bitmask over that family of the exceptional classes it contracts.

    The map is keyed by conic coordinates; a conic absent from it has no
    reducible fibre and contracts nothing.  Built once per rank from the
    test e.c = 0 (lattice.zero_masks), and shared by every caller as a
    read-only mapping.
    """
    fam = enumerate_exceptional(r)
    if not fam:  # P^2 has no exceptional class, and no conic class
        return fam, MappingProxyType({})
    conics = conic_coords(r)
    # e.c as the dot product of e's pairing vector with c
    masks = zero_masks([pairing_vector(e) for e in fam], conics)
    return fam, MappingProxyType({c: mask for c, mask in zip(conics, masks)
                                  if mask})


@cache
def _fiber_pairs(r: int, coords: tuple[int, ...]
                 ) -> tuple[tuple[DivisorClass, DivisorClass], ...]:
    """The components (a, b) of each reducible fibre of the conic class
    of BlowupP2(r) with these coordinates, ordered by a's coordinates:
    read once per conic from the contraction table, and shared."""
    fam, masks = contraction_table(r)
    # partners pair off from the two ends of the coordinate order (see the
    # module docstring); the table fixed the fibre equations, and the
    # Tier-1 tests check them
    contracted = sorted(selected(fam, masks.get(coords, 0)),
                        key=attrgetter("coords"))
    return tuple(zip(contracted[:len(contracted) // 2], reversed(contracted)))


def reducible_fibers(c: DivisorClass,
                     fam: tuple[DivisorClass, ...]) -> list[ReducibleFiber]:
    """All splittings c = A + B into two exceptional classes with A.B = 1.

    Each unordered pair is listed once, ordered by the lexicographically
    smaller component.  The components are the classes c contracts, read
    from the contraction table; fam must be the exceptional family of c's
    model, a BlowupP2 (enumerate_exceptional, or a tuple with the same
    members).  The list is new on every call, and each fibre's total is
    c itself.
    """
    if c.__class__ is not DivisorClass:
        check_class(c)
    if c.model.kind != BLOWUP:
        raise ValueError(f"reducible_fibers needs a BlowupP2 model, "
                         f"got {c.model}")
    if not is_conic(c):
        raise ValueError(f"{c} is not a conic fibration class")
    r = c.model.size
    table_fam = contraction_table(r)[0]
    # members carry their model, so this also tells the ranks apart
    if fam is not table_fam and fam != table_fam:
        raise ValueError("reducible_fibers needs the exceptional family of "
                         "the class's model")
    # only a checked conic reaches the cache, so it holds one entry per
    # conic class at most
    from_table = ReducibleFiber._from_table
    return [from_table(c, pair) for pair in _fiber_pairs(r, c.coords)]

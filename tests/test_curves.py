import itertools
import random
from math import isqrt
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from picardkit import curves
from picardkit.curves import (
    OrbitSignature,
    ReducibleFiber,
    conic_coords,
    contraction_table,
    enumerate_conic,
    enumerate_exceptional,
    is_conic,
    orbit_signature,
    reducible_fibers,
    selected,
)
from picardkit.lattice import (
    DivisorClass,
    SurfaceModel,
    canonical_class,
    pairing,
)

from _oracles import (
    adjunction_genus,
    contracted_by_scan,
    fibers_by_scan,
    is_exceptional,
    oracle_conic,
    oracle_exceptional,
    pair_walk_table,
    signature_histogram,
    weyl_orbit,
)

# frozen from the oracle run before the primary enumerator existed
EXCEPTIONAL_COUNTS = [0, 1, 3, 6, 10, 16, 27, 56, 240]
CONIC_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 10, 6: 27, 7: 126, 8: 2160}
R7_ORBITS = {
    (1, (1, 0, 0, 0, 0, 0, 0)): 7,
    (2, (1, 1, 1, 1, 0, 0, 0)): 35,
    (3, (2, 1, 1, 1, 1, 1, 0)): 42,
    (4, (2, 2, 2, 1, 1, 1, 1)): 35,
    (5, (2, 2, 2, 2, 2, 2, 1)): 7,
}
R8_CONIC_PER_DEGREE = {1: 8, 2: 70, 3: 168, 4: 288, 5: 336, 6: 420,
                       7: 336, 8: 288, 9: 168, 10: 70, 11: 8}


def as_pairs(fam):
    return sorted((c.degree, c.multiplicities()) for c in fam)


def test_exceptional_counts_frozen():
    for r in range(9):
        assert len(enumerate_exceptional(r)) == EXCEPTIONAL_COUNTS[r]


def test_exceptional_matches_oracle_sets():
    for r in range(9):
        assert as_pairs(enumerate_exceptional(r)) == oracle_exceptional(r)


def test_conic_counts_frozen_and_oracle_sets():
    for r in range(1, 9):
        fam = enumerate_conic(r)
        assert len(fam) == CONIC_COUNTS[r]
        assert as_pairs(fam) == oracle_conic(r)


def test_rank_range_errors():
    with pytest.raises(ValueError):
        enumerate_exceptional(9)
    with pytest.raises(ValueError):
        enumerate_conic(0)
    with pytest.raises(ValueError):
        enumerate_conic(9)


def test_exceptional_r2_explicit():
    dp2 = SurfaceModel.blowup_p2(2)
    fam = enumerate_exceptional(2)
    expect = {
        DivisorClass(dp2, (0, 1, 0)),
        DivisorClass(dp2, (0, 0, 1)),
        DivisorClass.from_curve(dp2, 1, (1, 1)),
    }
    assert set(fam) == expect


def test_conic_r1_explicit():
    fam = enumerate_conic(1)
    assert [c.coords for c in fam] == [(1, -1)]


def test_family_defining_equations():
    for r in (2, 5, 7):
        for c in enumerate_exceptional(r):
            assert is_exceptional(c)
            assert adjunction_genus(c) == 0
        for c in enumerate_conic(r):
            assert is_conic(c)
            assert adjunction_genus(c) == 0


def test_enumerated_multiplicities_nonnegative_for_positive_degree():
    # the lattice equations force this; assert it held
    for r in (7, 8):
        for c in enumerate_exceptional(r):
            if c.degree >= 1:
                assert min(c.multiplicities()) >= 0
        for c in enumerate_conic(r):
            assert c.degree >= 1
            assert min(c.multiplicities()) >= 0


@settings(max_examples=150, deadline=None)
@given(r=st.integers(0, 4), target_sum=st.integers(-9, 9),
       target_sq=st.integers(0, 16), negative=st.booleans())
@example(r=0, target_sum=0, target_sq=0, negative=False)  # [()]
@example(r=0, target_sum=1, target_sq=1, negative=False)  # empty
@example(r=2, target_sum=1, target_sq=1, negative=False)  # last entry low
@example(r=3, target_sum=-1, target_sq=3, negative=True)
def test_mult_vectors_match_a_filter_over_the_box(r, target_sum, target_sq,
                                                  negative):
    # the walker solves its last entry; the box filter searches every entry
    bound = isqrt(target_sq)
    low = -bound if negative else 0
    box = itertools.product(range(low, bound + 1), repeat=r)
    expected = [m for m in box if sum(m) == target_sum
                and sum(v * v for v in m) == target_sq]
    assert curves._mult_vectors(r, target_sum, target_sq, low) == expected


def test_enumeration_order_deterministic():
    fam = enumerate_conic(7)
    key = [(c.degree, c.multiplicities()) for c in fam]
    assert key == sorted(key)
    assert fam == enumerate_conic(7)


def test_conic_membership_example_r7():
    dp7 = SurfaceModel.blowup_p2(7)
    cubic = DivisorClass.from_curve(dp7, 3, (0, 1, 1, 1, 1, 1, 2))
    assert cubic in enumerate_conic(7)


def test_r7_orbit_partition():
    fam = enumerate_conic(7)
    hist = {}
    for c in fam:
        sig = orbit_signature(c)
        hist[(sig.degree, sig.multiplicities)] = \
            hist.get((sig.degree, sig.multiplicities), 0) + 1
    assert hist == R7_ORBITS
    assert hist == signature_histogram(oracle_conic(7))


def test_r8_conic_histogram_by_degree():
    per_degree = {}
    for c in enumerate_conic(8):
        per_degree[c.degree] = per_degree.get(c.degree, 0) + 1
    assert per_degree == R8_CONIC_PER_DEGREE


def test_orbit_signature_examples():
    dp7 = SurfaceModel.blowup_p2(7)
    ruling = DivisorClass.from_curve(dp7, 1, (1,))
    assert orbit_signature(ruling) == OrbitSignature(1, (1, 0, 0, 0, 0, 0, 0))
    quintic = DivisorClass.from_curve(dp7, 5, (2, 2, 2, 2, 2, 2, 1))
    assert orbit_signature(quintic) == OrbitSignature(5, (2, 2, 2, 2, 2, 2, 1))


def test_orbit_signature_matches_multiplicities_route():
    for r in range(1, 9):
        for c in enumerate_exceptional(r) + enumerate_conic(r):
            assert orbit_signature(c) == OrbitSignature(
                c.degree, tuple(sorted(c.multiplicities(), reverse=True)))


def test_orbit_signature_refuses_products():
    with pytest.raises(ValueError, match="BlowupP2"):
        orbit_signature(DivisorClass(SurfaceModel.product_p1(2), (1, 0)))


def test_is_conic_matches_pairing_route():
    models = [SurfaceModel.blowup_p2(r) for r in range(7)]
    models.append(SurfaceModel.product_p1(2))
    conics = 0
    for model in models:
        k = canonical_class(model)
        for coords in itertools.product(range(-2, 3), repeat=model.rank):
            c = DivisorClass(model, coords)
            want = pairing(c, c) == 0 and pairing(c, k) == -2
            assert is_conic(c) == want
            conics += want
    # the rank <= 6 conics of degree <= 2 and the two rulings of P1 x P1
    assert conics == sum(
        sum(1 for c in enumerate_conic(r) if c.degree <= 2)
        for r in range(1, 7)) + 2


@given(st.data())
def test_orbit_signature_permutation_invariant(data):
    r = data.draw(st.integers(1, 8))
    model = SurfaceModel.blowup_p2(r)
    coords = data.draw(st.tuples(*[st.integers(-6, 6)] * (r + 1)))
    c = DivisorClass(model, coords)
    perm = data.draw(st.permutations(list(range(1, r + 1))))
    shuffled = DivisorClass(
        model, (coords[0],) + tuple(coords[i] for i in perm))
    assert orbit_signature(c) == orbit_signature(shuffled)


def test_reducible_fibers_ruling_r7():
    dp7 = SurfaceModel.blowup_p2(7)
    fam = enumerate_exceptional(7)
    ruling = DivisorClass.from_curve(dp7, 1, (1,))
    fibers = reducible_fibers(ruling, fam)
    assert len(fibers) == 6
    expect = set()
    for i in range(2, 8):
        m = [0] * 7
        m[i - 1] = 1
        e_i = DivisorClass(dp7, (0,) + tuple(m))
        m2 = [0] * 7
        m2[0] = 1
        m2[i - 1] = 1
        line = DivisorClass.from_curve(dp7, 1, m2)
        expect.add(frozenset((e_i, line)))
    assert {frozenset(f.components) for f in fibers} == expect


def test_reducible_fibers_ruling_r1_empty():
    dp1 = SurfaceModel.blowup_p2(1)
    ruling = DivisorClass.from_curve(dp1, 1, (1,))
    assert reducible_fibers(ruling, enumerate_exceptional(1)) == []


def test_reducible_fibers_quartic_r8():
    dp8 = SurfaceModel.blowup_p2(8)
    fam = enumerate_exceptional(8)
    quartic = DivisorClass.from_curve(dp8, 4, (0, 1, 1, 1, 1, 2, 2, 2))
    fibers = reducible_fibers(quartic, fam)
    assert len(fibers) == 7
    e1 = DivisorClass(dp8, (0, 1) + (0,) * 7)
    big = DivisorClass.from_curve(dp8, 4, (1, 1, 1, 1, 1, 2, 2, 2))
    assert any(set(f.components) == {e1, big} for f in fibers)


def test_reducible_fiber_counts_are_rank_minus_one():
    for r in (2, 5, 7):
        fam = enumerate_exceptional(r)
        for c in enumerate_conic(r):
            assert len(reducible_fibers(c, fam)) == r - 1


def test_fiber_components_have_genus_zero_and_square_zero_total():
    fam = enumerate_exceptional(7)
    rng = random.Random(11)
    conics = rng.sample(list(enumerate_conic(7)), 20)
    for c in conics:
        for f in reducible_fibers(c, fam):
            a, b = f.components
            assert adjunction_genus(a) == 0
            assert adjunction_genus(b) == 0
            assert pairing(a + b, a + b) == 0


def test_reducible_fibers_domain_errors():
    dp7 = SurfaceModel.blowup_p2(7)
    fam = enumerate_exceptional(7)
    not_conic = DivisorClass(dp7, (0, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        reducible_fibers(not_conic, fam)
    conic_fam = enumerate_conic(7)
    ruling = DivisorClass.from_curve(dp7, 1, (1,))
    with pytest.raises(ValueError):
        reducible_fibers(ruling, conic_fam)
    # a ruling of P1 x P1 is a conic class, but no pencil table covers it
    pp_ruling = DivisorClass(SurfaceModel.product_p1(2), (1, 0))
    assert is_conic(pp_ruling)
    with pytest.raises(ValueError, match=r"ProductP1\(2\)"):
        reducible_fibers(pp_ruling, enumerate_exceptional(2))


def test_distinct_conic_classes_pair_positively():
    # no two distinct fibration classes are simultaneously orthogonal:
    # used downstream to justify that degree 0 means equal classes
    fam = list(enumerate_conic(6))
    for i, a in enumerate(fam):
        for b in fam[i + 1:]:
            assert pairing(a, b) >= 1


def test_class_family_contains_is_model_aware():
    fam = enumerate_exceptional(2)
    e1_other_model = DivisorClass(SurfaceModel.blowup_p2(3), (0, 1, 0, 0))
    assert e1_other_model not in fam


def test_weyl_orbits_are_the_enumerated_families():
    # a third route to both families: W(E_r) acts transitively on the
    # exceptional classes and on the conic classes for r >= 3
    for r in range(3, 9):
        e_r = (0,) * r + (1,)
        ruling = (1, -1) + (0,) * (r - 1)
        exceptional = weyl_orbit(e_r, r)
        conic = weyl_orbit(ruling, r)
        assert exceptional == {c.coords for c in enumerate_exceptional(r)}
        assert conic == {c.coords for c in enumerate_conic(r)}
        assert exceptional == {(d,) + tuple(-v for v in m)
                               for d, m in oracle_exceptional(r)}
        assert conic == {(d,) + tuple(-v for v in m)
                         for d, m in oracle_conic(r)}
    assert (len(exceptional), len(conic)) == (240, 2160)


# --- the contraction table against the direct scan ----------------------------

def _fiber_coords(fibers):
    return sorted(tuple(sorted(x.coords for x in f.components)) for f in fibers)


def test_families_are_built_once_per_rank():
    assert enumerate_exceptional(7) is enumerate_exceptional(7)
    assert enumerate_conic(8) is enumerate_conic(8)
    assert contraction_table(7)[0] is enumerate_exceptional(7)
    for r in range(1, 9):
        coords = conic_coords(r)
        assert conic_coords(r) is coords
        assert coords == tuple(c.coords for c in enumerate_conic(r))
        # each class holds the cached tuple itself
        assert all(c.coords is x for c, x in zip(enumerate_conic(r), coords))


def test_reducible_fibers_match_direct_scan():
    # reducible_fibers builds its fibres from the contraction table without
    # the ReducibleFiber check, so this test is that check, once, on every
    # fibre of every conic class at r = 1..8: 16074 fibres
    seen = 0
    for r in range(1, 9):
        fam = enumerate_exceptional(r)
        for c in enumerate_conic(r):
            fibers = reducible_fibers(c, fam)
            for f in fibers:
                a, b = f.components
                assert f.total is c
                assert tuple(x + y for x, y in zip(a.coords, b.coords)) \
                    == c.coords
                assert pairing(a, a) == pairing(b, b) == -1
                assert pairing(a, b) == 1
                assert a.coords < b.coords
            assert _fiber_coords(fibers) == fibers_by_scan(fam, c)
            assert [f.components[0].coords for f in fibers] == sorted(
                f.components[0].coords for f in fibers)
            seen += len(fibers)
    assert seen == sum((r - 1) * CONIC_COUNTS[r] for r in range(1, 9)) \
        == 16074


def test_caller_built_fibers_are_checked():
    dp2 = SurfaceModel.blowup_p2(2)
    e1 = DivisorClass(dp2, (0, 1, 0))
    e2 = DivisorClass(dp2, (0, 0, 1))
    line = DivisorClass.from_curve(dp2, 1, (1, 1))
    ruling = DivisorClass.from_curve(dp2, 1, (1,))
    assert ReducibleFiber(ruling, (e2, line)).components == (e2, line)
    with pytest.raises(ValueError, match="do not sum"):
        ReducibleFiber(ruling, (e1, e2))
    # H + (-E1) is H - E1, but H^2 = 1: not exceptional
    h = DivisorClass(dp2, (1, 0, 0))
    with pytest.raises(ValueError, match="not exceptional"):
        ReducibleFiber(ruling, (h, ruling - h))
    # E1 + E2 sums, both are exceptional, but they do not meet
    with pytest.raises(ValueError, match="meeting once"):
        ReducibleFiber(e1 + e2, (e1, e2))


def test_contraction_masks_are_the_orthogonal_exceptionals():
    # every conic contracts exactly its fibre components, 2(r - 1) of them
    for r in range(1, 9):
        fam, masks = contraction_table(r)
        conics = enumerate_conic(r)
        model = SurfaceModel.blowup_p2(r)
        assert set(conics) >= {DivisorClass(model, k) for k in masks}
        sample = conics if r < 8 else conics[::9]
        for c in sample:
            chosen = selected(fam, masks.get(c.coords, 0))
            assert chosen == contracted_by_scan(fam, c)
            assert len(chosen) == 2 * (r - 1)


def test_contraction_table_matches_the_pair_walk():
    # the table tests e.c = 0 in packed fields; the oracle never tests it,
    # but sets two bits on a + b for each exceptional pair a.b = 1
    for r in range(9):
        fam, masks = contraction_table(r)
        assert type(masks) is MappingProxyType
        assert fam is enumerate_exceptional(r)
        assert dict(masks) == pair_walk_table(r), r


def test_reducible_fibers_accept_only_the_table_family():
    dp8 = SurfaceModel.blowup_p2(8)
    fam = enumerate_exceptional(8)
    quartic = DivisorClass.from_curve(dp8, 4, (0, 1, 1, 1, 1, 2, 2, 2))
    copy = tuple(list(fam))
    assert copy is not fam
    assert reducible_fibers(quartic, copy) == reducible_fibers(quartic, fam)
    assert _fiber_coords(reducible_fibers(quartic, copy)) \
        == fibers_by_scan(fam, quartic)
    low = tuple(e for e in fam if e.degree <= 2)
    with pytest.raises(ValueError):
        reducible_fibers(quartic, low)
    with pytest.raises(ValueError):
        reducible_fibers(quartic, enumerate_exceptional(7))


def test_equal_conics_get_equal_fibres_each_with_its_own_total():
    # the cache holds each conic's pairs, not its records
    dp8 = SurfaceModel.blowup_p2(8)
    fam = enumerate_exceptional(8)
    first = DivisorClass.from_curve(dp8, 4, (0, 1, 1, 1, 1, 2, 2, 2))
    second = DivisorClass(SurfaceModel("BlowupP2", 8), first.coords)
    assert first == second and first is not second
    fibers = reducible_fibers(first, fam)
    again = reducible_fibers(second, fam)
    assert fibers == again and len(fibers) == 7
    assert all(f.total is first for f in fibers)
    assert all(f.total is second for f in again)
    assert all(f is not g and f.components is g.components
               for f, g in zip(fibers, again))


def test_a_returned_fibre_list_is_the_callers_own():
    fam = enumerate_exceptional(7)
    ruling = DivisorClass.from_curve(SurfaceModel.blowup_p2(7), 1, (1,))
    fibers = reducible_fibers(ruling, fam)
    want = list(fibers)
    fibers.pop()
    fibers.reverse()
    fibers.append("not a fibre")
    assert reducible_fibers(ruling, fam) == want
    assert reducible_fibers(ruling, fam) is not reducible_fibers(ruling, fam)


def test_a_refused_input_adds_no_fibre_pairs():
    dp7 = SurfaceModel.blowup_p2(7)
    refused = [
        # not a conic
        (DivisorClass(dp7, (0, 1, 0, 0, 0, 0, 0, 0)), enumerate_exceptional(7)),
        # a ruling of P1 x P1: a conic class, but no table covers it
        (DivisorClass(SurfaceModel.product_p1(2), (1, 0)),
         enumerate_exceptional(2)),
        # a conic, with the wrong family
        (DivisorClass.from_curve(dp7, 1, (1,)), enumerate_conic(7)),
    ]
    curves._fiber_pairs.cache_clear()
    for c, family in refused:
        with pytest.raises(ValueError):
            reducible_fibers(c, family)
        assert curves._fiber_pairs.cache_info().currsize == 0, c


def test_the_fibre_pairs_hold_one_entry_per_conic_class():
    curves._fiber_pairs.cache_clear()
    for r in range(1, 9):
        fam = enumerate_exceptional(r)
        model = SurfaceModel("BlowupP2", r)
        for c in enumerate_conic(r):
            reducible_fibers(c, fam)
            # the same conic as a distinct object, with a copy of the family
            twin = DivisorClass(model, c.coords)
            for f in reducible_fibers(twin, tuple(list(fam))):
                assert f.total is twin
        with pytest.raises(ValueError):
            reducible_fibers(fam[0], fam)  # exceptional, so not a conic
        assert curves._fiber_pairs.cache_info().currsize \
            == sum(CONIC_COUNTS[k] for k in range(1, r + 1))
    assert curves._fiber_pairs.cache_info().currsize == 2334

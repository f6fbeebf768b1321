import itertools
import random
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (contracted_by_scan, finite_pair_groups,
                      orbit_pair_scan, reflect, weyl_roots)
from picardkit import curves, fibration, lattice
from picardkit.curves import (
    enumerate_conic,
    enumerate_exceptional,
    is_conic,
    orbit_signature,
    reducible_fibers,
)
from picardkit.fibration import (
    FibrationPair,
    analyze_pair,
    classify_finite_pairs,
    hodge_bound,
    max_degree_bound,
    scan_conic_pairs,
)
from picardkit.lattice import (DivisorClass, SurfaceModel, canonical_class,
                               pairing)

DP7 = SurfaceModel.blowup_p2(7)


def curve(model, d, m):
    return DivisorClass.from_curve(model, d, m)


def test_pair_validation():
    ruling = curve(DP7, 1, (1,))
    with pytest.raises(ValueError):
        FibrationPair(DP7, ruling, ruling)  # distinct classes required
    e1 = DivisorClass(DP7, (0, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        FibrationPair(DP7, ruling, e1)  # not a conic class
    other = SurfaceModel.blowup_p2(5)
    with pytest.raises(ValueError):
        FibrationPair(other, ruling, curve(DP7, 1, (0, 1)))
    # the rulings of P1 x P1 are conic classes, but no pencil table covers
    # them
    pp = SurfaceModel.product_p1(2)
    with pytest.raises(ValueError, match=r"ProductP1\(2\)"):
        FibrationPair(pp, DivisorClass(pp, (1, 0)), DivisorClass(pp, (0, 1)))


def test_analyze_pair_two_rulings_not_finite():
    p = FibrationPair(DP7, curve(DP7, 1, (1,)), curve(DP7, 1, (0, 1)))
    rep = analyze_pair(p)
    assert rep.degree == 1
    line12 = curve(DP7, 1, (1, 1))
    assert line12 in rep.common_contracted
    assert not rep.is_finite


def test_analyze_pair_ruling_vs_conic_not_finite():
    p = FibrationPair(DP7, curve(DP7, 1, (1,)), curve(DP7, 2, (1, 1, 1, 1)))
    rep = analyze_pair(p)
    e6 = DivisorClass(DP7, (0, 0, 0, 0, 0, 0, 1, 0))
    e7 = DivisorClass(DP7, (0, 0, 0, 0, 0, 0, 0, 1))
    assert e6 in rep.common_contracted
    assert e7 in rep.common_contracted
    assert not rep.is_finite


def test_analyze_pair_ruling_vs_quartic_finite():
    p = FibrationPair(DP7, curve(DP7, 1, (1,)),
                      curve(DP7, 4, (1, 1, 1, 1, 2, 2, 2)))
    rep = analyze_pair(p)
    assert rep.degree == 3
    assert rep.common_contracted == ()
    assert rep.is_finite


def test_analyze_pair_symmetric():
    fam = enumerate_exceptional(7)
    conics = list(enumerate_conic(7))
    for c1, c2 in itertools.islice(itertools.combinations(conics, 2), 0, 600, 7):
        a = analyze_pair(FibrationPair(DP7, c1, c2), fam)
        b = analyze_pair(FibrationPair(DP7, c2, c1), fam)
        assert a.degree == b.degree
        assert set(a.common_contracted) == set(b.common_contracted)
        assert a.is_finite == b.is_finite


def test_hodge_bound_examples():
    quintic = curve(DP7, 5, (1, 2, 2, 2, 2, 2, 2))
    ruling = curve(DP7, 1, (1,))
    assert pairing(ruling, quintic) == 4
    hb = hodge_bound(DP7, ruling, quintic)
    assert (hb.lhs, hb.rhs, hb.holds) == (16, 16, True)

    dp5 = SurfaceModel.blowup_p2(5)
    r5a = curve(dp5, 1, (1,))
    r5b = curve(dp5, 2, (0, 1, 1, 1, 1))
    assert pairing(r5a, r5b) == 2
    hb5 = hodge_bound(dp5, r5a, r5b)
    assert (hb5.lhs, hb5.rhs, hb5.holds) == (16, 16, True)

    same = hodge_bound(DP7, ruling, ruling)
    assert (same.lhs, same.rhs, same.holds) == (0, 16, True)


def test_hodge_bound_domain_errors():
    with pytest.raises(ValueError):
        hodge_bound(SurfaceModel.product_p1(2),
                    DivisorClass(SurfaceModel.product_p1(2), (1, 0)),
                    DivisorClass(SurfaceModel.product_p1(2), (0, 1)))
    e1 = DivisorClass(DP7, (0, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        hodge_bound(DP7, e1, e1)  # not square-zero


def test_hodge_bound_on_square_zero_classes_that_are_not_conics():
    # K.c is -4, -6 and -8 here, where every conic has K.c = -2
    for r in range(2, 9):
        model = SurfaceModel.blowup_p2(r)
        k = canonical_class(model)
        classes = [curve(model, 2, (2,)), curve(model, 3, (0, 3)),
                   curve(model, 5, (3, 4))]
        for c1, c2 in itertools.product(classes, repeat=2):
            hb = hodge_bound(model, c1, c2)
            assert hb.lhs == 2 * pairing(k, k) * pairing(c1, c2)
            assert hb.rhs == (pairing(k, c1) + pairing(k, c2)) ** 2
            assert hb.holds == (hb.lhs <= hb.rhs)


@pytest.fixture
def pairing_calls(monkeypatch):
    """Count every pairing call made through lattice, curves or fibration."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return pairing(a, b)

    for module in (lattice, curves, fibration):
        monkeypatch.setattr(module, "pairing", counted)
    return calls


def test_hodge_bound_and_is_conic_pairing_counts(pairing_calls):
    ruling = curve(DP7, 1, (1,))
    quintic = curve(DP7, 5, (1, 2, 2, 2, 2, 2, 2))
    hodge_bound(DP7, ruling, quintic)
    assert len(pairing_calls) == 3
    pairing_calls.clear()
    assert is_conic(quintic)
    assert len(pairing_calls) == 1
    pairing_calls.clear()
    assert not is_conic(curve(DP7, 2, (2,)))
    assert len(pairing_calls) <= 1


def test_scan_and_table_build_classes_only_for_representatives(monkeypatch):
    enumerate_exceptional(8)  # shared by the scan and the table, and warm
    # cold conic families, in every module that reads one
    for name in ("conic_coords", "enumerate_conic"):
        fresh = cache(getattr(curves, name).__wrapped__)
        for module in (curves, fibration):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fresh)
    built = []
    init = DivisorClass.__init__

    def counted(self, model, coords):
        built.append(coords)
        init(self, model, coords)

    monkeypatch.setattr(DivisorClass, "__init__", counted)
    summary, _ = fibration._pair_scan.__wrapped__(8)
    # one class per orbit signature, of 2160 conics
    assert summary.class_count == 2160
    assert len(built) == 15
    built.clear()
    fam, masks = curves.contraction_table.__wrapped__(8)
    assert built == []
    assert fam is enumerate_exceptional(8) and len(masks) == 2160


def test_max_degree_bound():
    assert max_degree_bound(7) == 4
    assert max_degree_bound(5) == 2
    assert max_degree_bound(1) == 1
    assert max_degree_bound(8) == 8
    with pytest.raises(ValueError):
        max_degree_bound(0)
    with pytest.raises(ValueError):
        max_degree_bound(9)
    for inexact in (2.0, True):  # a float bound, or True counted as 1
        with pytest.raises(ValueError):
            max_degree_bound(inexact)


def test_hodge_holds_for_all_pairs_small_ranks_pure_python():
    # independent of the vectorized scan
    for r in (1, 2, 3, 4, 5, 6):
        model = SurfaceModel.blowup_p2(r)
        conics = list(enumerate_conic(r))
        for c1, c2 in itertools.combinations_with_replacement(conics, 2):
            assert hodge_bound(model, c1, c2).holds


def test_scan_matches_pure_python_analysis_r6():
    model = SurfaceModel.blowup_p2(6)
    fam = enumerate_exceptional(6)
    conics = list(enumerate_conic(6))
    finite = 0
    max_deg = 0
    for c1, c2 in itertools.combinations(conics, 2):
        rep = analyze_pair(FibrationPair(model, c1, c2), fam)
        max_deg = max(max_deg, rep.degree)
        finite += rep.is_finite
    summary = scan_conic_pairs(6)
    assert summary.class_count == 27
    assert summary.pair_count == 27 * 26 // 2
    assert summary.max_degree == max_deg
    assert summary.finite_pair_count == finite == 0


def test_scan_r5_all_finite_degree_two():
    summary = scan_conic_pairs(5)
    assert summary.finite_pair_count > 0
    assert summary.finite_degrees == (2,)
    assert summary.hodge_holds


def test_finite_pairs_exist_exactly_for_ranks_5_7_8():
    for r in range(1, 9):
        summary = scan_conic_pairs(r)
        assert summary.hodge_holds
        assert (summary.finite_pair_count > 0) == (r in (5, 7, 8))
        if summary.finite_degrees:
            assert summary.finite_degrees[-1] <= max_degree_bound(r)


def test_quartic_del_pezzo_has_exactly_the_five_conic_bundle_pairs():
    # classical: on the blow-up of P^2 at 5 points the finite conic pairs
    # are {H - E_i, 2H - sum_{j != i} E_j}, one per point, and each pair
    # sums to the anticanonical class 3H - sum E_j
    model = SurfaceModel.blowup_p2(5)
    assert sum(entry.count for entry in classify_finite_pairs(5)) == 5
    finite = {frozenset((c1, c2))
              for c1, c2 in itertools.combinations(enumerate_conic(5), 2)
              if analyze_pair(FibrationPair(model, c1, c2)).is_finite}
    units = [tuple(int(j == i) for j in range(5)) for i in range(5)]
    assert finite == {
        frozenset((curve(model, 1, u),
                   curve(model, 2, tuple(1 - m for m in u))))
        for u in units}
    minus_k = -canonical_class(model)
    for c1, c2 in finite:
        assert c1 + c2 == minus_k
        assert pairing(c1, c2) == 2


def test_classify_empty_for_excluded_ranks():
    for r in (1, 2, 3, 4, 6):
        assert classify_finite_pairs(r) == []


def test_classify_r7_cross_checked_against_pair_loop():
    fam = enumerate_exceptional(7)
    conics = list(enumerate_conic(7))
    groups = {}
    for c1, c2 in itertools.combinations(conics, 2):
        rep = analyze_pair(FibrationPair(DP7, c1, c2), fam)
        if not rep.is_finite:
            continue
        s1, s2 = sorted((orbit_signature(c1), orbit_signature(c2)),
                        key=lambda s: (s.degree, s.multiplicities))
        key = (s1, s2, rep.degree)
        groups[key] = groups.get(key, 0) + 1
    table = {(e.signature_pair[0], e.signature_pair[1], e.degree): e.count
             for e in classify_finite_pairs(7)}
    assert table == groups
    assert sum(table.values()) == scan_conic_pairs(7).finite_pair_count


def test_classify_r7_ruling_rows():
    ruling_sig = orbit_signature(curve(DP7, 1, (1,)))
    rows = [e for e in classify_finite_pairs(7) if ruling_sig in e.signature_pair]
    key = {}
    for e in rows:
        other = e.signature_pair[1] if e.signature_pair[0] == ruling_sig \
            else e.signature_pair[0]
        key[((other.degree, other.multiplicities), e.degree)] = e.count
    assert key == {
        ((3, (2, 1, 1, 1, 1, 1, 0)), 3): 42,
        ((4, (2, 2, 2, 1, 1, 1, 1)), 3): 140,
        ((5, (2, 2, 2, 2, 2, 2, 1)), 3): 42,
        ((5, (2, 2, 2, 2, 2, 2, 1)), 4): 7,
    }


def test_classify_r8_contains_the_degree_four_quartic_pair():
    dp8 = SurfaceModel.blowup_p2(8)
    c1 = curve(dp8, 1, (1,))
    c2 = curve(dp8, 4, (0, 1, 1, 1, 1, 2, 2, 2))
    rep = analyze_pair(FibrationPair(dp8, c1, c2))
    assert rep.degree == 4
    assert rep.is_finite
    pair_sig = tuple(sorted((orbit_signature(c1), orbit_signature(c2)),
                            key=lambda s: (s.degree, s.multiplicities)))
    entries = [e for e in classify_finite_pairs(8)
               if e.signature_pair == pair_sig and e.degree == 4]
    assert len(entries) == 1
    assert entries[0].count >= 1


# --- the contraction table against the direct scan ----------------------------

def _check_pair(model, fam, c1, c2):
    want = contracted_by_scan(fam, c1, c2)
    for rep in (analyze_pair(FibrationPair(model, c1, c2), fam),
                analyze_pair(FibrationPair(model, c1, c2))):
        assert rep.degree == pairing(c1, c2)
        assert rep.common_contracted == want
        assert rep.is_finite == (rep.degree > 0 and not want)


def test_analyze_pair_matches_direct_scan_every_pair_small_ranks():
    for r in range(2, 7):
        model = SurfaceModel.blowup_p2(r)
        fam = enumerate_exceptional(r)
        for c1, c2 in itertools.combinations(enumerate_conic(r), 2):
            _check_pair(model, fam, c1, c2)


def test_analyze_pair_matches_direct_scan_sampled_ranks_7_8():
    rng = random.Random(2716)
    for r in (7, 8):
        model = SurfaceModel.blowup_p2(r)
        fam = enumerate_exceptional(r)
        conics = list(enumerate_conic(r))
        for _ in range(300):
            _check_pair(model, fam, *rng.sample(conics, 2))


def test_classify_matches_unweighted_pair_loop():
    for r in range(1, 8):
        conics = list(enumerate_conic(r))
        groups = finite_pair_groups(conics, enumerate_exceptional(r))
        table = {((a.degree, a.multiplicities), (b.degree, b.multiplicities),
                  e.degree): e.count
                 for e in classify_finite_pairs(r)
                 for a, b in [e.signature_pair]}
        assert table == groups, r
        summary = scan_conic_pairs(r)
        assert summary.finite_pair_count == sum(groups.values())
        assert summary.finite_degrees == tuple(sorted({d for _, _, d in groups}))
        assert summary.max_degree == max(
            (pairing(a, b) for a, b in itertools.combinations(conics, 2)),
            default=0)


def test_pair_scan_matches_the_per_pair_scan():
    # the scan counts in packed fields; the oracle takes one dot product
    # and one contraction-mask test per (representative, conic) pair
    for r in range(1, 9):
        summary, entries = orbit_pair_scan(r)
        assert scan_conic_pairs(r) == summary, r
        assert classify_finite_pairs(r) == list(entries), r
        assert repr(scan_conic_pairs(r)) == repr(summary)


def test_rank8_partner_counts_depend_only_on_the_orbit_signature():
    # the orbit-weighted scan assumes that every class of one signature has
    # the same finite-partner counts, keyed by (partner signature, degree);
    # check it on two further members of each of the 15 rank-8 orbits, with
    # the contracted sets from the direct scan rather than the table
    conics = enumerate_conic(8)
    fam = enumerate_exceptional(8)
    contracted = [set(contracted_by_scan(fam, c)) for c in conics]
    sigs = [orbit_signature(c) for c in conics]

    def partner_counts(i):
        counts = Counter()
        for j, c in enumerate(conics):
            degree = pairing(conics[i], c)
            if j != i and degree > 0 and not contracted[i] & contracted[j]:
                counts[sigs[j], degree] += 1
        return counts

    orbits = {}
    for i, sig in enumerate(sigs):
        orbits.setdefault(sig, []).append(i)
    assert len(orbits) == 15
    rng = random.Random(2160)
    reps = {}
    for sig, members in orbits.items():
        reps[sig] = partner_counts(members[0])
        for i in rng.sample(members[1:], 2):
            assert partner_counts(i) == reps[sig], (sig, conics[i])
    # weighted by orbit size, the representatives' counts are the
    # classification, each unordered pair counted once from each end
    weighted = Counter()
    for sig, counts in reps.items():
        for (other, degree), n in counts.items():
            weighted[min(sig, other), max(sig, other), degree] += \
                n * len(orbits[sig])
    assert {(*e.signature_pair, e.degree): e.count
            for e in classify_finite_pairs(8)} \
        == {key: n // 2 for key, n in weighted.items()}


def _permuted(c, perm):
    return DivisorClass(c.model,
                        (c.coords[0],) + tuple(c.coords[1 + i] for i in perm))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_permuting_the_points_preserves_pair_facts(data):
    # S_r permutes E_1..E_r and preserves the pairing and both families;
    # the orbit-weighted scan relies on exactly this
    r = data.draw(st.integers(2, 8))
    model = SurfaceModel.blowup_p2(r)
    fam = enumerate_exceptional(r)
    conics = enumerate_conic(r)
    perm = data.draw(st.permutations(range(r)))
    i, j = data.draw(st.lists(st.integers(0, len(conics) - 1), min_size=2,
                              max_size=2, unique=True))
    c1, c2 = conics[i], conics[j]
    p1, p2 = _permuted(c1, perm), _permuted(c2, perm)
    assert p1 in conics and p2 in conics
    before = analyze_pair(FibrationPair(model, c1, c2), fam)
    after = analyze_pair(FibrationPair(model, p1, p2), fam)
    assert (after.degree, after.is_finite) == (before.degree, before.is_finite)
    assert {_permuted(e, perm) for e in before.common_contracted} \
        == set(after.common_contracted)
    fibers = reducible_fibers(c1, fam)
    moved = reducible_fibers(p1, fam)
    assert len(moved) == len(fibers)
    assert {frozenset(_permuted(x, perm) for x in f.components)
            for f in fibers} == {frozenset(f.components) for f in moved}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weyl_words_preserve_pair_facts(data):
    # W(E_r) preserves the pairing, K and both families, so it maps the
    # classes a pencil contracts onto those of its image; the reflections
    # come from the oracle, not from the library
    r = data.draw(st.integers(3, 8))
    model = SurfaceModel.blowup_p2(r)
    fam = enumerate_exceptional(r)
    conics = enumerate_conic(r)
    roots = weyl_roots(r)
    word = data.draw(st.lists(st.sampled_from(roots), max_size=12))

    def act(c):
        x = c.coords
        for root in word:
            x = reflect(x, root)
        return DivisorClass(model, x)

    i, j = data.draw(st.lists(st.integers(0, len(conics) - 1), min_size=2,
                              max_size=2, unique=True))
    c1, c2 = conics[i], conics[j]
    w1, w2 = act(c1), act(c2)
    assert w1 in conics and w2 in conics
    before = analyze_pair(FibrationPair(model, c1, c2), fam)
    after = analyze_pair(FibrationPair(model, w1, w2), fam)
    assert (after.degree, after.is_finite) == (before.degree, before.is_finite)
    assert {act(e) for e in before.common_contracted} \
        == set(after.common_contracted)
    for c, w in ((c1, w1), (c2, w2)):
        fibers = reducible_fibers(c, fam)
        moved = reducible_fibers(w, fam)
        assert len(moved) == len(fibers) == r - 1
        assert {frozenset(map(act, f.components)) for f in fibers} \
            == {frozenset(f.components) for f in moved}


def test_analyze_pair_accepts_only_the_table_family():
    fam = enumerate_exceptional(7)
    copy = tuple(list(fam))
    conics = list(enumerate_conic(7))
    for c1, c2 in itertools.islice(itertools.combinations(conics, 2), 0, 3000, 13):
        pair = FibrationPair(DP7, c1, c2)
        rep = analyze_pair(pair, copy)
        assert rep == analyze_pair(pair, fam) == analyze_pair(pair)
        assert rep.common_contracted == contracted_by_scan(fam, c1, c2)
    pair = FibrationPair(DP7, conics[0], conics[1])
    rng = random.Random(5)
    sub = tuple(e for e in fam if rng.random() < 0.5)
    for wrong in (sub, enumerate_exceptional(6), enumerate_exceptional(8),
                  enumerate_conic(7)):
        with pytest.raises(ValueError):
            analyze_pair(pair, wrong)

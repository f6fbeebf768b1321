"""Independent brute-force oracles for the class enumerations.

The library's primary enumerator walks coordinate vectors positionally.  The
oracle here is deliberately structured differently: it walks descending value
multisets (with sum and square-sum pruning) and then expands each solution
multiset through its distinct permutations.  Counts and class sets from the
two routes must agree exactly.

Shared search frame: classes dH - sum(m_i E_i) on the blow-up of P^2 at r
points, with

    exceptional:  d^2 - sum m_i^2 = -1,  3d - sum m_i = 1
    conic:        d^2 - sum m_i^2 =  0,  3d - sum m_i = 2

Cauchy-Schwarz bounds the degree: (3d - k)^2 <= r (d^2 + eps) with
(k, eps) = (1, 1) or (2, 0), and each entry by |m_i| <= isqrt(d^2 + eps).

A second oracle, ``fraction_in_cone_lp``, is the cone engine's phase-I
simplex as it was written over Fractions, before the library switched to
integer pivoting; the two must agree on every membership query.

``recomputed_dual_description`` is the double description with every
ray's zero set recomputed from scratch against all processed halfspaces at
each step; the library carries the zero sets forward instead.

``contracted_by_scan`` is the direct contraction test, e.c = 0 over the
exceptional family, with no table; ``finite_pair_groups`` classifies every
unordered conic pair with it, one pair at a time.

``fraction_cover_singular_at`` is the double cover's singularity test as
it was written before the library switched to one integer pass: the
polynomial evaluated in Fractions, then each of its 2n partial derivatives
built and evaluated in turn.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt


def _multisets(k, hi, lo, total, sq_total):
    """Descending k-tuples with entries in [lo, hi], given sum and square sum."""
    if k == 0:
        if total == 0 and sq_total == 0:
            yield ()
        return
    for v in range(hi, lo - 1, -1):
        rest_s = total - v
        rest_q = sq_total - v * v
        if rest_q < 0:
            continue
        # remaining entries are <= v and >= lo
        if rest_s > (k - 1) * v or rest_s < (k - 1) * lo:
            continue
        if rest_s * rest_s > (k - 1) * rest_q and k > 1:
            continue
        for tail in _multisets(k - 1, v, lo, rest_s, rest_q):
            yield (v,) + tail


def _distinct_permutations(values):
    seen = set()
    # values is short (r <= 8); filtering itertools.permutations is fine
    from itertools import permutations

    for p in permutations(values):
        if p not in seen:
            seen.add(p)
            yield p


def _solutions(r, d, m_sum, m_sq):
    """All length-r multiplicity vectors with the given sum and square sum."""
    if r == 0:
        return [()] if m_sum == 0 and m_sq == 0 else []
    bound = isqrt(m_sq) if m_sq >= 0 else -1
    out = []
    for mult in _multisets(r, bound, -bound, m_sum, m_sq):
        out.extend(_distinct_permutations(mult))
    return out


def oracle_exceptional(r):
    """Multiplicity vectors (m_1..m_r) with degrees, as (d, m) tuples."""
    found = []
    d = 0
    while (3 * d - 1) ** 2 <= r * (d * d + 1) or d == 0:
        for m in _solutions(r, d, 3 * d - 1, d * d + 1):
            found.append((d, m))
        d += 1
    # the d = 0 equations force exactly one m_i = -1 (sum -1, square sum 1),
    # i.e. the classes E_i themselves; no extra effectivity filter is needed
    return sorted(found)


def oracle_conic(r):
    found = []
    d = 1
    while (3 * d - 2) ** 2 <= r * d * d:
        for m in _solutions(r, d, 3 * d - 2, d * d):
            found.append((d, m))
        d += 1
    return sorted(found)


def signature_histogram(classes):
    """Group (d, m) tuples by (d, descending multiset of m)."""
    hist = {}
    for d, m in classes:
        key = (d, tuple(sorted(m, reverse=True)))
        hist[key] = hist.get(key, 0) + 1
    return hist


def fraction_in_cone_lp(generators, x):
    """Is x a nonnegative rational combination of the generators?

    Phase-I simplex with Bland's rule; exact Fractions throughout.
    """
    d = len(x)
    m = len(generators)
    A = [[Fraction(g[i]) for g in generators] for i in range(d)]
    b = [Fraction(v) for v in x]
    for i in range(d):
        if b[i] < 0:
            b[i] = -b[i]
            A[i] = [-a for a in A[i]]
    for i in range(d):
        A[i] += [Fraction(1 if k == i else 0) for k in range(d)]
    basis = list(range(m, m + d))
    obj = [sum(A[i][j] for i in range(d)) for j in range(m + d)]
    for k in range(d):
        obj[m + k] -= 1
    objval = sum(b)
    while True:
        enter = next((j for j in range(m + d) if obj[j] > 0), None)
        if enter is None:
            break
        pr = None
        best = None
        for i in range(d):
            a = A[i][enter]
            if a > 0:
                ratio = b[i] / a
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[pr]):
                    best, pr = ratio, i
        if pr is None:
            # cannot happen: the phase-I objective is bounded below by 0
            raise RuntimeError("unbounded phase-I simplex")
        piv = A[pr][enter]
        A[pr] = [a / piv for a in A[pr]]
        b[pr] /= piv
        for i in range(d):
            if i != pr and A[i][enter]:
                f = A[i][enter]
                A[i] = [a - f * p for a, p in zip(A[i], A[pr])]
                b[i] -= f * b[pr]
        f = obj[enter]
        obj = [o - f * p for o, p in zip(obj, A[pr])]
        objval -= f * b[pr]
        basis[pr] = enter
    return objval == 0


def _oracle_primitive(vec):
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _oracle_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def recomputed_dual_description(normals, dim):
    """Generators of {x : <x, h> >= 0 for every h}, for integer normals,
    sorted: primitive rays plus the lineality directions in both signs."""
    lineality = [tuple(1 if j == i else 0 for j in range(dim))
                 for i in range(dim)]
    rays = []
    done = []

    def line(vec):
        p = _oracle_primitive(vec)
        lead = next((v for v in p if v), 1)
        return p if lead > 0 else tuple(-v for v in p)

    for raw in normals:
        h = _oracle_primitive(raw)
        if not any(h):
            continue
        lvals = [_oracle_dot(l, h) for l in lineality]
        if any(lvals):
            idx = next(i for i, v in enumerate(lvals) if v)
            lstar, a = lineality[idx], lvals[idx]
            if a < 0:
                lstar, a = tuple(-x for x in lstar), -a
            lineality = [
                line(tuple(a * x - v * y for x, y in zip(l, lstar))) if v else l
                for i, (l, v) in enumerate(zip(lineality, lvals)) if i != idx]
            rays = [_oracle_primitive(tuple(a * x - _oracle_dot(r, h) * y
                                            for x, y in zip(r, lstar)))
                    for r in rays]
            rays.append(_oracle_primitive(lstar))
        else:
            vals = [_oracle_dot(r, h) for r in rays]
            if any(v < 0 for v in vals):
                zsets = [frozenset(k for k, hk in enumerate(done)
                                   if _oracle_dot(r, hk) == 0) for r in rays]
                kept = [r for r, v in zip(rays, vals) if v > 0]
                kept += [r for r, v in zip(rays, vals) if v == 0]
                for i, j in ((i, j) for i, vi in enumerate(vals) if vi > 0
                             for j, vj in enumerate(vals) if vj < 0):
                    common = zsets[i] & zsets[j]
                    if any(t not in (i, j) and common <= zsets[t]
                           for t in range(len(rays))):
                        continue
                    w = _oracle_primitive(tuple(
                        vals[i] * rj - vals[j] * ri
                        for ri, rj in zip(rays[i], rays[j])))
                    if w not in kept:
                        kept.append(w)
                rays = kept
        done.append(h)
    return tuple(sorted(rays + [s for l in lineality
                                for s in (l, tuple(-x for x in l))]))


def _pair(a, b):
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def contracted_by_scan(exceptional, c1, c2=None):
    """Exceptional classes e (in family order) with e.c1 = 0, and e.c2 = 0
    when c2 is given."""
    return tuple(e for e in exceptional
                 if _pair(e.coords, c1.coords) == 0
                 and (c2 is None or _pair(e.coords, c2.coords) == 0))


def fibers_by_scan(exceptional, c):
    """Unordered splittings c = a + b into family members meeting once, as
    sorted coordinate pairs."""
    members = {e.coords for e in exceptional}
    out = set()
    for e in exceptional:
        b = tuple(x - y for x, y in zip(c.coords, e.coords))
        if b in members and _pair(e.coords, b) == 1:
            out.add(tuple(sorted((e.coords, b))))
    return sorted(out)


def finite_pair_groups(conics, exceptional):
    """{(signature, signature, degree): count} over every unordered finite
    pair, signatures as (degree, descending multiplicities) with the smaller
    first."""
    contracted = {c: set(contracted_by_scan(exceptional, c)) for c in conics}
    groups = {}
    for c1, c2 in combinations(conics, 2):
        degree = _pair(c1.coords, c2.coords)
        if degree <= 0 or contracted[c1] & contracted[c2]:
            continue
        s1, s2 = sorted((c.coords[0], tuple(sorted((-v for v in c.coords[1:]),
                                                   reverse=True)))
                        for c in (c1, c2))
        key = (s1, s2, degree)
        groups[key] = groups.get(key, 0) + 1
    return groups


def fraction_cover_singular_at(poly, point):
    """Is the cover branched along {poly = 0} singular above point?  A
    ValueError when the point is off the divisor."""
    if poly.evaluate(point) != 0:
        raise ValueError("point does not lie on the branch divisor")
    return all(poly.partial_derivative(v).evaluate(point) == 0
               for v in range(2 * poly.n))


if __name__ == "__main__":
    import time

    t0 = time.perf_counter()
    print("exceptional counts r=0..8:",
          [len(oracle_exceptional(r)) for r in range(9)])
    print("conic counts r=1..8:",
          [len(oracle_conic(r)) for r in range(1, 9)])
    sev = oracle_conic(7)
    print("r=7 orbit histogram:")
    for key, n in sorted(signature_histogram(sev).items()):
        print("   ", key, "->", n)
    eight = oracle_conic(8)
    per_degree = {}
    for d, m in eight:
        per_degree[d] = per_degree.get(d, 0) + 1
    print("r=8 conic per-degree:", sorted(per_degree.items()))
    print("r=8 signature count:", len(signature_histogram(eight)))
    print("elapsed: %.3fs" % (time.perf_counter() - t0))

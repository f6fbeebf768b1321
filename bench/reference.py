"""The benchmark's own exact computations, used to check picardkit's outputs.

Nothing here imports picardkit.  Classes on the blow-up of P^2 at r points
are plain integer tuples (d, -m_1, ..., -m_r) in the basis H, E_1, ..., E_r,
the same coordinates the program prints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod
from operator import mul


def pair(a, b) -> int:
    """Intersection number on the blow-up of P^2: a_0 b_0 - sum a_i b_i."""
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def canonical(r: int) -> tuple:
    return (-3,) + (1,) * r


def is_exceptional(c) -> bool:
    """c^2 = -1 and c.K = -1, and effective (d >= 1, or a basis class E_i)."""
    r = len(c) - 1
    if pair(c, c) != -1 or pair(c, canonical(r)) != -1:
        return False
    return c[0] >= 1 or sorted(c[1:]) == [0] * (r - 1) + [1]


def is_conic(c) -> bool:
    r = len(c) - 1
    return c[0] >= 1 and pair(c, c) == 0 and pair(c, canonical(r)) == -2


def _descending(r: int, total: int, squares: int, cap: int):
    """Nonincreasing nonnegative r-tuples with the given sum and square sum."""
    if r == 0:
        if total == 0 and squares == 0:
            yield ()
        return
    for v in range(min(cap, total), -1, -1):
        rs, rq = total - v, squares - v * v
        k = r - 1
        # the remaining k entries are each at most v
        if rq < 0 or rs > k * v or rq > k * v * v or rs * rs > k * rq \
                or rq > rs * v:
            continue
        for rest in _descending(k, rs, rq, v):
            yield (v,) + rest


def _distinct_permutations(values: tuple):
    if not values:
        yield ()
        return
    for v in sorted(set(values)):
        i = values.index(v)
        for rest in _distinct_permutations(values[:i] + values[i + 1:]):
            yield (v,) + rest


def _classes(r: int, sum_of, square_of, max_degree: int) -> list[tuple]:
    out = []
    for d in range(1, max_degree + 1):
        for ms in _descending(r, sum_of(d), square_of(d), d + 1):
            for m in _distinct_permutations(ms):
                out.append((d,) + tuple(-x for x in m))
    return out


# Known class counts on the blow-up of P^2 at 7 and 8 points.
CLASS_COUNTS = {("exceptional", 7): 56, ("exceptional", 8): 240,
                ("conic", 7): 126, ("conic", 8): 2160}


def _counted(kind: str, r: int, classes: tuple) -> tuple:
    if CLASS_COUNTS.get((kind, r), len(classes)) != len(classes):
        raise RuntimeError(f"own enumeration found {len(classes)} {kind} "
                           f"classes at rank {r}")
    return classes


@lru_cache(maxsize=None)
def exceptional_classes(r: int) -> tuple[tuple, ...]:
    """All exceptional classes, sorted: the E_i plus the solutions with
    d >= 1 of d^2 - sum m^2 = -1, 3d - sum m = 1 (all m_i >= 0 there)."""
    basis = [tuple(1 if j == i else 0 for j in range(r + 1))
             for i in range(1, r + 1)]
    found = _classes(r, lambda d: 3 * d - 1, lambda d: d * d + 1, 3 * r)
    return _counted("exceptional", r, tuple(sorted(basis + found)))


@lru_cache(maxsize=None)
def conic_classes(r: int) -> tuple[tuple, ...]:
    """All conic classes, sorted: d >= 1, d^2 = sum m^2, 3d - sum m = 2."""
    return _counted("conic", r, tuple(sorted(
        _classes(r, lambda d: 3 * d - 2, lambda d: d * d, 3 * r))))


@lru_cache(maxsize=None)
def contracted_mask(c: tuple) -> int:
    """Bit i set when the conic class c contracts exceptional class i."""
    exc = exceptional_classes(len(c) - 1)
    cj = (c[0],) + tuple(-x for x in c[1:])
    mask = 0
    for i, e in enumerate(exc):
        if not sum(map(mul, e, cj)):
            mask |= 1 << i
    return mask


def contracted_classes(mask: int, r: int) -> list[tuple]:
    exc = exceptional_classes(r)
    return [e for i, e in enumerate(exc) if mask >> i & 1]


@lru_cache(maxsize=None)
def finite_pair_count(r: int) -> int:
    """Unordered conic pairs with no commonly contracted exceptional class.

    Distinct conic classes always pair positively (their difference lies in
    the negative definite orthogonal complement of K), so this is the number
    of finite pairs.  Counted per class as n minus the classes sharing a
    contracted curve with it, the sharers found as a union of bitmasks.
    """
    conics = conic_classes(r)
    n = len(conics)
    masks = [contracted_mask(c) for c in conics]
    by_exc: dict[int, int] = {}
    for j, m in enumerate(masks):
        while m:
            low = m & -m
            by_exc[low] = by_exc.get(low, 0) | 1 << j
            m ^= low
    total = 0
    for j, m in enumerate(masks):
        sharers = 1 << j
        while m:
            low = m & -m
            sharers |= by_exc[low]
            m ^= low
        total += n - sharers.bit_count()
    return total // 2


def orbit_signature(c) -> tuple:
    return (c[0], tuple(sorted((-x for x in c[1:]), reverse=True)))


def rank(rows) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    rk = 0
    width = len(m[0]) if m else 0
    for col in range(width):
        piv = next((i for i in range(rk, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        p = m[rk]
        for i in range(rk + 1, len(m)):
            f = m[i][col]
            if f:
                m[i] = [p[col] * a - f * b for a, b in zip(m[i], p)]
        rk += 1
    return rk


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def primitive(v) -> tuple:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def ray_problem(rays, normals, d: int, what: str) -> str | None:
    """Rays must satisfy every normal and be tight on rank d - 1 of them."""
    for r in rays:
        vals = [dot(r, n) for n in normals]
        if min(vals) < 0:
            return f"{what} ray {r} violates a defining inequality"
        if rank([n for n, v in zip(normals, vals) if v == 0]) != d - 1:
            return f"{what} ray {r} is not extreme"
    return None


def anticanonical_power(branch: tuple) -> int:
    """(-K)^n of the double cover of (P^1)^n branched in type 2*branch."""
    n = len(branch)
    return 2 * factorial(n) * prod(2 - d for d in branch)


# --- multihomogeneous polynomials as {flat exponent tuple: Fraction} --------

def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_eval(p: dict, point: tuple) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = Fraction(c)
        for v, k in zip(point, e):
            term *= Fraction(v) ** k
        total += term
    return total


def poly_partial(p: dict, var: int) -> dict:
    out: dict = {}
    for e, c in p.items():
        if e[var]:
            f = e[:var] + (e[var] - 1,) + e[var + 1:]
            out[f] = out.get(f, 0) + c * e[var]
    return out


def linear_form_vanishing_at(n: int, factor: int, a, b) -> dict:
    """b*x_k - a*y_k: vanishes exactly where factor k's point is (a:b)."""
    ex = [0] * (2 * n)
    ey = [0] * (2 * n)
    ex[2 * factor] = 1
    ey[2 * factor + 1] = 1
    return {e: c for e, c in ((tuple(ex), Fraction(b)), (tuple(ey), Fraction(-a)))
            if c}


def random_form(rng, degrees) -> dict:
    """A multihomogeneous form with small random rational coefficients."""
    exponents = [()]
    for deg in degrees:
        exponents = [e + (a, deg - a) for e in exponents
                     for a in range(deg + 1)]
    return {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for e in exponents}


def branch_poly(rng, singular: bool):
    """A branch polynomial on (P^1)^3 through a random point.

    Singular: l_0 * l_1 * q, a product of two forms vanishing at the point.
    Smooth: l_0 * q with q nonzero at the point, checked here by computing
    a partial derivative that must not vanish.
    """
    while True:
        point = []
        for _ in range(3):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            point.append((a, b) if (a, b) != (0, 0) else (1, 1))
        flat = tuple(v for p in point for v in p)
        lines = [linear_form_vanishing_at(3, k, *point[k]) for k in (0, 1)]
        if singular:
            q = random_form(rng, (1, 1, 2))
            poly = poly_mul(poly_mul(lines[0], lines[1]), q)
            if not poly:
                continue
        else:
            q = random_form(rng, (1, 2, 2))
            poly = poly_mul(lines[0], q)
            if poly_eval(q, flat) == 0 or not any(
                    poly_eval(poly_partial(poly, v), flat)
                    for v in (0, 1)):
                continue
        return poly, point, singular

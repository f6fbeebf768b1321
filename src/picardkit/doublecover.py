"""Double covers of products of lines and multihomogeneous branch data.

A cover is recorded by the type (2*d_1, ..., 2*d_n) of its branch divisor
on the n-fold product of lines.  The numerical invariants are closed-form
integer expressions, so they stay exact and cost O(n) for any supported
branch type; lattice.top_intersection remains the general route that the
tests check them against.  A branch type has at most MAX_FACTORS entries,
each at most MAX_BRANCH_ENTRY.

Branch divisors themselves are multihomogeneous polynomials with rational
coefficients.  A polynomial in n coordinate pairs keeps its exponent
vectors flat: entry 2k is the first variable of factor k, entry 2k+1 the
second.  Whether the cover is singular above a branch point is decided by
the Jacobian criterion: for a point on the divisor, all 2n partials must
vanish.  The per-factor Euler identities

    a_k * d/da_k + b_k * d/db_k = (degree in factor k) * p

make this test independent of how the point's coordinate pairs are scaled,
which the test suite checks directly.

Coefficients arrive as integers or exact fraction strings; floats are
rejected at the JSON boundary so no rounding can enter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Mapping, Sequence

COEFF_PATTERN = re.compile(r"^-?\d+(/\d+)?$")

# Bounds on a branch type.  At these sizes the anticanonical power has at
# most a few hundred digits, so it prints at once.
MAX_FACTORS = 64
MAX_BRANCH_ENTRY = 1000


@dataclass(frozen=True)
class DoubleCoverSpec:
    """Branch type of a double cover of the n-fold product of lines.

    branch_type holds (d_1, ..., d_n); the branch divisor has type
    (2*d_1, ..., 2*d_n).
    """

    n: int
    branch_type: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one factor")
        if self.n > MAX_FACTORS:
            raise ValueError(f"branch type has {self.n} factors; at most "
                             f"{MAX_FACTORS} are supported")
        if len(self.branch_type) != self.n:
            raise ValueError("one branch-type entry per factor required")
        for d in self.branch_type:
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise ValueError(f"branch-type entry {d!r} is not a nonnegative int")
            if d > MAX_BRANCH_ENTRY:
                raise ValueError(f"branch-type entry {d} exceeds "
                                 f"{MAX_BRANCH_ENTRY}")

    @staticmethod
    def of(branch_type: Sequence[int]) -> "DoubleCoverSpec":
        return DoubleCoverSpec(len(branch_type), tuple(branch_type))


def is_fano(spec: DoubleCoverSpec) -> bool:
    """The cover is Fano exactly when every branch-type entry is 0 or 1."""
    return all(d in (0, 1) for d in spec.branch_type)


def anticanonical_power(spec: DoubleCoverSpec) -> int:
    """Top self-intersection of the anticanonical class of the cover.

    The anticanonical class pulls back from the class L with coefficients
    (2 - d_k), and the cover has degree 2 over the base.  L^n on the
    product of n lines is n! * prod(2 - d_k): each of the n! orderings of
    the factors contributes one product of coefficients.  Hence
    2 * n! * prod(2 - d_k), computed directly.
    """
    return 2 * factorial(spec.n) * prod(2 - d for d in spec.branch_type)


def expected_picard_number(spec: DoubleCoverSpec) -> int | None:
    """Picard number of the cover when the branch type forces it.

    For n >= 3 and a branch type of all ones the Picard group is pulled
    back from the base, giving n.  Other types are not determined by the
    numerical data alone, so None is returned.
    """
    if spec.n >= 3 and all(d == 1 for d in spec.branch_type):
        return spec.n
    return None


@dataclass(frozen=True)
class ProductPoint:
    """A point of the n-fold product of lines: one coordinate pair per
    factor, no pair identically zero."""

    n: int
    pairs: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.pairs) != self.n:
            raise ValueError("one coordinate pair per factor required")
        clean = []
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValueError(f"coordinate pair {pair!r} must have length 2")
            a, b = Fraction(pair[0]), Fraction(pair[1])
            if a == 0 and b == 0:
                raise ValueError("a coordinate pair cannot be (0, 0)")
            clean.append((a, b))
        object.__setattr__(self, "pairs", tuple(clean))

    @staticmethod
    def of(pairs: Sequence[Sequence]) -> "ProductPoint":
        return ProductPoint(len(pairs), tuple(tuple(p) for p in pairs))

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(v for pair in self.pairs for v in pair)

    def scaled(self, factor: int, lam) -> "ProductPoint":
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("scaling factor must be nonzero")
        pairs = list(self.pairs)
        a, b = pairs[factor]
        pairs[factor] = (a * lam, b * lam)
        return ProductPoint(self.n, tuple(pairs))


class MultiHomogPoly:
    """Multihomogeneous polynomial on the n-fold product of lines.

    terms maps flat exponent tuples of length 2n to nonzero Fraction
    coefficients.  Every term must have the same degree in each factor;
    that common tuple is the multidegree.  The zero polynomial carries an
    explicit multidegree label since its terms cannot determine one.
    """

    __slots__ = ("n", "terms", "multidegree")

    def __init__(self, n: int,
                 terms: Mapping[tuple[int, ...], object],
                 multidegree: Sequence[int] | None = None) -> None:
        if n < 1:
            raise ValueError("need at least one factor")
        clean: dict[tuple[int, ...], Fraction] = {}
        degree: tuple[int, ...] | None = None
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != 2 * n:
                raise ValueError(f"exponent tuple {exps} must have length {2 * n}")
            if any(not isinstance(e, int) or isinstance(e, bool) or e < 0
                   for e in exps):
                raise ValueError(f"exponents must be nonnegative ints: {exps}")
            if isinstance(coeff, float):
                raise ValueError("float coefficients are not accepted")
            coeff = Fraction(coeff)
            this = tuple(exps[2 * k] + exps[2 * k + 1] for k in range(n))
            if degree is None:
                degree = this
            elif this != degree:
                raise ValueError(
                    f"term {exps} has factor degrees {this}, expected {degree}")
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
        clean = {e: c for e, c in clean.items() if c}
        if multidegree is not None:
            multidegree = tuple(multidegree)
            if len(multidegree) != n or any(
                    not isinstance(d, int) or isinstance(d, bool) or d < 0
                    for d in multidegree):
                raise ValueError(f"bad multidegree {multidegree}")
            if degree is not None and degree != multidegree:
                raise ValueError(
                    f"terms have multidegree {degree}, not {multidegree}")
        elif degree is None:
            raise ValueError("the zero polynomial needs an explicit multidegree")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", dict(clean))
        object.__setattr__(self, "multidegree",
                           multidegree if multidegree is not None else degree)

    def __setattr__(self, name, value):
        raise AttributeError("MultiHomogPoly is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiHomogPoly):
            return NotImplemented
        return (self.n, self.terms, self.multidegree) == \
            (other.n, other.terms, other.multidegree)

    def __repr__(self) -> str:
        return (f"MultiHomogPoly(n={self.n}, multidegree={self.multidegree}, "
                f"{len(self.terms)} terms)")

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point) -> Fraction:
        if not isinstance(point, ProductPoint):
            point = ProductPoint.of(point)
        if point.n != self.n:
            raise ValueError(f"point has {point.n} factors, expected {self.n}")
        vals = point.flat()
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    def partial_derivative(self, var: int) -> "MultiHomogPoly":
        """Derivative in flat variable var (0 <= var < 2n).

        The multidegree drops by one in factor var // 2; for a polynomial
        of factor degree zero the derivative is zero and the label clamps
        at zero.
        """
        if not 0 <= var < 2 * self.n:
            raise ValueError(f"variable index {var} out of range")
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e:
                smaller = exps[:var] + (e - 1,) + exps[var + 1:]
                out[smaller] = out.get(smaller, Fraction(0)) + coeff * e
        md = list(self.multidegree)
        md[var // 2] = max(md[var // 2] - 1, 0)
        return MultiHomogPoly(self.n, out, multidegree=md)


def cover_singular_at(poly: MultiHomogPoly, point) -> bool:
    """Is the double cover branched along {poly = 0} singular above point?

    The point must lie on the branch divisor (the cover is smooth above
    its complement, so asking elsewhere is a usage error).  Above a branch
    point the cover is singular exactly when the divisor is, and by the
    Jacobian criterion that means all 2n partials vanish there.
    """
    if not isinstance(point, ProductPoint):
        point = ProductPoint.of(point)
    if poly.evaluate(point) != 0:
        raise ValueError("point does not lie on the branch divisor")
    return all(poly.partial_derivative(v).evaluate(point) == 0
               for v in range(2 * poly.n))


def _expect_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_coeff(raw) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise ValueError(f"coefficient {raw!r} must be an exact int or "
                         f"a fraction string")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        if not COEFF_PATTERN.match(raw):
            raise ValueError(f"coefficient string {raw!r} is not of the "
                             f"form 'p' or 'p/q'")
        return Fraction(raw)
    raise ValueError(f"coefficient {raw!r} must be an int or a string")


def poly_from_json_dict(obj) -> MultiHomogPoly:
    """Build a polynomial from a decoded JSON object.

    Expected shape:
        {"n": 3, "multidegree": [2, 2, 2],
         "terms": [{"exponents": [2, 0, 2, 0, 0, 2], "coeff": "1"}, ...]}

    Coefficients are integers or strings 'p' / 'p/q'; floats are rejected.
    Duplicate exponent tuples are summed, zero totals dropped.
    """
    if not isinstance(obj, dict):
        raise ValueError("polynomial data must be a JSON object")
    extra = set(obj) - {"n", "multidegree", "terms"}
    if extra:
        raise ValueError(f"unknown keys in polynomial data: {sorted(extra)}")
    for key in ("n", "multidegree", "terms"):
        if key not in obj:
            raise ValueError(f"polynomial data is missing {key!r}")
    n = _expect_int(obj["n"], "n")
    md_raw = obj["multidegree"]
    if not isinstance(md_raw, list):
        raise ValueError("multidegree must be a list")
    multidegree = [_expect_int(d, "multidegree entry") for d in md_raw]
    terms_raw = obj["terms"]
    if not isinstance(terms_raw, list):
        raise ValueError("terms must be a list")
    acc: dict[tuple[int, ...], Fraction] = {}
    for entry in terms_raw:
        if not isinstance(entry, dict) or set(entry) != {"exponents", "coeff"}:
            raise ValueError(f"bad term entry: {entry!r}")
        exps_raw = entry["exponents"]
        if not isinstance(exps_raw, list):
            raise ValueError("exponents must be a list")
        exps = tuple(_expect_int(e, "exponent") for e in exps_raw)
        acc[exps] = acc.get(exps, Fraction(0)) + _parse_coeff(entry["coeff"])
    return MultiHomogPoly(n, acc, multidegree=multidegree)

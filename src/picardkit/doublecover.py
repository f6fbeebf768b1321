"""Double covers of products of lines and multihomogeneous branch data.

A cover is recorded by the type (2*d_1, ..., 2*d_n) of its branch divisor
on the n-fold product of lines.  The numerical invariants are closed-form
integer expressions, so they stay exact and cost O(n) for any supported
branch type.  The tests check them against lattice.top_intersection, the
permanent of n copies of the coordinate row of -K.  A branch type has at
most MAX_FACTORS entries, each at most MAX_BRANCH_ENTRY.

Branch divisors themselves are multihomogeneous polynomials with rational
coefficients.  A polynomial in n coordinate pairs keeps its exponent
vectors flat: entry 2k is the first variable of factor k, entry 2k+1 the
second.  A polynomial is a frozen value: its terms are a read-only
mapping, and equal polynomials hash equal.  Whether the cover is singular
above a branch point is decided by the Jacobian criterion: for a point on
the divisor, all 2n partials must vanish.

Only whether the value and the partials vanish matters, and scaling does
not change that: scaling coordinate pair k by lam != 0 multiplies p and
each partial by a power of lam (the per-factor Euler identities
a_k * dp/da_k + b_k * dp/db_k = d_k * p, d_k the degree in factor k, say
the same), and scaling all coefficients by D != 0 multiplies everything by
D.  So cover_singular_at works over the integers in one pass over the
terms; evaluate and partial_derivative are the Fraction route, which the
verify suite and the tests keep as an independent check.

Coefficients arrive as integers or exact fraction strings; floats are
rejected at the JSON boundary so no rounding can enter, and MultiHomogPoly
and ProductPoint take exact ints and Fractions only.  That boundary
also bounds the input's size: MAX_FACTORS factors, total degree
MAX_POLY_DEGREE, MAX_POLY_TERMS term entries, and MAX_COEFF_DIGITS digits
for each numerator and denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, lcm, prod
from types import MappingProxyType
from typing import Mapping, Sequence

from .lattice import FrozenValue, is_exact_int, short_repr

COEFF_PATTERN = re.compile(r"-?[0-9]+(/[0-9]+)?")

# Bounds on a branch type.  At these sizes the anticanonical power has at
# most a few hundred digits, so it prints at once.
MAX_FACTORS = 64
MAX_BRANCH_ENTRY = 1000

# Bounds on a branch polynomial read from JSON and on a point's
# coordinates (n is at most MAX_FACTORS there too).  They bound the work
# of the integer gradient, _value_and_gradient, on any accepted input:
# - a table of at most 2 * (MAX_POLY_DEGREE + MAX_FACTORS) = 176 powers;
# - per term, at most MAX_POLY_DEGREE = 24 support variables, so at most
#   24 prefix products and 24 suffix steps: 5 * 24 + 2 = 122
#   multiplications with the value and the gradient entries, and at most
#   MAX_POLY_TERMS * 122 = 124928 over the polynomial;
# - a scaled coordinate and the scaled coefficient have at most
#   2 * MAX_COEFF_DIGITS = 100 digits each, so every product has at most
#   (MAX_POLY_DEGREE + 1) * 100 = 2500 digits, and the value and each
#   gradient entry, sums over at most 1024 terms, at most 2504.
MAX_POLY_DEGREE = 24
MAX_POLY_TERMS = 1024
# Characters read from a polynomial file, at most: a near-worst accepted
# document (1024 terms, 50-digit fractions) has 2.7 million at indent=4.
MAX_POLY_CHARS = 1 << 23
MAX_COEFF_DIGITS = 50
_COEFF_BOUND = 10 ** MAX_COEFF_DIGITS


def _check_factor_count(n) -> None:
    if not is_exact_int(n):
        raise ValueError(f"factor count must be an integer, got "
                         f"{short_repr(n)}")


def _exact(x, what: str) -> Fraction:
    """x as a Fraction: only an exact int or a Fraction is accepted."""
    if not (is_exact_int(x) or isinstance(x, Fraction)):
        raise ValueError(f"{type(x).__name__} {what}s are not accepted")
    return Fraction(x)


class DoubleCoverSpec(FrozenValue):
    """Branch type of a double cover of the n-fold product of lines.

    branch_type holds (d_1, ..., d_n); the branch divisor has type
    (2*d_1, ..., 2*d_n).
    """

    __slots__ = ("n", "branch_type")
    n: int
    branch_type: tuple[int, ...]

    def __init__(self, n: int, branch_type: Sequence[int]) -> None:
        branch_type = tuple(branch_type)
        _check_factor_count(n)
        if n < 1:
            raise ValueError("need at least one factor")
        if n > MAX_FACTORS:
            raise ValueError(f"branch type has {n} factors; at most "
                             f"{MAX_FACTORS} are supported")
        if len(branch_type) != n:
            raise ValueError("one branch-type entry per factor required")
        for d in branch_type:
            if not is_exact_int(d) or d < 0:
                raise ValueError(f"branch-type entry {short_repr(d)} is not a "
                                 "nonnegative int")
            if d > MAX_BRANCH_ENTRY:
                raise ValueError(f"branch-type entry {d} exceeds "
                                 f"{MAX_BRANCH_ENTRY}")
        FrozenValue.__init__(self, n, branch_type)

    @staticmethod
    def of(branch_type: Sequence[int]) -> "DoubleCoverSpec":
        return DoubleCoverSpec(len(branch_type), branch_type)


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


class ProductPoint(FrozenValue):
    """A point of the n-fold product of lines: one coordinate pair per
    factor, no pair identically zero."""

    __slots__ = ("n", "pairs")
    n: int
    pairs: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, n: int, pairs: Sequence[Sequence]) -> None:
        _check_factor_count(n)
        if n < 1 or len(pairs) != n:
            raise ValueError("one coordinate pair per factor required")
        clean = []
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"coordinate pair {short_repr(pair)} must have "
                                 "length 2")
            a, b = _exact(pair[0], "coordinate"), _exact(pair[1], "coordinate")
            if a == 0 and b == 0:
                raise ValueError("a coordinate pair cannot be (0, 0)")
            clean.append((a, b))
        FrozenValue.__init__(self, n, tuple(clean))

    @staticmethod
    def of(pairs: Sequence[Sequence]) -> "ProductPoint":
        return ProductPoint(len(pairs), tuple(tuple(p) for p in pairs))

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(v for pair in self.pairs for v in pair)

    def scaled(self, factor: int, lam) -> "ProductPoint":
        """The same point with pair factor (0 <= factor < n) times lam."""
        if not (is_exact_int(factor) and 0 <= factor < self.n):
            raise ValueError(f"factor {short_repr(factor)} is not in "
                             f"0..{self.n - 1}")
        lam = _exact(lam, "scaling factor")
        if lam == 0:
            raise ValueError("scaling factor must be nonzero")
        pairs = list(self.pairs)
        a, b = pairs[factor]
        pairs[factor] = (a * lam, b * lam)
        return ProductPoint(self.n, tuple(pairs))


class MultiHomogPoly(FrozenValue):
    """Multihomogeneous polynomial on the n-fold product of lines.

    terms maps flat exponent tuples of length 2n to nonzero Fraction
    coefficients, through a read-only view.  Every term must have the same
    degree in each factor; that common tuple is the multidegree.  The zero
    polynomial carries an explicit multidegree label since its terms cannot
    determine one.
    """

    __slots__ = ("n", "terms", "multidegree")
    n: int
    terms: Mapping[tuple[int, ...], object]
    multidegree: Sequence[int] | None

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], object],
                 multidegree: Sequence[int] | None = None) -> None:
        _check_factor_count(n)
        if n < 1:
            raise ValueError("need at least one factor")
        clean: dict[tuple[int, ...], Fraction] = {}
        degree: tuple[int, ...] | None = None
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != 2 * n:
                raise ValueError(f"exponent tuple {short_repr(exps)} must "
                                 f"have length {2 * n}")
            if any(not is_exact_int(e) or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative ints: "
                                 f"{short_repr(exps)}")
            coeff = _exact(coeff, "coefficient")
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
                    not is_exact_int(d) or d < 0 for d in multidegree):
                raise ValueError(f"bad multidegree {multidegree}")
            if degree is not None and degree != multidegree:
                raise ValueError(
                    f"terms have multidegree {degree}, not {multidegree}")
        elif degree is None:
            raise ValueError("the zero polynomial needs an explicit multidegree")
        FrozenValue.__init__(self, n, MappingProxyType(clean),
                             multidegree if multidegree is not None
                             else degree)

    def __repr__(self) -> str:
        return (f"MultiHomogPoly(n={self.n}, multidegree={self.multidegree}, "
                f"{len(self.terms)} terms)")

    def __hash__(self) -> int:
        # a read-only mapping view has no hash of its own
        return hash((self.n, self.multidegree,
                     frozenset(self.terms.items())))

    def evaluate(self, point: ProductPoint) -> Fraction:
        """The exact value at a ProductPoint (ProductPoint.of reads raw
        pairs)."""
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
        if not (is_exact_int(var) and 0 <= var < 2 * self.n):
            raise ValueError(f"variable index {short_repr(var)} "
                             "out of range")
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e:
                smaller = exps[:var] + (e - 1,) + exps[var + 1:]
                out[smaller] = out.get(smaller, Fraction(0)) + coeff * e
        md = list(self.multidegree)
        md[var // 2] = max(md[var // 2] - 1, 0)
        return MultiHomogPoly(self.n, out, multidegree=md)


def _value_and_gradient(poly: MultiHomogPoly, point: ProductPoint
                        ) -> tuple[int, list[int]]:
    """poly and its 2n first partials at point, as integers, in one pass.

    Each is the exact value times a nonzero factor (see cover_singular_at),
    so each is zero exactly when the exact value is.  In a term, the
    partial in a variable v_j of exponent e_j > 0 is the coefficient times
    e_j * v_j^(e_j - 1) and the powers of the term's other variables, which
    prefix and suffix products over the term's variables give.
    """
    flat: list[int] = []
    for a, b in point.pairs:
        scale = lcm(a.denominator, b.denominator)
        flat += (a.numerator * (scale // a.denominator),
                 b.numerator * (scale // b.denominator))
    # powers[j][e] = flat[j] ** e up to the degree of j's factor
    powers = [[v ** e for e in range(poly.multidegree[j // 2] + 1)]
              for j, v in enumerate(flat)]
    den = lcm(*(c.denominator for c in poly.terms.values()))
    value = 0
    grad = [0] * len(flat)
    for exps, coeff in poly.terms.items():
        support = [j for j, e in enumerate(exps) if e]
        # left[i]: the powers of the support variables before support[i]
        left = [1]
        for j in support:
            left.append(left[-1] * powers[j][exps[j]])
        # right: the integer coefficient times the powers after support[i]
        right = coeff.numerator * (den // coeff.denominator)
        value += right * left[-1]
        for i in range(len(support) - 1, -1, -1):
            j = support[i]
            e = exps[j]
            grad[j] += e * left[i] * powers[j][e - 1] * right
            right *= powers[j][e]
    return value, grad


def cover_singular_at(poly: MultiHomogPoly, point: ProductPoint) -> bool:
    """Is the double cover branched along {poly = 0} singular above point?

    The point must lie on the branch divisor (the cover is smooth above
    its complement, so asking elsewhere is a usage error).  Above a branch
    point the cover is singular exactly when the divisor is, and by the
    Jacobian criterion that means all 2n partials vanish there.

    By multihomogeneity, scaling one coordinate pair by lam != 0 multiplies
    the value and every partial by a power of lam, and scaling the
    coefficients by D != 0 multiplies them all by D; neither changes which
    of them vanish.  So the point's pairs are scaled to integers and the
    coefficients put over one common denominator, and one integer pass
    over the terms gives the value and the whole gradient together.
    evaluate and partial_derivative stay the independent Fraction route.
    Like evaluate, it takes a ProductPoint only.
    """
    if point.n != poly.n:
        raise ValueError(f"point has {point.n} factors, expected {poly.n}")
    value, grad = _value_and_gradient(poly, point)
    if value:
        raise ValueError("point does not lie on the branch divisor")
    return not any(grad)


def _expect_int(value, what: str, limit: int) -> int:
    if not is_exact_int(value):
        raise ValueError(f"{what} must be an integer, got {short_repr(value)}")
    if not 0 <= value <= limit:
        raise ValueError(f"{what} {short_repr(value)} is not in 0..{limit}")
    return value


def parse_rational(text: str, what: str = "coefficient") -> Fraction:
    """An exact rational written 'p' or 'p/q', each part at most
    MAX_COEFF_DIGITS digits and q nonzero."""
    if not COEFF_PATTERN.fullmatch(text):
        raise ValueError(f"{what} {short_repr(text)} is not of the form "
                         f"'p' or 'p/q'")
    longest = max(len(part.lstrip("-")) for part in text.split("/"))
    if longest > MAX_COEFF_DIGITS:
        raise ValueError(f"{what} {short_repr(text)} has a part of {longest} "
                         f"digits; at most {MAX_COEFF_DIGITS} are supported")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{what} {short_repr(text)} has a zero "
                         f"denominator") from None


def _parse_coeff(raw) -> Fraction:
    if isinstance(raw, str):
        return parse_rational(raw)
    if not is_exact_int(raw):
        raise ValueError(f"coefficient {short_repr(raw)} must be an exact "
                         f"int or a fraction string")
    if abs(raw) >= _COEFF_BOUND:
        raise ValueError(f"integer coefficient has more than "
                         f"{MAX_COEFF_DIGITS} digits")
    return Fraction(raw)


def poly_from_json_dict(obj) -> MultiHomogPoly:
    """Build a polynomial from a decoded JSON object.

    Expected shape:
        {"n": 3, "multidegree": [2, 2, 2],
         "terms": [{"exponents": [2, 0, 2, 0, 0, 2], "coeff": "1"}, ...]}

    Coefficients are integers or strings 'p' / 'p/q'; floats are rejected.
    Duplicate exponent tuples are summed, zero totals dropped.  Sizes are
    checked before anything is built from them: n is at most MAX_FACTORS,
    the total degree sum(multidegree), and so every exponent, at most
    MAX_POLY_DEGREE, and there are at most MAX_POLY_TERMS term entries.  A
    coefficient's numerator and denominator have at most MAX_COEFF_DIGITS
    digits each, and so does the common denominator of all coefficients,
    over which cover_singular_at puts them.
    """
    if not isinstance(obj, dict):
        raise ValueError("polynomial data must be a JSON object")
    extra = set(obj) - {"n", "multidegree", "terms"}
    if extra:
        raise ValueError(f"unknown keys in polynomial data: "
                         f"{short_repr(sorted(extra))}")
    for key in ("n", "multidegree", "terms"):
        if key not in obj:
            raise ValueError(f"polynomial data is missing {key!r}")
    n = _expect_int(obj["n"], "n", MAX_FACTORS)
    md_raw = obj["multidegree"]
    if not isinstance(md_raw, list) or len(md_raw) != n:
        raise ValueError(f"multidegree must be a list of {n} entries")
    multidegree = [_expect_int(d, "multidegree entry", MAX_POLY_DEGREE)
                   for d in md_raw]
    if sum(multidegree) > MAX_POLY_DEGREE:
        raise ValueError(f"total degree {sum(multidegree)} exceeds "
                         f"{MAX_POLY_DEGREE}")
    terms_raw = obj["terms"]
    if not isinstance(terms_raw, list):
        raise ValueError("terms must be a list")
    if len(terms_raw) > MAX_POLY_TERMS:
        raise ValueError(f"{len(terms_raw)} term entries; at most "
                         f"{MAX_POLY_TERMS} are supported")
    acc: dict[tuple[int, ...], Fraction] = {}
    for entry in terms_raw:
        if not isinstance(entry, dict) or set(entry) != {"exponents", "coeff"}:
            raise ValueError(f"bad term entry: {short_repr(entry)}")
        exps_raw = entry["exponents"]
        if not isinstance(exps_raw, list) or len(exps_raw) != 2 * n:
            raise ValueError(f"exponents must be a list of {2 * n} entries")
        exps = tuple(_expect_int(e, "exponent", MAX_POLY_DEGREE)
                     for e in exps_raw)
        acc[exps] = acc.get(exps, Fraction(0)) + _parse_coeff(entry["coeff"])
    den = 1
    for coeff in acc.values():
        den = lcm(den, coeff.denominator)
        if den >= _COEFF_BOUND:
            raise ValueError(f"the coefficients' common denominator has more "
                             f"than {MAX_COEFF_DIGITS} digits")
    return MultiHomogPoly(n, acc, multidegree=multidegree)

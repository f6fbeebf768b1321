"""Lattice models for the two surface families the toolkit computes on.

Two kinds of model are supported:

* ``BlowupP2(r)``: the Picard lattice of the blow-up of P^2 at r points,
  0 <= r <= 8, with basis (H, E_1, ..., E_r), H^2 = 1, E_i^2 = -1, mixed
  products 0, and canonical class K = -3H + sum E_i.
* ``ProductP1(2)``: the quadric surface P^1 x P^1, with basis (H_1, H_2),
  the hyperbolic pairing H_1.H_2 = 1, H_i^2 = 0, and canonical class
  K = -2H_1 - 2H_2.  No other size is a model: the double covers of
  (P^1)^n need none, and top_intersection, the top form of (P^1)^n, takes
  coordinate rows.

The intersection form lives here alone and takes classes only, refusing
anything else with TypeError through one check, check_class: pairing
evaluates it on two classes, and pairing_vector turns one class into the
vector that the form dots against, which is how the cone and pair-scan
layers read it.
On BlowupP2 pairing takes one pass over both coordinate tuples, as
2 a_0 b_0 - sum_i a_i b_i (the sum over every coordinate, H included), so
no slice is built per call.  canonical_degree(c) is the one home for K.c:
it reads the degree off c's coordinates (-2 c_0 - sum c_i on BlowupP2,
-2 sum c_i on ProductP1(2)) without building K or pairing against it.
The layers above take their class slots through check_class too, which
also refuses a class of another model with ValueError.

All coordinates are Python integers, so arithmetic never overflows silently.
The one fixed-width route is packed_dots, many dot products at once in
the fields of one int.  The field layout is known here alone: the
contraction table of curves and the pair scan of fibration deal in row
bitmasks (bit i stands for row i), read off the packed ints by
fields_at_least, zero_fields and dense_mask, and both take the test
e.c = 0 from zero_masks.

Values are checked where they enter.  SurfaceModel(...) takes an exact int
size, and DivisorClass(...) takes exact int coordinates, as many as the
model's rank.  The sum, difference, negation and integer multiple of
classes go through that same constructor, and pairing and the arithmetic
refuse a non-class or a class of another model.  pairing and
canonical_degree check their arguments in their own frame: two plain
DivisorClass instances whose model is one object pass at once, and
anything else (a subclass, a non-class, two equal but distinct models)
takes the fallback route through check_class and _same_model, which keeps
the isinstance test, model equality and every error.  Wherever two models are
compared, identity is tested before equality.

FrozenValue, whose docstring gives its rules, is the base of the
package's value classes, here and in curves, fibration, cones and
doublecover: slotted frozen values, not dataclasses, whose imports and
code generation would cost every CLI start.

is_exact_int is the one test of an exact int used at every boundary: the
type is int itself, so a bool or an int subclass is refused.  DivisorClass,
from_curve and top_intersection apply it in bulk, as
{int}.issuperset(map(type, values)), the same test at about two thirds of
the cost; a test pins the two forms to each other.  short_repr shows a
refused value in a one-line message.  It lives here because every command
loads lattice: the CLI's number parser, which every command runs, and
doublecover's input checks take it from here.
"""

from __future__ import annotations

from math import prod
from operator import add, attrgetter, mul, neg, sub
from struct import pack
from typing import Callable, Iterator, Sequence

BLOWUP = "BlowupP2"
PRODUCT = "ProductP1"
# the most points a BlowupP2(r) model blows up: r <= 8 keeps -K ample
MAX_BLOWUP_POINTS = 8


def is_exact_int(x: object) -> bool:
    """Whether x is an int and no subclass: bool is one, and True would
    otherwise count as 1."""
    return type(x) is int


def short_repr(raw) -> str:
    """repr of raw, cut short enough for a one-line message."""
    try:
        text = repr(raw)
    except ValueError:  # holds an int past Python's 4300-digit str limit
        return "(a very long integer)"
    return text if len(text) <= 24 else text[:20] + "..."


def _storer(setters: tuple) -> Callable[[object, tuple], None]:
    """A method that stores a tuple of values, one per field, through the
    fields' slot setters.  Unrolled for two and three fields, the common
    records: on Python 3.11 any loop costs more than their stores."""
    if len(setters) == 2:
        first, second = setters

        def store(self, values):
            first(self, values[0])
            second(self, values[1])
    elif len(setters) == 3:
        first, second, third = setters

        def store(self, values):
            first(self, values[0])
            second(self, values[1])
            third(self, values[2])
    else:
        def store(self, values):
            for setter, value in zip(setters, values):
                setter(self, value)
    return store


class FrozenValue:
    """An immutable value whose fields are its __slots__, two or more, in
    constructor order.  The class is abstract: only a subclass that
    declares fields can be built, and FrozenValue() raises TypeError.

    The constructor binds its arguments to the fields as a plain function
    binds parameters, positional first, then keyword, and refuses too many,
    missing, unknown or repeated arguments with TypeError.  It stores them
    through _store, which __init_subclass__ makes once per class from the
    fields' slot setters.  A subclass with checks defines __init__, runs
    them and calls FrozenValue.__init__ with the field values: directly,
    since on Python 3.11 super() costs more than the binding.  A subclass
    that declares __slots__ = () adds no field and keeps its base's.
    Assignment and deletion raise AttributeError.  Two values are equal
    when they are of one class and their fields are equal, and a value
    hashes as the tuple of its fields.  The repr is Name(field=value, ...),
    and copy and pickle rebuild a value through its constructor.
    """

    __slots__ = ()
    _arity = -1  # no field yet: every construction reaches _bound

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__slots__
        if not fields:
            # a subclass that adds no field (__slots__ = ()) keeps its
            # base's fields, _key, _arity and _store
            return
        cls._fields = fields
        # the fields as one tuple, read in C
        cls._key = attrgetter(*fields)
        cls._arity = len(fields)
        # getattr, not cls.__dict__: a subclass without __slots__ of its
        # own inherits the descriptors
        cls._store = _storer(tuple(getattr(cls, name).__set__
                                   for name in fields))

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != self._arity:
            args = self._bound(args, kwargs)
        self._store(args)

    @classmethod
    def _bound(cls, args: tuple, kwargs: dict) -> tuple:
        """One value per field, in field order, from positional and keyword
        arguments; TypeError where a plain function would raise it."""
        if cls._arity < 0:
            raise TypeError(f"{cls.__name__} is abstract: build a subclass "
                            f"that declares its fields")
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but "
                            f"{len(args)} were given")
        rest = fields[len(args):]
        for key in kwargs:
            if key in rest:
                continue
            if key in fields:
                raise TypeError(f"{name}() got multiple values for "
                                f"argument {key!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument "
                            f"{key!r}")
        for field in rest:
            if field not in kwargs:
                raise TypeError(f"{name}() missing argument {field!r}")
        return args + tuple(kwargs[field] for field in rest)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key(self)


class SurfaceModel(FrozenValue):
    """A Picard lattice model, identified by kind and size: BlowupP2(r)
    for 0 <= r <= 8, or ProductP1(2)."""

    __slots__ = ("kind", "size")
    kind: str
    size: int

    def __init__(self, kind: str, size: int) -> None:
        if not is_exact_int(size):
            raise ValueError(f"model size must be an integer, "
                             f"got {short_repr(size)}")
        if kind == BLOWUP:
            if not 0 <= size <= MAX_BLOWUP_POINTS:
                raise ValueError(f"BlowupP2 needs 0 <= r <= "
                                 f"{MAX_BLOWUP_POINTS}, got {size}")
        elif kind == PRODUCT:
            if size != 2:
                raise ValueError(f"ProductP1 needs n = 2, got {size}")
        else:
            raise ValueError(f"unknown model kind {short_repr(kind)}")
        FrozenValue.__init__(self, kind, size)

    @staticmethod
    def blowup_p2(r: int) -> "SurfaceModel":
        return SurfaceModel(BLOWUP, r)

    @staticmethod
    def product_p1(n: int) -> "SurfaceModel":
        return SurfaceModel(PRODUCT, n)

    @property
    def rank(self) -> int:
        return self.size + 1 if self.kind == BLOWUP else self.size

    @property
    def basis_labels(self) -> tuple[str, ...]:
        if self.kind == BLOWUP:
            return ("H",) + tuple(f"E{i}" for i in range(1, self.size + 1))
        return tuple(f"H{i}" for i in range(1, self.size + 1))

    def __str__(self) -> str:
        return f"{self.kind}({self.size})"


class DivisorClass(FrozenValue):
    """An integer coordinate vector in a model's basis.

    Equality is coordinate-wise within one model; classes from different
    models never compare equal (the model participates in the comparison).
    """

    __slots__ = ("model", "coords")
    model: SurfaceModel
    coords: tuple[int, ...]

    def __init__(self, model: SurfaceModel, coords: Sequence[int]) -> None:
        coords = tuple(coords)
        # is_exact_int over every coordinate, in bulk
        if not {int}.issuperset(map(type, coords)):
            raise ValueError("divisor class coordinates must be integers")
        if len(coords) != model.rank:
            raise ValueError(
                f"expected {model.rank} coordinates for {model}, "
                f"got {len(coords)}"
            )
        FrozenValue.__init__(self, model, coords)

    @staticmethod
    def from_curve(model: SurfaceModel, degree: int,
                   mults: Sequence[int] = ()) -> "DivisorClass":
        """Class dH - sum(m_i E_i) of a plane curve on a BlowupP2 model.

        Mults shorter than r are padded with zeros on the right.
        """
        if model.kind != BLOWUP:
            raise ValueError("from_curve needs a BlowupP2 model")
        if len(mults) > model.size:
            raise ValueError("more multiplicities than blown-up points")
        m = tuple(mults) + (0,) * (model.size - len(mults))
        # checked before negation, which turns True into the int -1; the
        # bulk form of is_exact_int, as in the constructor
        if not {int}.issuperset(map(type, m)):
            raise ValueError("multiplicities must be integers")
        return DivisorClass(model, (degree,) + tuple(-v for v in m))

    @property
    def degree(self) -> int:
        """H-coefficient on blow-up models, first coordinate otherwise."""
        return self.coords[0]

    def multiplicities(self) -> tuple[int, ...]:
        if self.model.kind != BLOWUP:
            raise ValueError("multiplicities only make sense on BlowupP2")
        return tuple(-c for c in self.coords[1:])

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_model(self, other)
        return DivisorClass(self.model,
                            tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _same_model(self, other)
        return DivisorClass(self.model,
                            tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model, tuple(map(neg, self.coords)))

    def __mul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            return NotImplemented
        if not is_exact_int(scalar):
            raise ValueError(f"class multiples must be integers, "
                             f"got {short_repr(scalar)}")
        return DivisorClass(self.model, tuple(scalar * a for a in self.coords))

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for label, c in zip(self.model.basis_labels, self.coords):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else str(abs(c))
            if not parts:
                parts.append(("-" if c < 0 else "") + mag + label)
            else:
                parts.append(("- " if c < 0 else "+ ") + mag + label)
        return " ".join(parts) if parts else "0"


def canonical_class(model: SurfaceModel) -> DivisorClass:
    """K = -3H + sum E_i on blow-ups, -2H_1 - 2H_2 on P^1 x P^1.  For K.c
    alone, canonical_degree(c) builds no K."""
    if model.kind == BLOWUP:
        return DivisorClass(model, (-3,) + (1,) * model.size)
    return DivisorClass(model, (-2, -2))


def check_class(c: object, model: SurfaceModel | None = None
                ) -> DivisorClass:
    """c, if it is a DivisorClass, and of model when one is given: the one
    check that a function was given a class.  A non-class raises
    TypeError, a class of another model ValueError."""
    if not isinstance(c, DivisorClass):
        raise TypeError(f"expected DivisorClass, got {type(c).__name__}")
    if model is not None and c.model is not model and c.model != model:
        shown = model if isinstance(model, SurfaceModel) else short_repr(model)
        raise ValueError(f"{c} does not live in {shown}")
    return c


def _same_model(a: DivisorClass, b: DivisorClass) -> SurfaceModel:
    """The model of two classes, which must be one model."""
    model = check_class(a).model
    if check_class(b).model is not model and b.model != model:
        raise ValueError(f"classes live in different models: {model} vs "
                         f"{b.model}")
    return model


def pairing_vector(c: DivisorClass) -> tuple[int, ...]:
    """The form applied to the class c: the vector v with pairing(c, x) ==
    sum(v_i * x_i) for every class x of c's model.  pairing keeps its own
    inline formula, being the hot path."""
    x = check_class(c).coords
    model = c.model
    if model.kind == BLOWUP:
        return (x[0],) + tuple(-v for v in x[1:])
    return (x[1], x[0])


def pairing(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number of two classes on a surface model.

    On BlowupP2(r) this is the signature-(1, r) form
    a_0 b_0 - sum_{i>=1} a_i b_i, taken in one pass as
    2 a_0 b_0 - sum_{i>=0} a_i b_i.  On ProductP1(2) it is the hyperbolic
    form a_0 b_1 + a_1 b_0.
    """
    # plain classes of one model object pass here; anything else goes to
    # _same_model, which refuses it or finds the one model
    if (a.__class__ is DivisorClass and b.__class__ is DivisorClass
            and b.model is a.model):
        model = a.model
    else:
        model = _same_model(a, b)
    x, y = a.coords, b.coords
    if model.kind == BLOWUP:
        return 2 * x[0] * y[0] - sum(map(mul, x, y))
    return x[0] * y[1] + x[1] * y[0]


def canonical_degree(c: DivisorClass) -> int:
    """K.c, read off c's coordinates: -2 c_0 - sum_{i>=0} c_i on BlowupP2
    (K = -3H + sum E_i), -2 (c_0 + c_1) on ProductP1(2).  Equal to
    pairing(canonical_class(c.model), c)."""
    if c.__class__ is not DivisorClass:
        check_class(c)
    x = c.coords
    model = c.model
    if model.kind == BLOWUP:
        return -2 * x[0] - sum(x)
    return -2 * (x[0] + x[1])


# The bits of one field, and the bound on every |dot|.  Each field holds its
# dot plus 2^(FIELD_BITS - 1), so fields_at_least may shift it by up to
# DOT_LIMIT and stay inside [0, 2^FIELD_BITS).
FIELD_BITS = 16
DOT_LIMIT = 1 << (FIELD_BITS - 2)
# the bytes of one field, and a top byte as the binary digit of its top bit
_STEP = FIELD_BITS // 8
_DIGITS = b"0" * 128 + b"1" * 128


def packed_dots(rows: Sequence[Sequence[int]],
                vectors: Sequence[Sequence[int]]) -> tuple[int, Iterator[int]]:
    """Every dot product of each vector with every row, packed into one int
    per vector, FIELD_BITS bits to a field.

    Returns (ones, dots): ones holds 1 in each of the len(rows) fields, and
    the j-th int of dots holds sum_k vectors[j][k] rows[i][k] +
    2^(FIELD_BITS - 1) in field i.  fields_at_least and zero_fields read
    them.  Each dot is bounded from the coordinates alone, by
    max |row entry| * max |vector entry| * the number of columns, and
    ValueError is raised before any packing if that bound reaches
    DOT_LIMIT = 2^14; there is no fallback.  No coordinate of a conic or
    exceptional class of BlowupP2(8) passes 11, so there the bound is at
    most 11 * 11 * 9 = 1089.
    """
    def top(matrix):
        return max(max(map(max, matrix), default=0),
                   -min(map(min, matrix), default=0))

    widths = set(map(len, rows)) | set(map(len, vectors))
    if len(widths) > 1:
        raise ValueError(f"rows and vectors of lengths {sorted(widths)}")
    reach = top(rows) * top(vectors) * max(widths, default=0)
    if reach >= DOT_LIMIT:
        raise ValueError(f"dot products up to {reach} do not fit "
                         f"{FIELD_BITS}-bit fields")
    n = len(rows)
    ones = ((1 << (FIELD_BITS * n)) - 1) // ((1 << FIELD_BITS) - 1)
    offset = ones << (FIELD_BITS - 1)
    # each column's entries as signed fields ("h" is a signed 16-bit field):
    # the XOR turns two's complement into entry + 2^15, and taking the
    # offset away leaves each entry signed, a negative one borrowing from
    # the next field; the offset added back to the sum returns every borrow
    columns = [(int.from_bytes(pack(f"<{n}h", *col), "little") ^ offset)
               - offset for col in zip(*rows)]
    return ones, (sum(map(mul, v, columns), offset) for v in vectors)


def fields_at_least(d: int, ones: int, t: int) -> int:
    """The fields of d, an int of packed_dots with its ones, whose dot is
    at least t, for |t| <= DOT_LIMIT: each has its top bit set, and no
    other bit is."""
    return (d - t * ones) & (ones << (FIELD_BITS - 1))


def zero_fields(d: int, ones: int) -> int:
    """The fields of d whose dot is 0, by their top bits (at least 0, not
    at least 1); the lower bits are junk, which dense_mask never reads."""
    return d & ~(d - ones)


def dense_mask(marks: int, n: int) -> int:
    """The row bitmask of the first n fields of marks, a nonnegative int
    below 2^(FIELD_BITS * n): bit i is the top bit of field i."""
    # in big-endian order the top bytes run from field n - 1 down to field
    # 0, so as binary digits field i is bit i
    digits = marks.to_bytes(n * _STEP, "big")[::_STEP].translate(_DIGITS)
    return int(digits or b"0", 2)


def zero_masks(rows: Sequence[Sequence[int]],
               vectors: Sequence[Sequence[int]]) -> list[int]:
    """Per vector, the bitmask of the rows it is orthogonal to: bit i is
    set when its dot with rows[i] is 0.  packed_dots computes the dots, and
    its refusals apply."""
    ones, dots = packed_dots(rows, vectors)
    n = len(rows)
    return [dense_mask(zero_fields(d, ones), n) for d in dots]


# Largest matrix _permanent accepts: 2^20 Gray-code steps take a few seconds.
MAX_PERMANENT_SIZE = 20


def _permanent(rows: list[tuple[int, ...]]) -> int:
    """Permanent by Ryser's formula, visiting column subsets in Gray-code
    order (Nijenhuis & Wilf, Combinatorial Algorithms, 1978).

    Successive subsets differ in one column, so each step updates the n row
    sums by one addition each: O(2^n n) in all.  Matrices larger than
    MAX_PERMANENT_SIZE raise ValueError.
    """
    n = len(rows)
    if n > MAX_PERMANENT_SIZE:
        raise ValueError(f"permanent of a {n} x {n} matrix: at most "
                         f"{MAX_PERMANENT_SIZE} rows are supported")
    if n == 0:
        return 1
    cols = list(zip(*rows))
    sums = [0] * n
    subset = 0
    total = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1  # the column entering or leaving
        subset ^= 1 << j
        if subset >> j & 1:
            sums = [s + a for s, a in zip(sums, cols[j])]
        else:
            sums = [s - a for s, a in zip(sums, cols[j])]
        # the k-th subset has k's parity of columns; sign (-1)^(n - |S|)
        total += prod(sums) if (k - n) % 2 == 0 else -prod(sums)
    return total


def top_intersection(rows: Sequence[Sequence[int]]) -> int:
    """Top multilinear form H_{i_1}...H_{i_n} on (P^1)^n, of the n classes
    whose coordinate rows (in the basis H_1, ..., H_n) are given.

    Equals the permanent of the n x n matrix of rows: a product of basis
    classes is 1 when all indices are distinct and 0 otherwise.  A row of
    another length than n, an entry that is not an exact int, and
    n > MAX_PERMANENT_SIZE raise ValueError.
    """
    rows = [tuple(row) for row in rows]
    n = len(rows)
    for row in rows:
        if len(row) != n or not {int}.issuperset(map(type, row)):
            raise ValueError(f"top_intersection needs {n} rows of {n} "
                             f"integers, got {row!r}")
    return _permanent(rows)

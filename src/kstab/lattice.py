"""Rank r+1 divisor class lattice of a blown-up plane.

Classes are written in the basis (H; E_1, ..., E_r): H is the pullback of a
line, the E_i are the exceptional classes.  The pairing is
a.h*b.h - sum(a.e_i*b.e_i).  A class is an integer row (h, e_1, ..., e_r)
over one positive denominator, in lowest terms, and its arithmetic runs on
ints.  The row helpers at the end are the one home of the row format.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, attrgetter, mul, neg, sub

from .errors import DomainError

Rational = Fraction

# The most decimal digits a parsed numerator or denominator may have.  A
# report prints numbers of up to 18 times the digits of the class's
# coordinates (L^2 in degree 1), and Python prints no int of more than 4300
# digits.
MAX_DIGITS = 200
_TOO_LARGE = 10**MAX_DIGITS
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _too_large(value) -> DomainError:
    text = value if isinstance(value, str) else str(value)
    if len(text) > 40:
        text = f"{text[:20]}...{text[-10:]}"
    return DomainError(
        f"rational has more than {MAX_DIGITS} digits above or below the line: {text!r}"
    )


def _is_int(value) -> bool:
    """The one int check: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def rational(value) -> Fraction:
    """Parse a rational from "p/q", "n", int or Fraction.

    A str or int may have at most MAX_DIGITS digits in its numerator and in
    its denominator; a Fraction is taken as it is.
    """
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        if -_TOO_LARGE < value < _TOO_LARGE:
            return Fraction(value)
        raise _too_large(value)
    if isinstance(value, str):
        # "1e999999999" would build a billion-digit int, so the length and
        # the exponent are bounded before Fraction builds the number
        if len(value) > 3 * MAX_DIGITS:
            raise _too_large(value)
        try:
            if "e" in value or "E" in value:
                exponent = _EXPONENT.search(value)
                if exponent and abs(int(exponent.group(1))) > 3 * MAX_DIGITS:
                    raise _too_large(value)
            q = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational: {value!r}") from exc
        if -_TOO_LARGE < q.numerator < _TOO_LARGE and q.denominator < _TOO_LARGE:
            return q
        raise _too_large(value)
    raise DomainError(f"not a rational: {value!r}")


def _rational_row(values) -> tuple[int, tuple[int, ...]]:
    """(D, row) with row[i] / D the rational rational(values[i]), in order,
    and D the lcm of their denominators: the one reader of the rational
    arguments of a public entry.

    A str that is an optional sign and ASCII digits, with an optional "/"
    and ASCII digits after it, is read as two ints, reduced and bounded as
    rational() bounds it; a Fraction, and an int within the digit bound,
    are taken with one type test each.  Every other value (decimals,
    exponents, "_", other digits, a zero denominator, a value past the
    bound, a bool, any other type) goes through rational(), so the values
    accepted, the messages and the order of the checks are rational()'s.
    """
    nums, dens = [], []
    for value in values:
        kind = type(value)
        if kind is str and len(value) <= 3 * MAX_DIGITS and value.isascii():
            p, slash, q = value.strip().partition("/")
            digits = p[1:] if p[:1] in ("+", "-") else p
            if digits.isdigit() and (q.isdigit() if slash else True):
                n, d = int(p), int(q) if slash else 1
                if d:
                    g = gcd(n, d)
                    n, d = n // g, d // g
                    if -_TOO_LARGE < n < _TOO_LARGE and d < _TOO_LARGE:
                        nums.append(n)
                        dens.append(d)
                        continue
        if not (kind is Fraction or kind is int and -_TOO_LARGE < value < _TOO_LARGE):
            value = rational(value)
        nums.append(value.numerator)
        dens.append(value.denominator)
    den = lcm(*dens)
    return den, tuple(n * (den // d) for n, d in zip(nums, dens))


def rational_str(q: Fraction) -> str:
    """Serialize as "p/q", or "n" when integral.  A Fraction is in lowest
    terms, so it is printed without a second gcd."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


class _Record:
    """A frozen record, as a frozen dataclass behaves, with no generated code.
    A subclass names its compared fields in _fields and sets them in its own
    __init__ through vars(self) or object.__setattr__.  The base gives a repr
    over _fields, == and a hash on the tuple of their values, __match_args__
    (_fields, unless the class names its own), and dataclasses'
    FrozenInstanceError on assignment or deletion, imported only then."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        names = cls._fields
        if len(names) == 1:  # attrgetter of one name returns the bare value
            get = attrgetter(*names)
            key = lambda r: (get(r),)
        else:
            key = attrgetter(*names) if names else lambda r: ()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(key(self))
        cls.__match_args__ = cls.__dict__.get("__match_args__", names)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SurfaceModel(_Record):
    """Blow-up of the plane in r = 9 - degree general points (degree 1..8)."""

    _fields = ("degree",)

    def __init__(self, degree: int):
        if not _is_int(degree) or not 1 <= degree <= 8:
            raise DomainError(f"degree must be an integer in 1..8, got {degree!r}")
        object.__setattr__(self, "degree", degree)  # builds no instance dict, so reads stay fast

    @property
    def r(self) -> int:
        return 9 - self.degree


class DivClass(_Record):
    """The class row / den, row = (h, e_1, ..., e_r) of ints, den > 0 and
    gcd(den, *row) == 1: equal classes have equal fields.  DivClass(h, e)
    reads its coordinates through _rational_row, as lattice.rational reads
    them, and h and e build Fractions."""

    __slots__ = _fields = ("den", "row")

    def __init__(self, h, e):
        den, row = _rational_row((h, *e))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "row", row)

    def __reduce__(self):
        return _from_row, (self.den, self.row)

    @property
    def h(self) -> Fraction:
        return Fraction(self.row[0], self.den)

    @property
    def e(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.row[1:])

    @property
    def rank(self) -> int:
        return len(self.row) - 1

    def _combine(self, other: "DivClass", op) -> "DivClass":
        """op(self, other) for op add or sub, over a common denominator."""
        if len(self.row) != len(other.row):
            raise DomainError(f"rank mismatch: {self.rank} vs {other.rank}")
        a, b = self.den, other.den
        if a == b:
            return _from_row(a, tuple(map(op, self.row, other.row)))
        den = lcm(a, b)
        fa, fb = den // a, den // b
        return _from_row(den, tuple(op(fa * x, fb * y) for x, y in zip(self.row, other.row)))

    def __add__(self, other: "DivClass") -> "DivClass":
        return self._combine(other, add)

    def __sub__(self, other: "DivClass") -> "DivClass":
        return self._combine(other, sub)

    def __neg__(self) -> "DivClass":
        return _from_row(self.den, tuple(map(neg, self.row)))

    def __mul__(self, scalar) -> "DivClass":
        den, (n,) = _rational_row((scalar,))
        return _from_row(self.den * den, tuple(n * x for x in self.row))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.row)

    def is_integral(self) -> bool:
        return self.den == 1

    def sort_key(self):
        # h first, then multiplicity at earlier points first, sign as tiebreak;
        # gives E1 < E2 < ... < H-E1-E2 < H-E1-E3 < ... < H-E2-E3 < ...
        return (self.h, tuple(-abs(a) for a in self.e), tuple(-a for a in self.e))

    def __str__(self) -> str:
        h, *e = (_ratio_str(x, self.den) for x in self.row)
        return f"({h}; {', '.join(e)})"


def _from_row(den: int, row: tuple[int, ...]) -> DivClass:
    """The class row / den for den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *row)
        if g != 1:
            den //= g
            row = tuple(x // g for x in row)
    c = object.__new__(DivClass)
    object.__setattr__(c, "den", den)
    object.__setattr__(c, "row", row)
    return c


def _ratio_str(num: int, den: int) -> str:
    """rational_str of num / den for den > 0, without a Fraction."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def div(h, e) -> DivClass:
    """Build a DivClass as DivClass(h, e) does; a row of ints within the
    digit bound is taken as it is, with no common denominator to find."""
    coords = (h, *e)
    if all(type(x) is int and -_TOO_LARGE < x < _TOO_LARGE for x in coords):
        return _from_row(1, coords)
    return _from_row(*_rational_row(coords))


def _rank(a) -> int:
    """The rank of the class a.  A value that is not a DivClass is refused
    with DomainError, so an entry handed one does not fail on its fields."""
    if isinstance(a, DivClass):
        return len(a.row) - 1
    raise DomainError(f"not a divisor class: a {type(a).__name__}")


def _shared_rank(classes) -> int:
    """The rank of each of the classes, each read through _rank; classes
    of two ranks are refused with DomainError."""
    first, *rest = map(_rank, classes)
    for rank in rest:
        if rank != first:
            raise DomainError(f"rank mismatch: {first} vs {rank}")
    return first


def _check_ranks(s: SurfaceModel, a: DivClass, b: DivClass) -> None:
    if _rank(a) != s.r or _rank(b) != s.r:
        raise DomainError(
            f"class rank does not match surface: {a.rank}, {b.rank} vs r={s.r}"
        )


def intersect(a: DivClass, b: DivClass, s: SurfaceModel) -> Fraction:
    _check_ranks(s, a, b)
    return Fraction(_row_dot(a.row, b.row), a.den * b.den)


def square(a: DivClass, s: SurfaceModel) -> Fraction:
    return intersect(a, a, s)


def _scaled_square(a: DivClass, s: SurfaceModel) -> int:
    """den^2 * a^2 as an int, which has the sign of square(a, s); the rank
    is checked as square checks it."""
    _check_ranks(s, a, a)
    return _row_dot(a.row, a.row)


def canonical(s: SurfaceModel) -> DivClass:
    """K = -3H + sum(E_i)."""
    return _from_row(1, (-3,) + (1,) * s.r)


def anticanonical(s: SurfaceModel) -> DivClass:
    return _from_row(1, _anticanonical_row(s))


def zero_class(s: SurfaceModel) -> DivClass:
    return _from_row(1, (0,) * (s.r + 1))


def basis_line(s: SurfaceModel) -> DivClass:
    return _from_row(1, (1,) + (0,) * s.r)


def basis_exceptional(s: SurfaceModel, i: int) -> DivClass:
    """E_i for i in 1..r."""
    if not (_is_int(i) and 1 <= i <= s.r):
        raise DomainError(f"exceptional index must be an integer in 1..{s.r}, got {i!r}")
    return _from_row(1, tuple(int(j == i) for j in range(s.r + 1)))


# An integer row (h, e_1, ..., e_r) holds the coordinates of an integral
# class, or of a class times a common denominator; the helpers below build,
# combine and pair rows without creating Fractions.


def _anticanonical_row(s: SurfaceModel) -> tuple[int, ...]:
    return (3,) + (-1,) * s.r


def _row_dot(u, v) -> int:
    """The pairing u.v of two integer rows (h, e_1, ..., e_r)."""
    return u[0] * v[0] - sum(map(mul, u[1:], v[1:]))


def _row_sum(*rows) -> tuple[int, ...]:
    return tuple(map(sum, zip(*rows)))


def _row_less(base, *rows) -> tuple[int, ...]:
    """base minus every one of rows."""
    if not rows:
        return tuple(base)
    return tuple(map(sub, base, map(sum, zip(*rows))))


def _row_combination(terms) -> tuple[int, ...]:
    """sum(n * row) over (integer row, int n) terms."""
    rows, ns = zip(*terms)
    return tuple(sum(map(mul, ns, column)) for column in zip(*rows))

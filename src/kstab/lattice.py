"""Rank r+1 divisor class lattice of a blown-up plane.

Classes are written in the basis (H; E_1, ..., E_r): H is the pullback of a
line, the E_i are the exceptional classes.  The pairing is
a.h*b.h - sum(a.e_i*b.e_i).  All coordinates are exact rationals
(fractions.Fraction, always lowest terms, positive denominator).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Rational = Fraction

# The most decimal digits a parsed numerator or denominator may have.  A
# report prints numbers of up to 18 times the digits of the class's
# coordinates (L^2 in degree 1), and Python prints no int of more than 4300
# digits.
MAX_DIGITS = 200
_TOO_LARGE = 10**MAX_DIGITS
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)
# One shared Fraction per small integer, among them every coordinate of the
# curve tables (h in 0..11, e_i in -11..1); a lookup costs far less than
# building a Fraction.
_SMALL = {n: Fraction(n) for n in range(-11, 12)}


def _too_large(value) -> DomainError:
    text = value if isinstance(value, str) else str(value)
    if len(text) > 40:
        text = f"{text[:20]}...{text[-10:]}"
    return DomainError(
        f"rational has more than {MAX_DIGITS} digits above or below the line: {text!r}"
    )


def rational(value) -> Fraction:
    """Parse a rational from "p/q", "n", int or Fraction.

    A str or int may have at most MAX_DIGITS digits in its numerator and in
    its denominator; a Fraction is taken as it is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        small = _SMALL.get(value)
        if small is not None:
            return small
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


def rational_str(q: Fraction) -> str:
    """Serialize as "p/q", or "n" when integral."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class SurfaceModel:
    """Blow-up of the plane in r = 9 - degree general points (degree 1..8)."""

    degree: int

    def __post_init__(self):
        if not isinstance(self.degree, int) or not 1 <= self.degree <= 8:
            raise DomainError(f"degree must be an integer in 1..8, got {self.degree!r}")

    @property
    def r(self) -> int:
        return 9 - self.degree


@dataclass(frozen=True)
class DivClass:
    h: Fraction
    e: tuple[Fraction, ...]

    @property
    def rank(self) -> int:
        return len(self.e)

    def _check(self, other: "DivClass") -> None:
        if len(self.e) != len(other.e):
            raise DomainError(
                f"rank mismatch: {len(self.e)} vs {len(other.e)}"
            )

    def __add__(self, other: "DivClass") -> "DivClass":
        self._check(other)
        return DivClass(self.h + other.h, tuple(a + b for a, b in zip(self.e, other.e)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        self._check(other)
        return DivClass(self.h - other.h, tuple(a - b for a, b in zip(self.e, other.e)))

    def __neg__(self) -> "DivClass":
        return DivClass(-self.h, tuple(-a for a in self.e))

    def __mul__(self, scalar) -> "DivClass":
        c = rational(scalar)
        return DivClass(self.h * c, tuple(a * c for a in self.e))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.h == 0 and all(a == 0 for a in self.e)

    def is_integral(self) -> bool:
        return self.h.denominator == 1 and all(a.denominator == 1 for a in self.e)

    def sort_key(self):
        # h first, then multiplicity at earlier points first, sign as tiebreak;
        # gives E1 < E2 < ... < H-E1-E2 < H-E1-E3 < ... < H-E2-E3 < ...
        return (self.h, tuple(-abs(a) for a in self.e), tuple(-a for a in self.e))

    def __str__(self) -> str:
        es = ", ".join(rational_str(a) for a in self.e)
        return f"({rational_str(self.h)}; {es})"


def div(h, e) -> DivClass:
    """Build a DivClass, coercing every coordinate."""
    return DivClass(rational(h), tuple(rational(a) for a in e))


def intersect(a: DivClass, b: DivClass, s: SurfaceModel) -> Fraction:
    if len(a.e) != s.r or len(b.e) != s.r:
        raise DomainError(
            f"class rank does not match surface: {len(a.e)}, {len(b.e)} vs r={s.r}"
        )
    acc = a.h * b.h
    for x, y in zip(a.e, b.e):
        acc -= x * y
    return acc


def square(a: DivClass, s: SurfaceModel) -> Fraction:
    return intersect(a, a, s)


def canonical(s: SurfaceModel) -> DivClass:
    """K = -3H + sum(E_i)."""
    return DivClass(Fraction(-3), tuple(Fraction(1) for _ in range(s.r)))


def anticanonical(s: SurfaceModel) -> DivClass:
    return -canonical(s)


def zero_class(s: SurfaceModel) -> DivClass:
    return DivClass(Fraction(0), tuple(Fraction(0) for _ in range(s.r)))


def basis_line(s: SurfaceModel) -> DivClass:
    return DivClass(Fraction(1), tuple(Fraction(0) for _ in range(s.r)))


def basis_exceptional(s: SurfaceModel, i: int) -> DivClass:
    """E_i for i in 1..r."""
    if not 1 <= i <= s.r:
        raise DomainError(f"exceptional index {i} out of 1..{s.r}")
    return DivClass(
        Fraction(0), tuple(Fraction(1 if j == i - 1 else 0) for j in range(s.r))
    )

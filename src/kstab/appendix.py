"""Exact evaluator and brute-force grid oracle for the closing inequalities.

Standalone by design: the four-case value, the twelve-sum threshold and both
inequalities are implemented here from scratch, independent of the
certificate engine, so the two modules can cross-check each other bit for
bit.  Both are decided over ints, one cross-multiplication each (_margin).
The integer entry _decide takes the weights over one denominator q, runs
the domain checks on those ints and returns both margins and the
piecewise value as an int numerator and denominator; the degree-4 slope
comparison in alphabound calls it with a face's own integer weights, so
the cross-check builds no Fraction, yet every margin is still derived
here.  An AppendixInput puts its coefficients and delta over one common
denominator once, when it is built, keeps only those ints and reads a and
delta off them as Fractions, and prop_a1 and alpha_piecewise read the ints
through _decide.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .errors import DomainError
from .lattice import Rational, _is_int, _rational_row, _Record, rational


class AppendixInput(_Record):
    """Five ordered coefficients and a fiber weight.

    Requires 1 >= a1 >= a2 >= a3 >= a4 >= a5 >= 0 and delta >= 0.  Inputs
    violating the ordering are rejected, never silently sorted.  Each is
    read as lattice.rational reads it.
    """

    # the record holds only _weights, (q, q*a, q*delta) with q the lcm of
    # the denominators; a and delta are read off it as Fractions
    _fields = ("a", "delta")

    def __init__(self, a: tuple[Rational, ...], delta: Rational):
        if len(a) != 5:
            raise DomainError(_FIVE)
        q, (*a, d) = _rational_row((*a, delta))
        vars(self)["_weights"] = (q, tuple(a), d)
        _check(*self._weights)

    @property
    def a(self) -> tuple[Fraction, ...]:
        q, a, _ = self._weights
        return tuple(Fraction(x, q) for x in a)

    @property
    def delta(self) -> Fraction:
        q, _, d = self._weights
        return Fraction(d, q)


_FIVE = "exactly five coefficients required"


def _check(q: int, a: tuple[int, ...], d: int) -> None:
    """The domain checks of an input (q, q*a, q*delta), q > 0, on its ints."""
    if len(a) != 5:
        raise DomainError(_FIVE)
    if a[0] > q:
        raise DomainError("leading coefficient must not exceed 1")
    if a[4] < 0:
        raise DomainError("coefficients must be nonnegative")
    if any(x < y for x, y in zip(a, a[1:])):
        raise DomainError("coefficients must be sorted nonincreasing")
    if d < 0:
        raise DomainError("delta must be nonnegative")


def _largest_sum(q: int, a2: int, a3: int, a4: int, a5: int) -> int:
    # the twelve listed subset sums, best value not exceeding 1 (that is, q)
    sums = (
        a2,
        a2 + a3,
        a2 + a4,
        a2 + a5,
        a3 + a4,
        a3 + a5,
        a4 + a5,
        a2 + a3 + a4,
        a2 + a3 + a5,
        a2 + a4 + a5,
        a3 + a4 + a5,
        a2 + a3 + a4 + a5,
    )
    return max((x for x in sums if x <= q), default=0)


def _case_sum(q: int, a2: int, a3: int, a4: int) -> int:
    # the sum the four-case value adds, cases tested in order
    if a2 + a3 <= q + a4:
        return a2 + a3 + a4
    if a2 + a4 <= q:
        return a2 + a4
    if a3 + a4 <= q:
        return a3 + a4
    return a2


def _sides(q: int, a: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (a1, t, s, S) that _margin takes, for each of the two inequalities."""
    a1, a2, a3, a4, a5 = a
    t = a1 + a2 + a3 + a4
    s = a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4
    return (
        (a1, t + a5, s + a5 * a5, _largest_sum(q, a2, a3, a4, a5)),
        (a1, t, s, _case_sum(q, a2, a3, a4)),
    )


def _margin(q: int, d: int, a1: int, t: int, s: int, big_s: int) -> int:
    """Right side minus left side of one inequality, times a positive factor.

    With t and s the sum and the square sum of the coefficients it reads,
    and S the subset sum on its left, both denominators of
    2/(3 + 2a1 + 2delta + S) <= (2/3)(4 + 2delta + t)/(4 + 4delta + 2t - s)
    are positive.  Clearing them and multiplying by q^2 gives, over the
    scaled integers (s scales by q^2),
    3(4q^2 + 4qd + 2qt - s) <= (4q + 2d + t)(3q + 2a1 + 2d + S).
    """
    return (4 * q + 2 * d + t) * (3 * q + 2 * a1 + 2 * d + big_s) - 3 * (
        4 * q * q + 4 * q * d + 2 * q * t - s
    )


def _decide(q: int, a: tuple[int, ...], d: int) -> tuple[int, int, int, int]:
    """(m1, m2, n, D) for the input a_i = a[i] / q, delta = d / q: the
    margins of the two inequalities, each holding when its margin is >= 0
    and strictly when > 0, and the piecewise value n / D (not reduced).

    The integer entry behind prop_a1 and alpha_piecewise: a caller that
    holds its weights over one denominator passes the five a's (padded with
    zeros) and delta as ints, and the input's domain checks run on them
    with AppendixInput's messages.
    """
    _check(q, a, d)
    m1, m2 = (_margin(q, d, *side) for side in _sides(q, a))
    return m1, m2, 2 * q, 3 * q + 2 * a[0] + 2 * d + _case_sum(q, *a[1:4])


def alpha_piecewise(inp: AppendixInput) -> Fraction:
    """The four-case piecewise value, cases tested in order."""
    q, a, d = inp._weights
    return Fraction(*_decide(q, a, d)[2:])


def prop_a1(inp: AppendixInput) -> dict:
    """Both closing inequalities, evaluated exactly.

    Returns {"ineq1", "ineq2", "strict1", "strict2", "piecewise"}, the last
    being the alpha_piecewise value on the left of the second inequality.
    Both inequalities hold on the whole domain, strictly away from the
    all-zero point.
    """
    q, a, d = inp._weights
    m1, m2, n, den = _decide(q, a, d)
    return {
        "ineq1": m1 >= 0,
        "ineq2": m2 >= 0,
        "strict1": m1 > 0,
        "strict2": m2 > 0,
        "piecewise": Fraction(n, den),
    }


# The most points grid_oracle scans; q = 24 at delta_max = 1 (2.97 million)
# took about 4.6 s on one core of a shared two-core machine.
MAX_GRID_POINTS = 10**7


class GridReport(_Record):
    """A grid_oracle report: max_denominator, delta_max, the total point
    count, and the failures and equality points as AppendixInputs."""

    _fields = ("max_denominator", "delta_max", "total", "failures", "equality_points")

    def __init__(self, max_denominator, delta_max, total, failures, equality_points):
        vars(self).update(
            max_denominator=max_denominator, delta_max=delta_max, total=total,
            failures=failures, equality_points=equality_points,
        )


def grid_oracle(max_denominator: int, delta_max: Rational = Fraction(1)) -> GridReport:
    """Check prop_a1 on every grid input with coordinates in (1/q)Z.

    Coefficients range over [0, 1], delta over [0, delta_max].  The report
    window is exactly what was enumerated; nothing is claimed beyond it.
    A grid of more than MAX_GRID_POINTS points is refused before the scan.
    max_denominator must be an int, and delta_max is read as
    lattice.rational reads it.
    """
    q = max_denominator
    if not _is_int(q):
        raise DomainError(f"max_denominator must be an integer, got {q!r}")
    delta_max = rational(delta_max)
    if q < 1:
        raise DomainError("max_denominator must be at least 1")
    if delta_max < 0:
        raise DomainError("delta_max must be nonnegative")
    dsteps = int(delta_max * q)  # multiples of 1/q inside the window
    total = comb(q + 5, 5) * (dsteps + 1)  # nonincreasing 5-tuples
    if total > MAX_GRID_POINTS:
        raise DomainError(f"the grid would have more than {MAX_GRID_POINTS} points")
    failures = []
    equalities = []
    for idx in combinations_with_replacement(range(q + 1), 5):
        a = idx[::-1]
        first, second = _sides(q, a)
        for d in range(dsteps + 1):
            m1 = _margin(q, d, *first)
            m2 = _margin(q, d, *second)
            if m1 < 0 or m2 < 0:
                failures.append((a, d))
            elif m1 == 0 or m2 == 0:
                equalities.append((a, d))
    failures.sort()
    equalities.sort()
    def to_input(pair):
        return AppendixInput(tuple(Fraction(i, q) for i in pair[0]), Fraction(pair[1], q))

    return GridReport(
        max_denominator=q,
        delta_max=delta_max,
        total=total,
        failures=tuple(to_input(p) for p in failures),
        equality_points=tuple(to_input(p) for p in equalities),
    )

"""Exact evaluator and brute-force grid oracle for the closing inequalities.

Standalone by design: the four-case value, the twelve-sum threshold and both
inequalities are implemented here from scratch, independent of the
certificate engine, so the two modules can cross-check each other bit for
bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from multiprocessing import Pool

from .errors import DomainError
from .lattice import Rational

_POOL_THRESHOLD = 5000


@dataclass(frozen=True)
class AppendixInput:
    """Five ordered coefficients and a fiber weight.

    Requires 1 >= a1 >= a2 >= a3 >= a4 >= a5 >= 0 and delta >= 0.  Inputs
    violating the ordering are rejected, never silently sorted.
    """

    a: tuple[Rational, ...]
    delta: Rational

    def __post_init__(self):
        if len(self.a) != 5:
            raise DomainError("exactly five coefficients required")
        if self.a[0] > 1:
            raise DomainError("leading coefficient must not exceed 1")
        if self.a[4] < 0:
            raise DomainError("coefficients must be nonnegative")
        if any(x < y for x, y in zip(self.a, self.a[1:])):
            raise DomainError("coefficients must be sorted nonincreasing")
        if self.delta < 0:
            raise DomainError("delta must be nonnegative")


def _largest_sum(a2, a3, a4, a5) -> Fraction:
    # the twelve listed subset sums, best value not exceeding 1
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
    return max((x for x in sums if x <= 1), default=Fraction(0))


def alpha_piecewise(inp: AppendixInput) -> Fraction:
    """The four-case piecewise value, cases tested in order."""
    a1, a2, a3, a4, _ = inp.a
    if a2 + a3 <= 1 + a4:
        s = a2 + a3 + a4
    elif a2 + a4 <= 1:
        s = a2 + a4
    elif a3 + a4 <= 1:
        s = a3 + a4
    else:
        s = a2
    return Fraction(2) / (3 + 2 * a1 + 2 * inp.delta + s)


def prop_a1(inp: AppendixInput) -> dict:
    """Both closing inequalities, evaluated exactly.

    Returns {"ineq1", "ineq2", "strict1", "strict2", "piecewise"}, the last
    being the alpha_piecewise value on the left of the second inequality.
    Both inequalities hold on the whole domain, strictly away from the
    all-zero point.
    """
    a1, a2, a3, a4, a5 = inp.a
    delta = inp.delta
    lhs1 = Fraction(2) / (3 + 2 * a1 + 2 * delta + _largest_sum(a2, a3, a4, a5))
    tot5 = a1 + a2 + a3 + a4 + a5
    sq5 = a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a5 * a5
    rhs1 = Fraction(2, 3) * (4 + 2 * delta + tot5) / (4 + 4 * delta + 2 * tot5 - sq5)
    lhs2 = alpha_piecewise(inp)
    tot4 = tot5 - a5
    sq4 = sq5 - a5 * a5
    rhs2 = Fraction(2, 3) * (4 + 2 * delta + tot4) / (4 + 4 * delta + 2 * tot4 - sq4)
    return {
        "ineq1": lhs1 <= rhs1,
        "ineq2": lhs2 <= rhs2,
        "strict1": lhs1 < rhs1,
        "strict2": lhs2 < rhs2,
        "piecewise": lhs2,
    }


@dataclass(frozen=True)
class GridReport:
    max_denominator: int
    delta_max: Rational
    total: int
    failures: tuple
    equality_points: tuple


def _scan_column(args):
    """All delta values for one coefficient tuple; returns sorted findings."""
    q, idx, dsteps = args
    a = tuple(Fraction(i, q) for i in idx)
    failures = []
    equalities = []
    for d in range(dsteps + 1):
        inp = AppendixInput(a, Fraction(d, q))
        res = prop_a1(inp)
        if not (res["ineq1"] and res["ineq2"]):
            failures.append((idx, d))
        elif not (res["strict1"] and res["strict2"]):
            equalities.append((idx, d))
    return failures, equalities


def _pool_size() -> int:
    """KSTAB_THREADS as an integer clamped to [1, os.cpu_count()]."""
    raw = os.environ.get("KSTAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError as exc:
        raise DomainError(f"KSTAB_THREADS must be an integer, got {raw!r}") from exc
    return max(1, min(threads, os.cpu_count() or 1))


def grid_oracle(max_denominator: int, delta_max: Rational = Fraction(1)) -> GridReport:
    """Check prop_a1 on every grid input with coordinates in (1/q)Z.

    Coefficients range over [0, 1], delta over [0, delta_max].  The report
    window is exactly what was enumerated; nothing is claimed beyond it.
    """
    q = max_denominator
    if q < 1:
        raise DomainError("max_denominator must be at least 1")
    if delta_max < 0:
        raise DomainError("delta_max must be nonnegative")
    dsteps = int(delta_max * q)  # multiples of 1/q inside the window
    columns = [
        (q, tuple(reversed(idx)), dsteps)
        for idx in combinations_with_replacement(range(q + 1), 5)
    ]
    total = len(columns) * (dsteps + 1)
    threads = _pool_size()
    if threads > 1 and total > _POOL_THRESHOLD:
        with Pool(threads) as pool:
            results = pool.map(_scan_column, columns, chunksize=64)
    else:
        results = map(_scan_column, columns)
    failures = []
    equalities = []
    for f, e in results:
        failures.extend(f)
        equalities.extend(e)
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

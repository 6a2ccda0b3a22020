"""Exact two-phase simplex over integer standard-form programs, and rational
cone membership.

A program is

    minimize    c . x
    subject to  lhs . x == rhs,  x >= 0

with int entries.  Primal simplex with Bland's least-index pivot rule,
which rules out cycling, so every call terminates.  The tableau rows are
integer multiples of the exact rational rows, so no Fraction is built
while pivoting.  Problem sizes here are tiny (at most ~250 columns, ~10
rows), so a dense tableau is the right data structure.

solve() returns Optimal(value, point) or Infeasible(); a program whose
objective is unbounded below raises DomainError, as no caller poses one.
solve() checks each optimal point once, exactly, on the entries as the
caller gave them; a failure there is a solver bug and raises
InvariantError.  Callers rely on that check and do not repeat it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd

from .errors import DomainError, InvariantError
from .lattice import DivClass, _Record

_ZERO = Fraction(0)


class LinearProgram(_Record):
    """minimize objective . x subject to lhs . x == rhs and x >= 0, with
    int entries only: solve() pivots on them as given, with no conversion.
    solve() returns Optimal or Infeasible, and raises DomainError when the
    objective is unbounded below."""

    _fields = ("objective", "lhs", "rhs")

    def __init__(self, objective, lhs, rhs):
        vars(self).update(objective=objective, lhs=lhs, rhs=rhs)
        if len(lhs) != len(rhs):
            raise DomainError("row count mismatch between lhs and rhs")
        if any(len(row) != len(objective) for row in lhs):
            raise DomainError("lhs row length does not match objective length")


class Optimal(_Record):
    """An optimal solve: the objective value and the point, as Fractions."""

    _fields = ("value", "point")

    def __init__(self, value: Fraction, point: tuple[Fraction, ...]):
        vars(self).update(value=value, point=point)


class Infeasible(_Record):
    """An infeasible solve; it has no fields."""


def lp(objective, lhs, rhs) -> LinearProgram:
    """A LinearProgram from sequences of ints, kept as given."""
    return LinearProgram(tuple(objective), tuple(map(tuple, lhs)), tuple(rhs))


# reduce(), not gcd(*row): on CPython 3.11 the star call left the process
# holding about 1 MB more memory after a few thousand solves
def _eliminate(row, prow, col) -> list[int]:
    """row - (row[col] / prow[col]) * prow, scaled by a positive integer
    into lowest terms; prow[col] > 0."""
    f, p = row[col], prow[col]
    out = [a * p - f * b for a, b in zip(row, prow)]
    g = reduce(gcd, out)
    return [a // g for a in out] if g > 1 else out


def _pivot(rows, cost, basis, pr, pc):
    """Pivot the tableau in place on the entry (pr, pc)."""
    prow = rows[pr]
    if prow[pc] < 0:  # only when driving out an artificial, at rhs 0
        rows[pr] = prow = [-a for a in prow]
    for i, row in enumerate(rows):
        if i != pr and row[pc]:
            rows[i] = _eliminate(row, prow, pc)
    if cost[pc]:
        cost[:] = _eliminate(cost, prow, pc)
    basis[pr] = pc


def _price(cost, rows, basis) -> list[int]:
    """The cost row with every basic column priced out."""
    for row, bi in zip(rows, basis):
        if cost[bi]:
            cost = _eliminate(cost, row, bi)
    return cost


def _run_simplex(rows, cost, basis, ncols) -> bool:
    """Minimize cost over the tableau.  True at an optimum, False when an
    improving column has no positive entry: the cost is unbounded below."""
    while True:
        pc = next((j for j in range(ncols) if cost[j] < 0), -1)
        if pc < 0:
            return True
        # least ratio row[-1] / row[pc] over row[pc] > 0, ties to the least
        # basic index; the ratios compare by cross-multiplying
        pr = -1
        for i, row in enumerate(rows):
            a = row[pc]
            if a > 0:
                if pr < 0:
                    pr = i
                    continue
                lhs, rhs = row[-1] * rows[pr][pc], rows[pr][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pr]):
                    pr = i
        if pr < 0:
            return False
        _pivot(rows, cost, basis, pr, pc)


def solve(prog: LinearProgram):
    """Two-phase simplex on a tableau of integer rows: Optimal or
    Infeasible, or DomainError when the objective is unbounded below.

    Each row is a positive multiple of the exact rational tableau row, so
    every sign and ratio, hence every pivot, is that of the rational
    tableau; row i holds its basic column basis[i] with a positive entry,
    and a basic variable is rhs / that entry.
    """
    ncols = len(prog.objective)
    nrows = len(prog.lhs)

    # phase 1: the program's rows, each with its rhs made nonnegative, and
    # one artificial per row
    rows = []
    for i, (row, b) in enumerate(zip(prog.lhs, prog.rhs)):
        art = [0] * nrows
        art[i] = 1
        if b < 0:
            row, b = [-a for a in row], -b
        rows.append([*row, *art, b])
    basis = list(range(ncols, ncols + nrows))
    cost = _price([0] * ncols + [1] * nrows + [0], rows, basis)
    if not _run_simplex(rows, cost, basis, ncols + nrows):
        raise InvariantError("phase 1 is bounded below by 0 yet came back unbounded")
    if cost[-1] != 0:
        return Infeasible()

    # drive any artificial still in the basis out of it, or drop its row
    keep = []
    for i in range(nrows):
        if basis[i] >= ncols:
            pc = next((j for j in range(ncols) if rows[i][j]), -1)
            if pc < 0:
                continue  # a redundant row: drop it
            _pivot(rows, cost, basis, i, pc)
        keep.append(i)
    rows = [rows[i][:ncols] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: price the real objective for the current basis
    cost = _price([*prog.objective, 0], rows, basis)
    if not _run_simplex(rows, cost, basis, ncols):
        raise DomainError("the objective is unbounded below on the feasible set")

    point = [_ZERO] * ncols
    for row, bi in zip(rows, basis):
        point[bi] = Fraction(row[-1], row[bi])
    _check_point(prog, point)
    value = sum(c * x for c, x in zip(prog.objective, point))
    return Optimal(value=value, point=tuple(point))


def _check_point(prog, point):
    for row, b in zip(prog.lhs, prog.rhs):
        if sum(a * x for a, x in zip(row, point) if x) != b:
            raise InvariantError(f"simplex produced an infeasible point: {point}")
    if any(x < 0 for x in point):
        raise InvariantError(f"simplex violated a sign constraint: {point}")


def cone_member(target: DivClass, generators) -> tuple[Fraction, ...] | None:
    """Nonnegative coordinates of target in the span of generators, or None.

    The program is posed on the integer rows of G_i = row_i / d_i and of
    target = row / D, so the check solve() makes on its point u is the
    substitution target == sum(t_i * G_i), t >= 0, with t_i = u_i * d_i / D.
    """
    generators = list(generators)
    if any(g.rank != target.rank for g in generators):
        raise DomainError("generator rank does not match target")
    if target.is_zero():
        return tuple(_ZERO for _ in generators)
    if not generators:
        return None
    rows = list(zip(*(g.row for g in generators)))
    res = solve(lp(objective=[0] * len(generators), lhs=rows, rhs=target.row))
    if isinstance(res, Infeasible):
        return None
    return tuple(u * g.den / target.den if u else u for u, g in zip(res.point, generators))

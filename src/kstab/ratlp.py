"""Exact rational linear programming.

Two-phase primal simplex over fractions.Fraction with Bland's least-index
pivot rule, which rules out cycling, so every call terminates.  Problem
sizes here are tiny (at most ~250 columns, ~10 rows), so a dense tableau
is the right data structure.

A program is

    minimize    c . x
    subject to  lhs[i] . x  (<= | == | >=)  rhs[i]
                x_j >= 0 where nonneg[j], else x_j free.

solve() returns Optimal(value, point), Infeasible() or Unbounded(ray).
Any returned point or ray is re-checked exactly against the constraints
before being handed back; a failure there is a solver bug and raises
InvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvariantError
from .lattice import DivClass

_ZERO = Fraction(0)
_ONE = Fraction(1)

RELATIONS = ("<=", "==", ">=")


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple[Fraction, ...]
    lhs: tuple[tuple[Fraction, ...], ...]
    rel: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    nonneg: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.objective)
        if len(self.lhs) != len(self.rel) or len(self.lhs) != len(self.rhs):
            raise DomainError("row count mismatch between lhs, rel, rhs")
        if any(len(row) != n for row in self.lhs):
            raise DomainError("lhs row length does not match objective length")
        if len(self.nonneg) != n:
            raise DomainError("nonneg length does not match objective length")
        if any(r not in RELATIONS for r in self.rel):
            raise DomainError(f"relations must be one of {RELATIONS}")


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    point: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Unbounded:
    ray: tuple[Fraction, ...]


def lp(objective, lhs, rel, rhs, nonneg=None) -> LinearProgram:
    """Convenience constructor coercing ints to Fractions."""
    objective = tuple(Fraction(c) for c in objective)
    if nonneg is None:
        nonneg = tuple(True for _ in objective)
    return LinearProgram(
        objective=objective,
        lhs=tuple(tuple(Fraction(a) for a in row) for row in lhs),
        rel=tuple(rel),
        rhs=tuple(Fraction(b) for b in rhs),
        nonneg=tuple(bool(f) for f in nonneg),
    )


def _pivot(rows, cost, basis, pr, pc):
    """Pivot the tableau in place.  rows[i] has the rhs in its last slot."""
    prow = rows[pr]
    inv = _ONE / prow[pc]
    if inv != 1:
        rows[pr] = prow = [a * inv for a in prow]
    for i, row in enumerate(rows):
        if i == pr:
            continue
        f = row[pc]
        if f:
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    f = cost[pc]
    if f:
        cost[:] = [a - f * b for a, b in zip(cost, prow)]
    basis[pr] = pc


def _run_simplex(rows, cost, basis, ncols):
    """Minimize cost over the tableau.  Returns 'optimal' or ('unbounded', pc)."""
    while True:
        pc = -1
        for j in range(ncols):
            if cost[j] < 0:
                pc = j
                break
        if pc < 0:
            return "optimal", -1
        pr = -1
        best = None
        for i, row in enumerate(rows):
            a = row[pc]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[pr]
                ):
                    best = ratio
                    pr = i
        if pr < 0:
            return "unbounded", pc
        _pivot(rows, cost, basis, pr, pc)


def _standardize(prog: LinearProgram):
    """Rewrite with all variables nonnegative and all rows as equalities.

    Returns (columns, col_map, eq_rows, eq_rhs) where col_map[j] is a list of
    (original_var, sign) pairs describing how standard variable j embeds.
    """
    n = len(prog.objective)
    col_map = []
    for j in range(n):
        col_map.append([(j, 1)])
        if not prog.nonneg[j]:
            col_map.append([(j, -1)])
    nstd = len(col_map)

    def expand(row):
        out = []
        for pairs in col_map:
            (j, sgn), = pairs
            out.append(row[j] if sgn > 0 else -row[j])
        return out

    eq_rows = []
    eq_rhs = []
    slack_of_row = []
    for row, rel, b in zip(prog.lhs, prog.rel, prog.rhs):
        eq_rows.append(expand(row))
        eq_rhs.append(b)
        slack_of_row.append(1 if rel == "<=" else -1 if rel == ">=" else 0)
    nslack = sum(1 for t in slack_of_row if t)
    for i, t in enumerate(slack_of_row):
        if t:
            for k, erow in enumerate(eq_rows):
                erow.append(Fraction(t) if k == i else _ZERO)
    obj = []
    for pairs in col_map:
        (j, sgn), = pairs
        obj.append(prog.objective[j] if sgn > 0 else -prog.objective[j])
    obj.extend([_ZERO] * nslack)
    return obj, col_map, eq_rows, eq_rhs, nstd


def solve(prog: LinearProgram):
    obj, col_map, eq_rows, eq_rhs, nstd = _standardize(prog)
    ncols = len(obj)
    nrows = len(eq_rows)

    # phase 1: one artificial per row, rhs made nonnegative first
    rows = []
    basis = []
    for i in range(nrows):
        row = list(eq_rows[i])
        b = eq_rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        art = [_ZERO] * nrows
        art[i] = _ONE
        rows.append(row + art + [b])
        basis.append(ncols + i)
    cost = [_ZERO] * (ncols + nrows) + [_ZERO]
    for i in range(nrows):
        cost[ncols + i] = _ONE
    # price out the artificial basis
    for i, row in enumerate(rows):
        cost = [a - b for a, b in zip(cost, row)]
    status, _ = _run_simplex(rows, cost, basis, ncols + nrows)
    if status != "optimal":
        raise InvariantError("phase 1 is bounded below by 0 yet came back unbounded")
    if -cost[-1] != 0:
        return Infeasible()

    # drive any artificial still in the basis out of it, or drop its row
    keep = []
    for i in range(nrows):
        if basis[i] >= ncols:
            pc = -1
            for j in range(ncols):
                if rows[i][j] != 0:
                    pc = j
                    break
            if pc >= 0:
                _pivot(rows, cost, basis, i, pc)
                keep.append(i)
            # else: redundant row, drop
        else:
            keep.append(i)
    rows = [rows[i][:ncols] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: price the real objective for the current basis
    cost = list(obj) + [_ZERO]
    for i, bi in enumerate(basis):
        f = cost[bi]
        if f:
            row = rows[i]
            cost = [a - f * b for a, b in zip(cost, row)]
    status, pc = _run_simplex(rows, cost, basis, ncols)

    if status == "unbounded":
        direction = [_ZERO] * ncols
        direction[pc] = _ONE
        for i, bi in enumerate(basis):
            if bi < ncols:
                direction[bi] = -rows[i][pc]
        ray = _fold(direction, col_map, len(prog.objective))
        _check_ray(prog, ray)
        return Unbounded(ray=tuple(ray))

    point_std = [_ZERO] * ncols
    for i, bi in enumerate(basis):
        if bi < ncols:
            point_std[bi] = rows[i][-1]
    point = _fold(point_std, col_map, len(prog.objective))
    _check_point(prog, point)
    value = sum(c * x for c, x in zip(prog.objective, point))
    return Optimal(value=value, point=tuple(point))


def _fold(std_vector, col_map, n):
    out = [_ZERO] * n
    for val, pairs in zip(std_vector, col_map):
        (j, sgn), = pairs
        out[j] += val if sgn > 0 else -val
    return out


def _check_point(prog, point):
    for row, rel, b in zip(prog.lhs, prog.rel, prog.rhs):
        v = sum(a * x for a, x in zip(row, point))
        ok = v <= b if rel == "<=" else v >= b if rel == ">=" else v == b
        if not ok:
            raise InvariantError(f"simplex produced an infeasible point: {point}")
    for x, f in zip(point, prog.nonneg):
        if f and x < 0:
            raise InvariantError(f"simplex violated a sign constraint: {point}")


def _check_ray(prog, ray):
    travel = sum(c * x for c, x in zip(prog.objective, ray))
    if travel >= 0:
        raise InvariantError("unbounded ray does not improve the objective")
    for row, rel in zip(prog.lhs, prog.rel):
        v = sum(a * x for a, x in zip(row, ray))
        ok = v <= 0 if rel == "<=" else v >= 0 if rel == ">=" else v == 0
        if not ok:
            raise InvariantError("unbounded ray leaves the feasible cone")
    for x, f in zip(ray, prog.nonneg):
        if f and x < 0:
            raise InvariantError("unbounded ray violates a sign constraint")


def cone_member(target: DivClass, generators) -> tuple[Fraction, ...] | None:
    """Nonnegative coordinates of target in the span of generators, or None.

    Any Yes answer is re-verified by exact substitution before it is returned.
    """
    generators = list(generators)
    if any(len(g.e) != len(target.e) for g in generators):
        raise DomainError("generator rank does not match target")
    if target.is_zero():
        return tuple(_ZERO for _ in generators)
    if not generators:
        return None
    coords = [target.h] + list(target.e)
    rows = []
    for i in range(len(coords)):
        rows.append(tuple(g.h if i == 0 else g.e[i - 1] for g in generators))
    prog = lp(
        objective=[0] * len(generators),
        lhs=rows,
        rel=["=="] * len(coords),
        rhs=coords,
    )
    res = solve(prog)
    if isinstance(res, Infeasible):
        return None
    if not isinstance(res, Optimal):
        raise InvariantError("a zero objective cannot be unbounded")
    acc_h = sum((t * g.h for t, g in zip(res.point, generators)), _ZERO)
    acc_e = [
        sum((t * g.e[i] for t, g in zip(res.point, generators)), _ZERO)
        for i in range(len(target.e))
    ]
    if acc_h != target.h or any(x != y for x, y in zip(acc_e, target.e)):
        raise InvariantError("cone membership coefficients failed substitution")
    if any(t < 0 for t in res.point):
        raise InvariantError("cone membership returned a negative coefficient")
    return res.point

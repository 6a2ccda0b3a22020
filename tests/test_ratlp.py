import itertools
import random
from fractions import Fraction

import pytest

from kstab.curves import minus_one_curves
from kstab.errors import DomainError, InvariantError
from kstab.lattice import SurfaceModel, anticanonical, div, zero_class
from kstab.ratlp import (
    Infeasible,
    LinearProgram,
    Optimal,
    _check_point,
    cone_member,
    lp,
    solve,
)


def test_one_variable_minimum():
    # min x  s.t.  x >= 3/2, with the surplus s:  2x - 2s == 3
    res = solve(lp([1, 0], [[2, -2]], [3]))
    assert isinstance(res, Optimal)
    assert res.value == Fraction(3, 2)
    assert res.point == (Fraction(3, 2), 0)


def test_infeasible():
    # x >= 1 and x <= 0:  x - s1 == 1, x + s2 == 0
    res = solve(lp([0, 0, 0], [[1, -1, 0], [1, 0, 1]], [1, 0]))
    assert isinstance(res, Infeasible)


def test_unbounded():
    # min -x  s.t.  x >= 0:  x - s == 0; no caller poses an unbounded program
    with pytest.raises(DomainError):
        solve(lp([-1, 0], [[1, -1]], [0]))


def test_free_variable():
    # min x with x free and x >= -7:  x = xp - xm, and xp - xm - s == -7
    res = solve(lp([1, -1, 0], [[1, -1, -1]], [-7]))
    assert isinstance(res, Optimal)
    assert res.value == -7
    assert res.point == (0, 7, 0)  # x = xp - xm = -7


def test_two_phase_with_equalities():
    # min x + y  s.t.  x + 2y == 4, x - y >= -1:  x - y - s == -1
    res = solve(lp([1, 1, 0], [[1, 2, 0], [1, -1, -1]], [4, -1]))
    assert isinstance(res, Optimal)
    assert res.value == Fraction(7, 3)
    assert res.point == (Fraction(2, 3), Fraction(5, 3), 0)


def test_leftover_artificials_are_driven_out_or_dropped():
    # phase 1 ends with the first artificial basic at 0 over -x, so it is
    # pivoted out on a negative entry; the all-zero row is dropped
    res = solve(lp([0], [[-1], [0]], [0, 0]))
    assert res == Optimal(value=0, point=(0,))
    # the same pivot, then phase 2 prices the objective against that row
    res = solve(lp([2, 2], [[-1, 0]], [0]))
    assert res == Optimal(value=0, point=(0, 0))
    # a dependent row: min x + 2y  s.t.  x + y == 2, 2x + 2y == 4
    res = solve(lp([1, 2], [[1, 1], [2, 2]], [2, 4]))
    assert res == Optimal(value=2, point=(2, 0))


def test_ratio_ties_leave_the_least_basic_index():
    # a tied ratio test decides among alternative optima
    res = solve(lp([0, 1, -1, -2], [[2, 0, 1, 1], [1, 2, 1, -1]], [2, 1]))
    point = (0, 0, Fraction(3, 2), Fraction(1, 2))
    assert res == Optimal(value=Fraction(-5, 2), point=point)
    # a tied ratio test on the way to an unbounded column
    with pytest.raises(DomainError):
        solve(lp([-1, -2, 1], [[1, 0, 0], [1, -1, 2]], [1, 1]))


def test_malformed_programs_rejected():
    with pytest.raises(DomainError):
        lp([1], [[1, 2]], [1])
    with pytest.raises(DomainError):
        lp([1, 2], [[1, 2], [1]], [1, 1])
    with pytest.raises(DomainError):
        LinearProgram((1,), ((1,),), ())


def test_check_point_rejects_a_broken_row_and_a_negative_entry():
    # the one check every Optimal answer passes, on the entries as given
    prog = lp([1, 0], [[2, -2]], [3])
    _check_point(prog, (Fraction(3, 2), 0))
    with pytest.raises(InvariantError):
        _check_point(prog, (1, 0))  # 2 - 0 != 3
    with pytest.raises(InvariantError):
        _check_point(prog, (Fraction(1, 2), -1))  # the row holds, s < 0


# --- oracle: enumerate basic solutions of {Ax rel b, x >= 0} ---------------


def _with_slacks(objective, lhs, rel, rhs):
    """The standard form of {min c.x, Ax rel b, x >= 0}: one slack column
    per inequality row, in row order, +1 for <= and -1 for >=."""
    slacks = [(i, 1 if r == "<=" else -1) for i, r in enumerate(rel) if r != "=="]
    lhs = [
        list(row) + [sign if i == k else 0 for k, sign in slacks]
        for i, row in enumerate(lhs)
    ]
    return lp(list(objective) + [0] * len(slacks), lhs, rhs)


def _oracle(objective, lhs, rel, rhs):
    """Exhaustive minimum over basic feasible points.

    Only valid for programs whose variables are all sign-constrained (the
    feasible region is then pointed, so if it is nonempty and the optimum
    finite, a vertex attains it).  Returns ('infeasible',), ('optimal', v)
    or ('feasible', best_vertex_value) when unboundedness cannot be ruled
    out by this method.
    """
    n = len(objective)
    eqs = list(zip(lhs, rel, rhs))
    for j in range(n):
        row = tuple(Fraction(1 if i == j else 0) for i in range(n))
        eqs.append((row, ">=", Fraction(0)))
    feasible_pts = []
    for chosen in itertools.combinations(range(len(eqs)), n):
        mat = [list(eqs[i][0]) + [eqs[i][2]] for i in chosen]
        pt = _solve_square(mat, n)
        if pt is None:
            continue
        if all(_satisfied(row, r, b, pt) for row, r, b in eqs):
            feasible_pts.append(pt)
    if not feasible_pts:
        return ("infeasible",)
    best = min(sum(c * x for c, x in zip(objective, pt)) for pt in feasible_pts)
    return ("feasible", best)


def _satisfied(row, rel, b, pt):
    v = sum(a * x for a, x in zip(row, pt))
    return v <= b if rel == "<=" else v >= b if rel == ">=" else v == b


def _solve_square(mat, n):
    # Gaussian elimination; None when singular
    m = [row[:] for row in mat]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return tuple(m[i][n] for i in range(n))


def test_simplex_matches_vertex_oracle_on_random_small_programs():
    rng = random.Random(20260821)
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        program = (
            [rng.randint(-4, 4) for _ in range(n)],
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)],
            [rng.choice(["<=", ">=", "=="]) for _ in range(m)],
            [rng.randint(-4, 4) for _ in range(m)],
        )
        try:
            got = solve(_with_slacks(*program))
        except DomainError:
            got = None  # unbounded below
        want = _oracle(*program)
        if want[0] == "infeasible":
            assert isinstance(got, Infeasible)
        elif isinstance(got, Optimal):
            assert got.value == want[1]
            assert all(_satisfied(*eq, got.point[:n]) for eq in zip(*program[1:]))
        else:
            # the program is feasible, and solve() found no optimum: it
            # raised, as the objective falls along some ray
            assert got is None


def test_cone_member_zero_target():
    s = SurfaceModel(7)
    assert cone_member(zero_class(s), minus_one_curves(s)) == (0, 0, 0)


def test_cone_member_stated_sum():
    s = SurfaceModel(7)
    curves = minus_one_curves(s)
    target = div(1, [0, -1])  # E1 + (H-E1-E2)
    coeffs = cone_member(target, curves)
    assert coeffs is not None
    acc = zero_class(s)
    for t, g in zip(coeffs, curves):
        acc = acc + t * g
    assert acc == target
    # generators and a target over denominators > 1: the program runs on
    # their integer rows, and each coefficient is scaled back by g.den / D
    e1, line, e2 = div(0, [1, 0]), div(1, [-1, -1]), div(0, [0, 1])
    gens = [Fraction(1, 2) * e1, Fraction(1, 3) * line, Fraction(1, 4) * e2]
    assert [g.den for g in gens] == [2, 3, 4]
    target = Fraction(2, 7) * e1 + Fraction(3, 5) * line
    assert target.den == 35
    coeffs = cone_member(target, gens)
    assert coeffs == (Fraction(4, 7), Fraction(9, 5), 0)
    assert sum((t * g for t, g in zip(coeffs, gens)), zero_class(s)) == target
    assert cone_member(-target, gens) is None


def test_cone_member_no():
    s = SurfaceModel(7)
    assert cone_member(div(-1, [0, 0]), minus_one_curves(s)) is None


def test_cone_member_anticanonical_interior_degree4():
    s = SurfaceModel(4)
    curves = minus_one_curves(s)
    coeffs = cone_member(anticanonical(s), curves)
    assert coeffs is not None
    acc = zero_class(s)
    for t, g in zip(coeffs, curves):
        assert t >= 0
        acc = acc + t * g
    assert acc == anticanonical(s)


def test_cone_member_random_nonneg_combinations_always_yes():
    s = SurfaceModel(5)
    curves = minus_one_curves(s)
    rng = random.Random(7)
    for _ in range(25):
        target = zero_class(s)
        for g in curves:
            if rng.random() < 0.3:
                target = target + Fraction(rng.randint(0, 5), rng.randint(1, 4)) * g
        assert cone_member(target, curves) is not None

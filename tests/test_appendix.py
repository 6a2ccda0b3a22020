import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import appendix, cli
from kstab.appendix import AppendixInput, alpha_piecewise, grid_oracle, prop_a1
from kstab.errors import DomainError


def _inp(*a, delta=Fraction(0)):
    return AppendixInput(tuple(Fraction(x) for x in a), Fraction(delta))


def test_input_validation():
    with pytest.raises(DomainError):
        _inp(0, Fraction(1, 2), 0, 0, 0)  # not nonincreasing
    with pytest.raises(DomainError):
        _inp(1, 1, 1, 1, 1, 1)  # six entries
    with pytest.raises(DomainError):
        _inp(1, 0, 0, 0, Fraction(-1, 2))
    with pytest.raises(DomainError):
        _inp(Fraction(3, 2), 0, 0, 0, 0)
    with pytest.raises(DomainError):
        _inp(0, 0, 0, 0, 0, delta=Fraction(-1))
    _inp(1, 1, 1, 1, 1)  # a1 = 1 is inside the domain
    _inp(0, 0, 0, 0, 0, delta=Fraction(7, 2))


def _fraction_message(a, delta):
    # the input checks as they read on the Fraction weights
    if a[0] > 1:
        return "leading coefficient must not exceed 1"
    if a[4] < 0:
        return "coefficients must be nonnegative"
    if any(x < y for x, y in zip(a, a[1:])):
        return "coefficients must be sorted nonincreasing"
    if delta < 0:
        return "delta must be nonnegative"
    return None


def test_input_checks_on_ints_match_fraction_checks():
    rng = random.Random(16)
    for _ in range(3000):
        a = [Fraction(rng.randint(-1, 9), rng.randint(1, 8)) for _ in range(5)]
        if rng.random() < 0.7:
            a.sort(reverse=True)
        delta = Fraction(rng.randint(-1, 6), rng.randint(1, 6))
        try:
            message = None
            AppendixInput(tuple(a), delta)
        except DomainError as err:
            message = str(err)
        assert message == _fraction_message(a, delta), (a, delta)


def test_input_weights_are_scaled_once(monkeypatch):
    inp = _inp(Fraction(1, 2), Fraction(1, 3), 0, 0, 0, delta=Fraction(3, 4))
    same = _inp(Fraction(2, 4), Fraction(2, 6), 0, 0, 0, delta=Fraction(3, 4))
    assert inp == same and hash(inp) == hash(same)
    assert "_weights" not in repr(inp)
    assert inp._weights == appendix._scaled(inp) == (12, (6, 4, 0, 0, 0), 9)
    expected = prop_a1(inp)

    def scaled_again(_):
        raise AssertionError("the weights were scaled again")

    monkeypatch.setattr(appendix, "_scaled", scaled_again)
    assert prop_a1(inp) == expected
    assert alpha_piecewise(inp) == expected["piecewise"]


def test_piecewise_at_zero():
    assert alpha_piecewise(_inp(0, 0, 0, 0, 0)) == Fraction(2, 3)


def test_piecewise_first_case_value():
    # a2 + a3 = 9/5 <= 1 + a4 = 19/10, so the first case applies
    v = alpha_piecewise(_inp(1, Fraction(9, 10), Fraction(9, 10), Fraction(9, 10), 0))
    assert v == Fraction(20, 77)


def test_piecewise_first_case_boundary_tie():
    # a2 + a3 = 2 = 1 + a4: the tie stays in the first case
    assert alpha_piecewise(_inp(1, 1, 1, 1, 0)) == Fraction(1, 4)


def test_piecewise_later_cases():
    # a2 + a3 > 1 + a4 and a2 + a4 <= 1: second case
    v = alpha_piecewise(_inp(1, Fraction(9, 10), Fraction(9, 10), Fraction(1, 10), 0))
    assert v == Fraction(2, 6)
    # only a3 + a4 <= 1: third case
    v = alpha_piecewise(_inp(1, 1, Fraction(9, 10), Fraction(1, 10), 0))
    assert v == Fraction(2, 6)
    # everything large: fourth case keeps a2 alone
    v = alpha_piecewise(_inp(1, 1, Fraction(9, 10), Fraction(1, 2), 0))
    assert v == Fraction(2, 6)


def test_prop_a1_equality_at_zero():
    res = prop_a1(_inp(0, 0, 0, 0, 0))
    assert res["ineq1"] and res["ineq2"]
    assert not res["strict1"] and not res["strict2"]


def test_prop_a1_strict_off_zero():
    strict = {"ineq1": True, "ineq2": True, "strict1": True, "strict2": True}
    res = prop_a1(_inp(1, 0, 0, 0, 0))
    assert res == {**strict, "piecewise": Fraction(2, 5)}
    res = prop_a1(_inp(0, 0, 0, 0, 0, delta=1))
    assert res == {**strict, "piecewise": Fraction(2, 5)}


def test_fourth_case_inequalities_coincide():
    # with a5 = 0 the twelve-sum threshold in the fourth case is a2 itself,
    # so both inequalities evaluate identically
    for delta in (Fraction(0), Fraction(1, 3)):
        for a in (
            (1, 1, Fraction(9, 10), Fraction(1, 2), 0),
            (Fraction(9, 10), Fraction(9, 10), Fraction(9, 10), Fraction(3, 5), 0),
        ):
            res = prop_a1(_inp(*a, delta=delta))
            assert res["ineq1"] == res["ineq2"]
            assert res["strict1"] == res["strict2"]
            inp = _inp(*a, delta=delta)
            assert alpha_piecewise(inp) == Fraction(2) / (
                3 + 2 * inp.a[0] + 2 * delta + inp.a[1]
            )


def test_grid_bad_parameters():
    with pytest.raises(DomainError):
        grid_oracle(0)
    with pytest.raises(DomainError):
        grid_oracle(2, Fraction(-1))
    with pytest.raises(DomainError):
        grid_oracle(30)  # 10063592 points, the least q over the cap


def test_grid_coarse():
    rep = grid_oracle(1)
    assert rep.total == 12  # six ordered 0/1 tuples, two delta values
    assert rep.failures == ()
    assert rep.equality_points == (_inp(0, 0, 0, 0, 0),)


def test_grid_totals():
    assert grid_oracle(2).total == 63
    assert grid_oracle(3, Fraction(1, 2)).total == 112
    assert grid_oracle(2, Fraction(0)).total == 21


def test_grid_medium():
    rep = grid_oracle(4)
    assert rep.total == 630
    assert rep.failures == ()
    assert rep.equality_points == (_inp(0, 0, 0, 0, 0),)


def test_grid_totals_grow_with_refinement():
    assert grid_oracle(1).total < grid_oracle(2).total < grid_oracle(4).total


def test_grid_fine(monkeypatch):
    evaluated = []
    margin = appendix._margin

    def counted(*args):
        evaluated.append(args)
        return margin(*args)

    monkeypatch.setattr(appendix, "_margin", counted)
    rep = grid_oracle(7)
    assert rep.total == 6336
    assert len(evaluated) == 2 * rep.total  # each counted point, both inequalities
    assert rep.failures == ()
    assert rep.equality_points == (_inp(0, 0, 0, 0, 0),)


# sha256 of `verify-appendix --json` stdout, recorded with the Fraction
# evaluator that the integer kernel replaced
_GRID_JSON_DIGESTS = {
    8: "17ed19427165e477124082c85c2a406e2d105a80c8531eb58fd3329ab7ad8450",
    12: "77f3c4f14f620570dbfbffba26fe5b071ad7e7faa1efa070b6aca130c1ebff72",
}


@pytest.mark.parametrize("q", sorted(_GRID_JSON_DIGESTS))
def test_grid_json_digest(q, capsys):
    assert cli.main(["verify-appendix", "--max-denominator", str(q), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == _GRID_JSON_DIGESTS[q]


# The Fraction evaluator the integer kernel replaced, kept as its oracle.


def _oracle_largest_sum(a2, a3, a4, a5) -> Fraction:
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


def _oracle_piecewise(inp: AppendixInput) -> Fraction:
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


def _oracle_prop_a1(inp: AppendixInput) -> dict:
    a1, a2, a3, a4, a5 = inp.a
    delta = inp.delta
    lhs1 = Fraction(2) / (3 + 2 * a1 + 2 * delta + _oracle_largest_sum(a2, a3, a4, a5))
    tot5 = a1 + a2 + a3 + a4 + a5
    sq5 = a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a5 * a5
    rhs1 = Fraction(2, 3) * (4 + 2 * delta + tot5) / (4 + 4 * delta + 2 * tot5 - sq5)
    lhs2 = _oracle_piecewise(inp)
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


def _oracle_margins(inp: AppendixInput, q: int) -> list:
    # (4 + 2delta + t)(3 + 2a1 + 2delta + S) - 3(4 + 4delta + 2t - s) times
    # q^2 for each inequality, with S from the oracle's own selections
    a1, a2, a3, a4, a5 = inp.a
    delta = inp.delta
    first = 3 + 2 * a1 + 2 * delta + _oracle_largest_sum(a2, a3, a4, a5)
    second = 2 / _oracle_piecewise(inp)
    margins = []
    for left, read in ((first, inp.a), (second, inp.a[:4])):
        t = sum(read)
        s = sum(x * x for x in read)
        margins.append(q * q * ((4 + 2 * delta + t) * left - 3 * (4 + 4 * delta + 2 * t - s)))
    return margins


def _check_against_oracle(inp: AppendixInput):
    assert prop_a1(inp) == _oracle_prop_a1(inp)
    q = lcm(*(x.denominator for x in (*inp.a, inp.delta)))
    q_seen, a, d = appendix._scaled(inp)
    assert q_seen == q
    margins = [appendix._margin(q, d, *side) for side in appendix._sides(q, a)]
    assert margins == _oracle_margins(inp, q)


def test_kernel_matches_oracle_on_grid():
    # every point of the q <= 6 grids with delta up to 2
    points = {
        (tuple(Fraction(i, q) for i in reversed(idx)), Fraction(d, q))
        for q in range(1, 7)
        for idx in combinations_with_replacement(range(q + 1), 5)
        for d in range(2 * q + 1)
    }
    assert len(points) == 9789
    for a, delta in points:
        _check_against_oracle(AppendixInput(a, delta))


def _random_fraction(rng, low, high, max_den=10**6) -> Fraction:
    # uniform over [low, high] on a grid with an unrelated random denominator
    den = rng.randint(1, max_den)
    return low + (high - low) * Fraction(rng.randint(0, den), den)


def test_kernel_matches_oracle_on_random_points():
    rng = random.Random(20261018)
    for _ in range(3000):
        a = tuple(sorted((_random_fraction(rng, 0, 1) for _ in range(5)), reverse=True))
        _check_against_oracle(AppendixInput(a, _random_fraction(rng, 0, 2)))


def test_kernel_matches_oracle_on_case_boundaries():
    rng = random.Random(61018)
    ties = {"first": 0, "second": 0, "twelve": 0}
    while min(ties.values()) < 300:
        kind = rng.choice(sorted(ties))
        if kind == "first":
            # a2 + a3 = 1 + a4
            a4 = _random_fraction(rng, 0, 1)
            a3 = _random_fraction(rng, a4, (1 + a4) / 2)
            a2 = 1 + a4 - a3
        elif kind == "second":
            # a2 + a4 = 1
            a4 = _random_fraction(rng, 0, Fraction(1, 2))
            a2 = 1 - a4
            a3 = _random_fraction(rng, a4, a2)
        else:
            # scale four coefficients so that one of the twelve sums is 1
            a2, a3, a4, a5 = sorted((_random_fraction(rng, 0, 1) for _ in range(4)), reverse=True)
            total = rng.choice([a2 + a3, a2 + a5, a3 + a4 + a5, a2 + a3 + a4 + a5, a3 + a4])
            if total < a2 or total == 0:
                continue
            a2, a3, a4, a5 = (x / total for x in (a2, a3, a4, a5))
        if kind != "twelve":
            a5 = _random_fraction(rng, 0, a4)
        a = (_random_fraction(rng, a2, 1), a2, a3, a4, a5)
        delta = rng.choice([Fraction(0), _random_fraction(rng, 0, 2, max_den=50)])
        if kind == "twelve":
            assert _oracle_largest_sum(*a[1:]) == 1
        _check_against_oracle(AppendixInput(a, delta))
        ties[kind] += 1


def _decided(inp: AppendixInput, k: int) -> tuple[dict, list]:
    # prop_a1's result and both margins from the integer entry, on the
    # input's weights over k times their least common denominator
    q = k * lcm(*(x.denominator for x in (*inp.a, inp.delta)))
    a = tuple(int(x * q) for x in inp.a)
    m1, m2, n, den = appendix._decide(q, a, int(inp.delta * q))
    result = {
        "ineq1": m1 >= 0,
        "ineq2": m2 >= 0,
        "strict1": m1 > 0,
        "strict2": m2 > 0,
        "piecewise": Fraction(n, den),
    }
    return result, [m1, m2]


def _check_integer_entry(inp: AppendixInput):
    expected = _oracle_prop_a1(inp)
    margins = _oracle_margins(inp, lcm(*(x.denominator for x in (*inp.a, inp.delta))))
    for k in (1, 3):
        # the margins scale by k^2, so their signs and the value do not move
        assert _decided(inp, k) == (expected, [k * k * m for m in margins])
    assert prop_a1(inp) == expected
    assert alpha_piecewise(inp) == expected["piecewise"]


def test_integer_entry_matches_the_oracle_on_the_q8_grid():
    # every coefficient tuple of the q = 8 grid, at six values of delta
    # from 0 to 2
    points = 0
    for idx in combinations_with_replacement(range(9), 5):
        a = tuple(Fraction(i, 8) for i in reversed(idx))
        for d in (0, 1, 4, 8, 12, 16):
            _check_integer_entry(AppendixInput(a, Fraction(d, 8)))
            points += 1
    assert points == 1287 * 6


def test_integer_entry_matches_the_oracle_on_random_points():
    rng = random.Random(20261020)
    large = 0
    for _ in range(1500):
        a = tuple(sorted((_random_fraction(rng, 0, 1) for _ in range(5)), reverse=True))
        delta = _random_fraction(rng, 0, 3)
        large += delta > 1
        _check_integer_entry(AppendixInput(a, delta))
    assert large >= 500


def test_integer_entry_rejects_what_the_input_rejects():
    rng = random.Random(23)
    for _ in range(3000):
        q = rng.randint(1, 12)
        a = [rng.randint(-2, q + 2) for _ in range(rng.choice((4, 5, 5, 5, 6)))]
        if rng.random() < 0.7:
            a.sort(reverse=True)
        d = rng.randint(-2, 2 * q)
        try:
            message = None
            appendix._decide(q, tuple(a), d)
        except DomainError as err:
            message = str(err)
        if len(a) != 5:
            assert message == "exactly five coefficients required"
        else:
            assert message == _fraction_message([Fraction(x, q) for x in a], Fraction(d, q))


_coeff = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=12
)


@settings(derandomize=True, max_examples=120)
@given(st.lists(_coeff, min_size=5, max_size=5), _coeff)
def test_prop_a1_holds_everywhere(raw, delta):
    a = tuple(sorted(raw, reverse=True))
    res = prop_a1(AppendixInput(a, 2 * delta))
    assert res["ineq1"] and res["ineq2"]
    expect_strict = not (a[0] == 0 and delta == 0)
    assert res["strict1"] is expect_strict
    assert res["strict2"] is expect_strict

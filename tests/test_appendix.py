from fractions import Fraction

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


def test_grid_pooled_matches_serial(monkeypatch):
    monkeypatch.setenv("KSTAB_THREADS", "2")
    rep = grid_oracle(7)
    assert rep.total == 6336
    assert rep.failures == ()
    assert rep.equality_points == (_inp(0, 0, 0, 0, 0),)


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps serially."""

    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return list(map(fn, items))


def test_thread_count_is_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(appendix, "Pool", _RecordingPool)
    monkeypatch.setattr(appendix, "_POOL_THRESHOLD", 0)
    monkeypatch.setattr(appendix.os, "cpu_count", lambda: 4)
    serial = grid_oracle(2)
    _RecordingPool.sizes.clear()
    for raw in ("9", "4", "3", "1", "0", "-5"):
        monkeypatch.setenv("KSTAB_THREADS", raw)
        assert grid_oracle(2) == serial
    # a size of one or less runs serially and starts no pool
    assert _RecordingPool.sizes == [4, 4, 3]


def test_non_integer_thread_count_is_a_domain_error(monkeypatch, capsys):
    monkeypatch.setattr(appendix, "Pool", _RecordingPool)
    for raw in ("abc", "2.5", ""):
        monkeypatch.setenv("KSTAB_THREADS", raw)
        with pytest.raises(DomainError, match="KSTAB_THREADS"):
            grid_oracle(1)
    monkeypatch.setenv("KSTAB_THREADS", "abc")
    assert cli.main(["verify-appendix", "--max-denominator", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: KSTAB_THREADS must be an integer")
    assert "Traceback" not in captured.err


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

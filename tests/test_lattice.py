import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kstab.errors import DomainError
from kstab.lattice import (
    MAX_DIGITS,
    DivClass,
    SurfaceModel,
    _rational_row,
    _row_less,
    anticanonical,
    basis_exceptional,
    basis_line,
    canonical,
    div,
    intersect,
    rational,
    rational_str,
    square,
    zero_class,
)


def test_rational_parsing():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-2") == Fraction(-2)
    assert rational(5) == Fraction(5)
    assert rational(Fraction(1, 3)) == Fraction(1, 3)
    assert rational_str(Fraction(3, 4)) == "3/4"
    assert rational_str(Fraction(-8, 4)) == "-2"
    assert rational_str(Fraction(7)) == "7"


def test_rational_parsing_rejects_garbage():
    with pytest.raises(DomainError):
        rational("a/b")
    with pytest.raises(DomainError):
        rational("1/0")
    with pytest.raises(DomainError):
        rational(1.5)


def test_rational_digit_bound():
    # MAX_DIGITS digits above and below the line parse; one more does not
    big = 10**MAX_DIGITS - 1
    assert rational(f"-{big}/{big - 1}") == Fraction(-big, big - 1)
    assert rational(big) == big
    assert rational(f"{big}e-{MAX_DIGITS - 1}") == Fraction(big, 10 ** (MAX_DIGITS - 1))
    assert rational("1" + "0" * 450 + "e-450") == 1  # reduces below the bound
    for value in (
        f"{big + 1}",
        f"1/{big + 1}",
        f"1e{MAX_DIGITS}",
        f"1e-{MAX_DIGITS}",
        f"1.{'0' * MAX_DIGITS}1",
        big + 1,
        -big - 1,
    ):
        with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} digits"):
            rational(value)
    # a Fraction the library computed is taken as it is
    assert rational(Fraction(big + 1, 3)) == Fraction(big + 1, 3)


def _outcome(parse, value):
    """(numerator, denominator) of a parse, or the message it raised."""
    try:
        return parse(value)
    except DomainError as exc:
        return str(exc)


def _int_parse(value):
    den, (num,) = _rational_row([value])
    return num, den


def _fraction_parse(value):
    q = rational(value)
    return q.numerator, q.denominator


_PLAIN = ["3", "-4/6", " +7/21 ", "0/5", " " * 597 + "7/3"]
_PARSE_CORPUS = _PLAIN + [
    "1/0",
    "1/00",
    "0.5",
    "1e3",
    "1e999999999",
    "1_000",
    "\u0663",  # ARABIC-INDIC DIGIT THREE
    "\u0661/\u0664",
    " " * 598 + "7/3",  # 601 characters
    "1" * 600,
    "1" * 601,
    10**200 - 1,
    10**200,
    str(10**200 - 1),
    str(10**200),
    str(10**201) + "/10",
    "4/-6",
    "--4",
    "+",
    "/5",
    "",
    True,
    1.5,
    None,
]


def test_int_parse_matches_rational():
    # the int parse gives rational()'s value in lowest terms, or raises its
    # message
    for value in _PARSE_CORPUS:
        assert _outcome(_int_parse, value) == _outcome(_fraction_parse, value), value
    assert _outcome(_int_parse, "\u0663") == (3, 1)
    assert "more than" in _outcome(_int_parse, "1" * 601)
    assert _outcome(_int_parse, "1/0") == "not a rational: '1/0'"


def test_int_parse_reads_plain_strings_without_rational(monkeypatch):
    # a sign, ASCII digits and one "/" are read as ints, with no Fraction
    from kstab import lattice

    expected = [_fraction_parse(value) for value in _PLAIN]

    def refuse(value):
        raise AssertionError(f"rational({value!r})")

    monkeypatch.setattr(lattice, "rational", refuse)
    assert [_int_parse(value) for value in _PLAIN] == expected


def test_int_parse_builds_one_row_over_the_lcm():
    assert _rational_row(["1/2", "-2/6", "5", 4]) == (6, (3, -2, 30, 24))
    assert _rational_row([]) == (1, ())
    # values are read in order: the first bad one names the error
    with pytest.raises(DomainError, match="not a rational: 'x'"):
        _rational_row(["1/2", "x", 1.5])


def test_int_parse_matches_rational_on_the_check_stream():
    # every coordinate the benchmark's check-stream generator emits
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    rng = random.Random(workloads.DEFAULT_SEED)
    values = []
    for index in range(50):
        for text in workloads.check_round(rng, index):
            doc = json.loads(text)
            if "L" in doc:
                values += [doc["L"]["h"], *doc["L"]["e"]]
            else:
                values += [doc[key] for key in ("x", "delta") if key in doc]
                values += doc.get("a", [])
    assert len(values) > 1000 and any("/" in v for v in values)
    for value in values:
        assert _int_parse(value) == _fraction_parse(value), value


def test_surface_model_range():
    assert SurfaceModel(1).r == 8
    assert SurfaceModel(8).r == 1
    with pytest.raises(DomainError):
        SurfaceModel(0)
    with pytest.raises(DomainError):
        SurfaceModel(9)
    # bool is an int subclass, but True is no degree
    for flag in (True, False):
        with pytest.raises(DomainError, match=f"got {flag}"):
            SurfaceModel(flag)


def test_basis_products():
    s = SurfaceModel(3)
    h = basis_line(s)
    assert intersect(h, h, s) == 1
    for i in range(1, s.r + 1):
        ei = basis_exceptional(s, i)
        assert intersect(ei, ei, s) == -1
        assert intersect(h, ei, s) == 0
        for j in range(i + 1, s.r + 1):
            assert intersect(ei, basis_exceptional(s, j), s) == 0


def test_canonical_square_equals_degree():
    for d in range(1, 9):
        s = SurfaceModel(d)
        assert square(canonical(s), s) == d
        assert square(anticanonical(s), s) == d


def test_anticanonical_meets_every_exceptional_once():
    s = SurfaceModel(5)
    mk = anticanonical(s)
    for i in range(1, s.r + 1):
        assert intersect(mk, basis_exceptional(s, i), s) == 1


def test_tangent_line_polarization_square():
    # L = -K + x*E1 on the cubic model, x = 1/2: L^2 = 3 + 2x - x^2
    s = SurfaceModel(3)
    x = Fraction(1, 2)
    L = anticanonical(s) + x * basis_exceptional(s, 1)
    assert square(L, s) == Fraction(15, 4)
    assert square(L, s) == 3 + 2 * x - x * x


def test_dimension_mismatch_rejected():
    s = SurfaceModel(3)
    a = div(1, [0] * 6)
    b = div(1, [0] * 5)
    with pytest.raises(DomainError):
        intersect(a, b, s)
    with pytest.raises(DomainError):
        a + b


def test_componentwise_arithmetic():
    a = div("1/2", ["1", "-2/3"])
    b = div(1, [1, 1])
    assert a + b == div("3/2", ["2", "1/3"])
    assert a - b == div("-1/2", ["0", "-5/3"])
    assert 3 * a == div("3/2", ["3", "-2"])
    assert -a == div("-1/2", ["-1", "2/3"])
    assert str(a) == "(1/2; 1, -2/3)"
    # one class, one representation: the fields are in lowest terms
    half = div("2/4", ["4/2", "0"])
    assert half == DivClass(Fraction(1, 2), (Fraction(2), Fraction(0)))
    assert hash(half) == hash(DivClass(Fraction(1, 2), (Fraction(2), Fraction(0))))
    assert (half.den, half.row) == (2, (1, 4, 0))


def _builds_fraction(call):
    """True when call() constructs a Fraction anywhere."""
    new = Fraction.__new__.__code__
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            built.append(frame)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return bool(built)


def test_int_coordinates_stay_ints():
    # div and scalar * keep an int as an int, with rational()'s checks
    for h, e in [(3, [1, -2]), (0, [0, 0, 0]), (-7, [10**199, -(10**199)])]:
        ints = div(h, e)
        fractions = div(Fraction(h), [Fraction(x) for x in e])
        assert (ints.den, ints.row) == (fractions.den, fractions.row) == (1, (h, *e))
        assert (ints * 5).row == (fractions * Fraction(5)).row
        assert not _builds_fraction(lambda: div(h, e))
        assert not _builds_fraction(lambda: 5 * ints)
    mixed = div(1, ["1/2", Fraction(2, 3)]) * -6
    assert (mixed.den, mixed.row) == (1, (-6, -3, -4))
    # an int subclass is stored as a plain int, as a Fraction's numerator is
    small = type("Small", (int,), {})
    sub = div(small(3), [small(1)])
    assert sub == div(3, [1]) and [type(x) for x in sub.row] == [int, int]
    # e is read once, so an iterator gives the same class as a list
    for e in ([Fraction(1, 2), 3], ["1/2", 3], [small(1), 3], [1, 3]):
        from_iter = div(Fraction(1, 2), (x for x in e))
        assert from_iter.rank == 2 and from_iter == div(Fraction(1, 2), list(e))
        assert div(1, iter(e)) == div(1, e)
    assert type(rational(5)) is Fraction
    too_long = 10**MAX_DIGITS  # 201 digits
    for bad in (True, False, too_long, -too_long):
        with pytest.raises(DomainError):
            div(bad, [0])
        with pytest.raises(DomainError):
            div(0, [bad])
        with pytest.raises(DomainError):
            basis_line(SurfaceModel(8)) * bad
    with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} digits"):
        div(too_long, [0])
    # one long coordinate among ints is rejected wherever it stands
    for bad in (too_long, -too_long):
        for i in range(4):
            coords = [3, 0, -1, 2]
            coords[i] = bad
            with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} digits"):
                div(coords[0], coords[1:])


def _generator_row_less(base, *rows):
    # the form _row_less had before it mapped sub over column sums
    return tuple(x - sum(xs) for x, *xs in zip(base, *rows))


def test_row_less_matches_the_generator_form():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 9)
        base = tuple(rng.randint(-9, 9) for _ in range(n))
        for k in (0, 1, 3):
            rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(k)]
            got = _row_less(base, *rows)
            assert got == _generator_row_less(base, *rows)
            assert type(got) is tuple and all(type(x) is int for x in got)
    assert _row_less([1, -2]) == (1, -2)
    assert _row_less(()) == ()


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)


@settings(max_examples=60, derandomize=True)
@given(
    st.lists(small_rationals, min_size=6, max_size=6),
    st.lists(small_rationals, min_size=6, max_size=6),
    st.lists(small_rationals, min_size=6, max_size=6),
)
def test_bilinearity_and_symmetry(xs, ys, zs):
    s = SurfaceModel(3)
    a = DivClass(xs[0], tuple(xs[1:]) + (Fraction(0),))
    b = DivClass(ys[0], tuple(ys[1:]) + (Fraction(0),))
    c = DivClass(zs[0], tuple(zs[1:]) + (Fraction(0),))
    assert intersect(a + b, c, s) == intersect(a, c, s) + intersect(b, c, s)
    assert intersect(a, b, s) == intersect(b, a, s)
    assert intersect(2 * a, b, s) == 2 * intersect(a, b, s)
    # the representation: row / den in lowest terms, read back exactly
    for x in (a, b, c, a + b, a - b, -a, Fraction(3, 4) * a, 0 * a):
        assert x.den > 0 and gcd(x.den, *x.row) == 1
    assert a.h == xs[0] and a.e == tuple(xs[1:]) + (0,)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a - a == zero_class(s) == 0 * b and zero_class(s).den == 1
    assert intersect(a, b, s) == a.h * b.h - sum(x * y for x, y in zip(a.e, b.e))


def test_largest_admissible_sum_refuses_a_family_past_its_values():
    from kstab.alphabound import TWELVE_SUM_FAMILY, largest_admissible_sum

    for values in ([], [Fraction(1, 2)] * 3):
        with pytest.raises(DomainError, match="indexes past"):
            largest_admissible_sum(values, TWELVE_SUM_FAMILY)

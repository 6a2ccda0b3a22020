import hashlib
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.alphabound import (
    TWELVE_SUM_FAMILY,
    Certificate,
    _as_fiber,
    _as_line,
    _largest_subset_sum,
    _other_ruling,
    _parts,
    _plane_curves,
    _plane_pullback,
    _ruling_curves,
    _section,
    certificate,
    compare_with_slope,
    largest_admissible_sum,
    verify_certificate,
)
from kstab.appendix import AppendixInput, alpha_piecewise
from kstab.cones import (
    KIND_CONIC_F1,
    KIND_CONIC_P1P1,
    KIND_TO_P2,
    ContractionData,
    _ample_signs,
    face_decompose,
    reconstruct,
)
from kstab.curves import _disjoint_index_sets, _tables, fiber_classes, minus_one_curves
from kstab.errors import DomainError, InvariantError
from kstab.lattice import (
    SurfaceModel,
    _anticanonical_row,
    _from_row,
    _row_dot,
    _row_sum,
    anticanonical,
    basis_exceptional,
    div,
    intersect,
    rational_str,
    square,
    zero_class,
)
from kstab.stability import _upper_bound

sys.path.insert(0, str(Path(__file__).parent))
import fraction_parts  # noqa: E402
from fraction_parts import FIVE_SUM_FAMILY  # noqa: E402
from test_acceptance import _grid_contractions  # noqa: E402


@lru_cache(maxsize=None)
def _grid():
    """Every acceptance-5 grid item (s, cd), in order, built once: the
    records are frozen, so the tests below share them read-only.
    Acceptance 5 builds its own, inside its timed loop."""
    return tuple(item for degree in (4, 5, 6, 7) for item in _grid_contractions(degree))

F = Fraction


def _fr(values):
    return tuple(F(x) for x in values)


def _plane_cd(degree, a):
    s = SurfaceModel(degree)
    es = tuple(basis_exceptional(s, i) for i in range(1, s.r + 1))
    return s, ContractionData(
        kind=KIND_TO_P2, delta=F(0), a=_fr(a), curveE=es, curveC=None
    )


def _f1_cd(degree, a, delta):
    # blow down E_1 .. E_{r-1}; the last basis curve is the section
    s = SurfaceModel(degree)
    es = tuple(basis_exceptional(s, i) for i in range(1, s.r))
    c = div(1, [0] * (s.r - 1) + [-1])
    return s, ContractionData(
        kind=KIND_CONIC_F1, delta=F(delta), a=_fr(a), curveE=es, curveC=c
    )


def _p1p1_cd(degree, a, delta):
    if degree == 7:
        es = (div(1, [-1, -1]),)
        c = div(1, [-1, 0])
    elif degree == 6:
        es = (div(0, [1, 0, 0]), div(1, [0, -1, -1]))
        c = div(1, [0, -1, 0])
    elif degree == 5:
        es = (div(0, [1, 0, 0, 0]), div(0, [0, 1, 0, 0]), div(1, [0, 0, -1, -1]))
        c = div(1, [0, 0, -1, 0])
    else:
        es = (
            div(1, [-1, -1, 0, 0, 0]),
            div(1, [-1, 0, -1, 0, 0]),
            div(1, [0, -1, -1, 0, 0]),
            div(2, [-1, -1, -1, -1, -1]),
        )
        c = div(2, [-1, -1, -1, -1, 0])
    s = SurfaceModel(degree)
    return s, ContractionData(
        kind=KIND_CONIC_P1P1, delta=F(delta), a=_fr(a), curveE=es, curveC=c
    )


def test_largest_admissible_sum():
    vals = _fr(["1/3", "1/4", 0, 0])
    assert largest_admissible_sum(vals, TWELVE_SUM_FAMILY) == F(7, 12)
    assert largest_admissible_sum(_fr([1, 1, 1, 1]), TWELVE_SUM_FAMILY) == 1
    assert largest_admissible_sum(_fr(["9/10", "9/10", "3/5"]), FIVE_SUM_FAMILY) == F(9, 10)
    assert largest_admissible_sum(_fr([0, 0, 0, 0]), TWELVE_SUM_FAMILY) == 0
    with pytest.raises(DomainError):
        largest_admissible_sum(_fr(["-1/2", 0, 0]), FIVE_SUM_FAMILY)


def test_twelve_sums_with_a_zero_fourth_entry_pick_as_the_five_sums():
    # an F1 face hands the plane builder its section as a fourth entry of
    # weight 0: every twelve-family subset naming it sums to what an
    # earlier subset without it sums to (or to at most a2), so the first
    # largest admissible subset is the one the five-sum family picks
    ties = at_one = 0
    for one in (1, 2, 3, 4, 6, 7, 10, 12):
        for a4, a3, a2 in combinations_with_replacement(range(one), 3):
            got = _largest_subset_sum((a2, a3, a4, 0), TWELVE_SUM_FAMILY, one)
            assert got == _largest_subset_sum((a2, a3, a4), FIVE_SUM_FAMILY, one)
            ties += a2 == a3 or a3 == a4
            at_one += got[0] == one
    assert ties and at_one  # equal weights and sums of exactly 1 are covered


def _largest_subset_sum_oracle(values, family, one):
    """The generator form _largest_subset_sum replaced, kept as its reference."""
    best, best_subset = 0, ()
    for subset in family:
        total = sum(values[i] for i in subset)
        if total <= one and total > best:
            best, best_subset = total, subset
    return best, best_subset


def test_subset_sums_match_the_generator_form():
    # random and tied values on both families: the same best sum and the
    # earliest subset reaching it
    rng = random.Random(18)
    ties = 0
    for family, n in ((TWELVE_SUM_FAMILY, 4), (FIVE_SUM_FAMILY, 3)):
        for _ in range(3000):
            one = rng.randint(1, 60)
            values = tuple(rng.randint(0, rng.choice((3, one))) for _ in range(n))
            got = _largest_subset_sum(values, family, one)
            assert got == _largest_subset_sum_oracle(values, family, one)
            ties += len(set(values)) < n
    assert ties > 100
    with pytest.raises(DomainError, match="nonnegative"):
        _largest_subset_sum((3, -1, 0, 0), TWELVE_SUM_FAMILY, 4)


def test_certificate_record_validation():
    s = SurfaceModel(7)
    e1 = basis_exceptional(s, 1)
    with pytest.raises(DomainError):
        Certificate(((e1, F(-1)),), 0, F(-1))
    with pytest.raises(DomainError):
        Certificate(((e1, F(2)), (basis_exceptional(s, 2), F(1))), 1, F(1, 2))
    with pytest.raises(DomainError):
        Certificate(((e1, F(2)),), 0, F(1, 3))
    with pytest.raises(DomainError):
        Certificate((), 0, F(1))
    # an all-zero divisor has no reciprocal to bound by
    for zero in (0, F(0)):
        with pytest.raises(DomainError) as err:
            Certificate(((e1, zero),), 0, 1)
        assert str(err.value) == "bound must be the reciprocal of the top coefficient"
    good = Certificate(((e1, F(2)),), 0, F(1, 2))
    with pytest.raises(InvariantError):
        verify_certificate(good, anticanonical(s), s)


def test_identity_check_reads_every_coordinate():
    s, cd = _plane_cd(7, ["1/2", "1/3"])
    cert = certificate(s, cd)
    l = anticanonical(s) + F(1, 2) * basis_exceptional(s, 1) + F(1, 3) * basis_exceptional(s, 2)
    verify_certificate(cert, l, s)
    for i in range(s.r + 1):
        step = [int(j == i) for j in range(s.r + 1)]
        with pytest.raises(InvariantError):
            verify_certificate(cert, l + div(step[0], step[1:]), s)
    with pytest.raises(InvariantError):
        verify_certificate(cert, F(1, 2) * l, s)
    # a component over a denominator, 2 * (-K / 2) = -K, is no (-1)-curve
    half = F(1, 2) * anticanonical(s)
    with pytest.raises(DomainError, match="is not a \\(-1\\)-curve"):
        verify_certificate(Certificate(((half, F(2)),), 0, F(1, 2)), anticanonical(s), s)


def test_verify_certificate_refuses_a_forged_certificate():
    # -K = 3(H - E1 - E2 - E3) + 2E1 + 2E2 + 2E3 in degree 6 passes the
    # constructor and the class identity with bound 1/3, but H - E1 - E2 - E3
    # is no curve (no line passes through three general points); the
    # certificate kstab builds for -K has bound 1/2
    s = SurfaceModel(6)
    plane = div(1, [-1, -1, -1])
    divisor = ((plane, F(3)),) + tuple((basis_exceptional(s, i), F(2)) for i in (1, 2, 3))
    forged = Certificate(divisor, 0, F(1, 3))
    with pytest.raises(DomainError, match="is not a \\(-1\\)-curve of degree 6"):
        verify_certificate(forged, anticanonical(s), s)
    own = certificate(s, face_decompose(anticanonical(s), s))
    assert own.bound == F(1, 2)
    verify_certificate(own, anticanonical(s), s)
    # the constructor's checks run again on a record built past them; the
    # bound is read off the witness's coefficient, so a record cannot hold
    # any other, and a witness off the top is refused instead
    terms, den, w = own._terms, own._den, own.witness_index
    other = (w + 1) % len(terms)
    raised = tuple((c, 2 * terms[w][1] if i == other else n) for i, (c, n) in enumerate(terms))
    negative = ((terms[0][0], -terms[0][1]),) + terms[1:]
    for bent_terms, witness, message in (
        (terms, 1, "maximal"),
        (raised, w, "maximal"),
        (terms, len(terms), "out of range"),
        (negative, w, "nonnegative"),
    ):
        bent = object.__new__(Certificate)
        vars(bent).update(_terms=bent_terms, _den=den, witness_index=witness)
        with pytest.raises(DomainError, match=message):
            verify_certificate(bent, anticanonical(s), s)


def test_plane_degree7():
    s, cd = _plane_cd(7, ["1/2", "1/3"])
    cert = certificate(s, cd)
    assert cert.divisor == (
        (div(1, [-1, -1]), F(3)),
        (div(0, [1, 0]), F(5, 2)),
        (div(0, [0, 1]), F(7, 3)),
    )
    assert cert.witness_index == 0
    assert cert.bound == F(1, 3)


def test_plane_degree6_and_5_bounds():
    for degree, a in [(6, ["1/2", "1/3", 0]), (5, ["3/4", "1/2", "1/4", 0])]:
        s, cd = _plane_cd(degree, a)
        cert = certificate(s, cd)
        assert cert.bound == 1 / (2 + F(a[0]))
        assert cert.divisor[cert.witness_index][0] == basis_exceptional(s, 1)


def test_plane_degree4_subset_improvement():
    s, cd = _plane_cd(4, ["1/2", "1/3", "1/4", 0, 0])
    cert = certificate(s, cd)
    # best twelve-sum of (1/3, 1/4, 0, 0) inside [0, 1] is 7/12
    assert cert.bound == F(24, 55)
    coeffs = dict(cert.divisor)
    assert coeffs[div(0, [1, 0, 0, 0, 0])] == F(55, 24)
    assert coeffs[div(2, [-1, -1, -1, -1, -1])] == F(5, 24)
    assert coeffs[div(1, [-1, -1, 0, 0, 0])] == F(11, 24)
    assert coeffs[div(1, [-1, 0, -1, 0, 0])] == F(13, 24)
    assert coeffs[div(1, [-1, 0, 0, -1, 0])] == F(19, 24)
    assert coeffs[div(1, [-1, 0, 0, 0, -1])] == F(19, 24)
    # the chosen coefficients ride along with their lines, so the bare
    # curves E2, E3 do not appear
    assert len(coeffs) == 6


def test_plane_degree4_zero_point():
    s, cd = _plane_cd(4, [0, 0, 0, 0, 0])
    cert = certificate(s, cd)
    assert cert.bound == F(2, 3)
    coeffs = dict(cert.divisor)
    assert coeffs[div(0, [1, 0, 0, 0, 0])] == F(3, 2)
    assert len(coeffs) == 6
    assert sum(coeffs.values()) == F(4)


def test_fiber_section_degree7():
    s, cd = _f1_cd(7, ["1/3"], "1/2")
    cert = certificate(s, cd)
    assert cert.divisor == (
        (div(1, [-1, -1]), F(7, 2)),
        (div(0, [1, 0]), F(17, 6)),
        (div(0, [0, 1]), F(2)),
    )
    assert cert.bound == F(2, 7)


def test_fiber_section_bounds_match_shift():
    for degree, a in [(6, ["1/2", 0]), (5, ["1/2", "1/3", 0])]:
        for delta in (F(0), F(1, 2)):
            s, cd = _f1_cd(degree, a, delta)
            cert = certificate(s, cd)
            assert cert.bound == 1 / (2 + delta + F(a[0]))


def test_fiber_section_degree4_five_sum():
    a = _fr(["1/2", "1/3", "1/4", 0])
    delta = F(1, 2)
    s, cd = _f1_cd(4, a, delta)
    cert = certificate(s, cd)
    n = largest_admissible_sum(a[1:], FIVE_SUM_FAMILY)
    assert n == F(7, 12)
    assert cert.bound == 2 / (3 + 2 * a[0] + 2 * delta + n)


def test_ruled_degree7():
    s, cd = _p1p1_cd(7, [0], 0)
    cert = certificate(s, cd)
    assert dict(cert.divisor) == {
        div(1, [-1, -1]): F(3),
        div(0, [0, 1]): F(2),
        div(0, [1, 0]): F(2),
    }
    assert cert.bound == F(1, 3)
    s, cd = _p1p1_cd(7, ["1/2"], "1/4")
    cert = certificate(s, cd)
    assert cert.bound == 1 / (3 + F(1, 2) + F(1, 4))


def test_ruled_degree6_half_integer_pattern():
    s, cd = _p1p1_cd(6, ["1/2", "1/4"], "1/3")
    cert = certificate(s, cd)
    assert cert.bound == 1 / (2 + F(1, 3) + F(1, 2))
    coeffs = dict(cert.divisor)
    assert coeffs[div(1, [-1, 0, -1])] == F(3, 2)  # second-ruling fiber at point 1
    assert coeffs[div(0, [0, 0, 1])] == F(1, 2)
    assert coeffs[div(0, [0, 1, 0])] == F(1, 2)


def test_ruled_degree5_needs_three_point_diagonal():
    s, cd = _p1p1_cd(5, ["1/2", "1/4", 0], "1/2")
    cert = certificate(s, cd)
    assert cert.bound == 1 / (2 + F(1, 2) + F(1, 2))
    coeffs = dict(cert.divisor)
    # the diagonal through all three blown-down points
    assert coeffs[div(1, [-1, -1, 0, 0])] == F(1)


def test_ruled_degree4_case_split():
    cases = [
        (["1/2", "1/2", "1/2", "1/2"], F(3, 2)),  # joint sum may pass 1 here
        (["3/4", "3/4", "3/4", "1/4"], F(1)),
        (["5/6", "5/6", "2/3", "1/3"], F(1)),
        (["9/10", "9/10", "9/10", "3/5"], F(9, 10)),
    ]
    for raw, s_value in cases:
        a = _fr(raw)
        for delta in (F(0), F(1, 3)):
            s, cd = _p1p1_cd(4, a, delta)
            cert = certificate(s, cd)
            assert cert.bound == 2 / (3 + 2 * a[0] + 2 * delta + s_value)
            padded = AppendixInput(a + (F(0),), delta)
            assert cert.bound == alpha_piecewise(padded)


def test_degree_guard():
    s, cd = _plane_cd(3, [0, 0, 0, 0, 0, 0])
    with pytest.raises(DomainError):
        certificate(s, cd)
    s = SurfaceModel(8)
    cd = ContractionData(
        kind=KIND_TO_P2,
        delta=F(0),
        a=(F(0),),
        curveE=(basis_exceptional(s, 1),),
        curveC=None,
    )
    with pytest.raises(DomainError):
        certificate(s, cd)


def test_slope_equality_exactly_at_anticanonical_degree4():
    s, cd = _plane_cd(4, [0, 0, 0, 0, 0])
    cert = certificate(s, cd)
    res = compare_with_slope(s, cd, cert)
    assert res == {"strict": False, "equality": True}
    s, cd = _plane_cd(4, ["1/2", 0, 0, 0, 0])
    cert = certificate(s, cd)
    assert cert.bound == F(1, 2)
    res = compare_with_slope(s, cd, cert)
    assert res == {"strict": True, "equality": False}


def test_slope_strict_above_degree4():
    for degree in (5, 6, 7):
        s, cd = _plane_cd(degree, [0] * (9 - degree))
        res = compare_with_slope(s, cd, certificate(s, cd))
        assert res == {"strict": True, "equality": False}


def test_face_then_certificate_roundtrip_degree7():
    s = SurfaceModel(7)
    l = (
        anticanonical(s)
        + F(1, 2) * div(1, [0, -1])
        + F(1, 3) * basis_exceptional(s, 1)
    )
    cd = face_decompose(l, s)
    assert cd.kind == KIND_CONIC_F1
    cert = certificate(s, cd)
    assert cert.bound == F(2, 7)
    verify_certificate(cert, l, s)
    assert compare_with_slope(s, cd, cert)["strict"]


_AVALS = (F(3, 4), F(1, 2), F(0))
_DVALS = (F(0), F(1))


def _plane_grid():
    for degree in (4, 5, 6, 7):
        for a in combinations_with_replacement(_AVALS, 9 - degree):
            yield _plane_cd(degree, a)


def _conic_grid(builder):
    for degree in (4, 5, 6, 7):
        for a in combinations_with_replacement(_AVALS, 8 - degree):
            for delta in _DVALS:
                yield builder(degree, a, delta)


def test_certificate_grid_consistency():
    # every generated certificate re-verifies its identity on construction;
    # here we also pin the witness and the slope comparison across kinds
    seen = 0
    for s, cd in _plane_grid():
        cert = certificate(s, cd)
        top = max(c for _, c in cert.divisor)
        assert cert.divisor[cert.witness_index][1] == top
        res = compare_with_slope(s, cd, cert)
        at_zero = s.degree == 4 and all(x == 0 for x in cd.a)
        assert res["equality"] is at_zero
        assert res["strict"] is not at_zero
        seen += 1
    for builder in (_f1_cd, _p1p1_cd):
        for s, cd in _conic_grid(builder):
            cert = certificate(s, cd)
            res = compare_with_slope(s, cd, cert)
            at_zero = (
                s.degree == 4 and cd.delta == 0 and all(x == 0 for x in cd.a)
            )
            assert res["equality"] is at_zero
            assert res["strict"] is not at_zero
            seen += 1
    assert seen == 52 + 2 * 68


def test_plane_bound_decreases_in_leading_weight():
    prev = None
    for a1 in (F(0), F(1, 4), F(1, 2), F(3, 4)):
        s, cd = _plane_cd(6, [a1, 0, 0])
        bound = certificate(s, cd).bound
        if prev is not None:
            assert bound < prev
        prev = bound


_coeff = st.fractions(min_value=F(0), max_value=F(7, 8), max_denominator=8)


@settings(derandomize=True, max_examples=60)
@given(st.lists(_coeff, min_size=5, max_size=5))
def test_plane_degree4_bound_formula(raw):
    a = tuple(sorted(raw, reverse=True))
    s, cd = _plane_cd(4, a)
    cert = certificate(s, cd)
    n = largest_admissible_sum(a[1:], TWELVE_SUM_FAMILY)
    assert cert.bound == 2 / (3 + 2 * a[0] + n)
    res = compare_with_slope(s, cd, cert)
    assert res["equality"] is (a[0] == 0)


@settings(derandomize=True, max_examples=60)
@given(st.lists(_coeff, min_size=2, max_size=2), _coeff)
def test_fiber_section_degree6_bound_formula(raw, delta):
    a = tuple(sorted(raw, reverse=True))
    s, cd = _f1_cd(6, a, delta)
    cert = certificate(s, cd)
    assert cert.bound == 1 / (2 + delta + a[0])
    assert compare_with_slope(s, cd, cert)["strict"]


def _render(s, cd, cert, flags):
    parts = " ".join(f"{rational_str(c)}*{cls}" for cls, c in cert.divisor)
    return (
        f"{s.degree} {cd.kind} {rational_str(cd.delta)} "
        f"{[rational_str(x) for x in cd.a]} {parts} w={cert.witness_index} "
        f"b={rational_str(cert.bound)} {flags['strict']} {flags['equality']}"
    )


# sha256 of _render over every 7th acceptance-5 grid item, one line each,
# as produced when certificates were built with Fraction class arithmetic
_GRID_DIGEST = "7cfaa750e1ec097260257de5e5e8625fc00bfb987b9af73c4c320c97c8662ffc"


def test_certificate_grid_digest():
    digest = hashlib.sha256()
    index = seen = 0
    for s, cd in _grid():
        if index % 7 == 0:
            cert = certificate(s, cd)
            flags = compare_with_slope(s, cd, cert)
            digest.update(_render(s, cd, cert, flags).encode() + b"\n")
            # the identity again, in Fraction class arithmetic
            l = anticanonical(s)
            if cd.curveC is not None:
                l = l + cd.delta * cd.curveC
            for x, c in zip(cd.a, cd.curveE):
                l = l + x * c
            total = zero_class(s)
            for cls, coeff in cert.divisor:
                assert coeff > 0
                total = total + coeff * cls
            assert total == l
            verify_certificate(cert, l, s)
            seen += 1
        index += 1
    assert (index, seen) == (53469, 7639)
    assert digest.hexdigest() == _GRID_DIGEST


def test_degree4_comparison_evaluates_piecewise_once(monkeypatch):
    # a degree-4 comparison decides the cross-check once, through the
    # integer entry of appendix, on the data's own integer weights, and
    # builds no Fraction: not for the weights, nor for the piecewise value
    from kstab import appendix

    calls = []
    original = appendix._decide

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(appendix, "_decide", counted)
    items = [(s, cd) for s, cd in _grid() if s.degree == 4]
    kinds = set()
    for s, cd in items[::49]:
        cert = certificate(s, cd)
        calls.clear()
        flags, names = _fraction_builders(lambda: compare_with_slope(s, cd, cert), module="")
        q, delta, a = cd._weights
        assert calls == [(q, a + (0,) * (5 - len(a)), delta)]
        assert names == []
        assert flags["strict"] or flags["equality"]
        kinds.add(cd.kind)
    assert len(items) == 39858 and len(kinds) == 3


def _with_bound(cert, bound):
    # a certificate record of one component whose bound is the given one;
    # the comparison reads only the bound
    return Certificate(((cert.divisor[0][0], 1 / bound),), 0, bound)


def test_comparison_raises_when_the_cross_check_disagrees():
    # a P1 x P1 bound below the piecewise value is still strict, so only
    # the piecewise check refutes it
    s, cd = _p1p1_cd(4, ["1/2", "1/3", 0, 0], "1/4")
    cert = certificate(s, cd)
    assert compare_with_slope(s, cd, cert) == {"strict": True, "equality": False}
    with pytest.raises(InvariantError, match="piecewise value disagrees"):
        compare_with_slope(s, cd, _with_bound(cert, cert.bound * F(9, 10)))
    # a bound at or past the threshold is refuted by the strict margin,
    # and so is a strict bound at the zero point, where the margin is 0
    for s, cd in (_f1_cd(4, ["1/2", "1/3", 0, 0], "1/4"), _plane_cd(4, ["1/2", 0, 0, 0, 0])):
        cert = certificate(s, cd)
        with pytest.raises(InvariantError, match="independent inequality check disagrees"):
            compare_with_slope(s, cd, _with_bound(cert, 2 * cert.bound))
    for s, cd in (_plane_cd(4, [0] * 5), _f1_cd(4, [0] * 4, 0)):
        cert = certificate(s, cd)
        with pytest.raises(InvariantError, match="independent inequality check disagrees"):
            compare_with_slope(s, cd, _with_bound(cert, cert.bound / 2))
    s, cd = _plane_cd(5, [0] * 4)
    cert = certificate(s, cd)
    with pytest.raises(InvariantError, match="strictly below the slope threshold"):
        compare_with_slope(s, cd, _with_bound(cert, 2 * cert.bound))


def test_public_entries_check_the_rank():
    # certificate and compare_with_slope read the data's integer row; a
    # surface of another degree is refused with reconstruct's message
    for degree, other in ((4, 5), (5, 4), (6, 7), (7, 3)):
        s, cd = _plane_cd(degree, [0] * (9 - degree))
        cert = certificate(s, cd)
        t = SurfaceModel(other)
        message = f"rank mismatch: {t.r} vs {s.r}"
        with pytest.raises(DomainError) as err:
            reconstruct(cd, t)
        assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            compare_with_slope(t, cd, cert)
        assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            certificate(t, cd)
        if other in (4, 5, 6, 7):
            assert str(err.value) == message
        else:
            assert str(err.value) == "certificates exist for degree 4 to 7 only"


@pytest.mark.parametrize("degree", [4, 5, 6, 7])
def test_certificate_refuses_a_face_with_too_few_curves(degree):
    # the constructor takes a short face (the empty face is -K), and
    # certificate counts the curves: a plane face contracts r lines, a
    # conic face r - 1 lines and a fiber
    full = [
        _plane_cd(degree, [0] * (9 - degree)),
        _f1_cd(degree, [0] * (8 - degree), 0),
        _p1p1_cd(degree, [0] * (8 - degree), 0),
    ]
    for s, cd in full:
        certificate(s, cd)
        need = len(cd.curveE)
        for k in range(need):
            short = ContractionData(cd.kind, F(0), (F(0),) * k, cd.curveE[:k], cd.curveC)
            message = f"a {cd.kind} face in degree {degree} contracts {need} lines, not {k}"
            with pytest.raises(DomainError) as err:
                certificate(s, short)
            assert str(err.value) == message


def test_row_lookups_name_the_class():
    s = SurfaceModel(6)
    with pytest.raises(InvariantError) as err:
        _as_line((1, 0, 0, 0), s, "the test curve")
    assert str(err.value) == "the test curve realized as (1; 0, 0, 0) is not an exceptional curve"
    with pytest.raises(InvariantError) as err:
        _as_fiber((1, -1, -1, 0), s, "the test fiber")
    assert str(err.value) == "the test fiber realized as (1; -1, -1, 0) is not a fiber class"
    for c in minus_one_curves(s):
        assert _as_line(c.row, s, "a line") == c.row
        with pytest.raises(InvariantError):
            _as_fiber(c.row, s, "a line")
    for c in fiber_classes(s):
        assert _as_fiber(c.row, s, "a fiber") == c.row
        with pytest.raises(InvariantError):
            _as_line(c.row, s, "a fiber")


def test_pullback_and_second_ruling_must_be_integral():
    s = SurfaceModel(7)
    e1 = basis_exceptional(s, 1)
    # one curve short of a plane model: (-K + E1) / 3 = (1; 0, -1/3)
    with pytest.raises(InvariantError) as err:
        _plane_pullback(s, (e1.row,))
    assert str(err.value) == "plane hyperplane class is not integral"
    # no contracted curve beside the ruling C: (-K - 2C) / 2 = (1/2; 1/2, -1/2)
    with pytest.raises(InvariantError) as err:
        _other_ruling(s, (), (1, -1, 0))
    assert str(err.value) == "second ruling class is not integral"
    # certificate refuses both faces as input, before the lemma runs
    short = [
        ContractionData(KIND_TO_P2, F(0), (F(0),), (e1,), None),
        ContractionData(KIND_CONIC_P1P1, F(0), (), (), div(1, [-1, 0])),
    ]
    for cd in short:
        with pytest.raises(DomainError, match="face in degree 7 contracts"):
            certificate(s, cd)
    # F1 data whose lines contract onto P1 x P1: M = -K + E1 + E2 + (H - E3 - E4)
    # = 4H - 2E3 - 2E4, so (M - 3C) / 2 = (H + E3 - 2E4) / 2 for C = H - E3
    s = SurfaceModel(5)
    curves = (basis_exceptional(s, 1), basis_exceptional(s, 2), div(1, [0, 0, -1, -1]))
    cd = ContractionData(KIND_CONIC_F1, F(0), (F(0),) * 3, curves, div(1, [0, 0, -1, 0]))
    with pytest.raises(InvariantError) as err:
        certificate(s, cd)
    assert str(err.value) == "section curve is not integral"


def _ordered_faces(s):
    """(plane, f1, p1p1): every ordered plane face of s as a tuple of line
    rows, and every ordered conic face as (line rows, fiber row), split by
    the parity of M = -K + sum(E_i)."""
    tables = _tables(s.degree)
    rows, masks = tables.rows, tables.masks
    every = (1 << len(rows)) - 1
    plane = [
        face
        for chosen in _disjoint_index_sets(every, masks, s.r)
        for face in permutations(rows[i] for i in chosen)
    ]
    f1, p1p1 = [], []
    for chosen in _disjoint_index_sets(every, masks, s.r - 1):
        es = [rows[i] for i in chosen]
        odd = any(x % 2 for x in _row_sum(_anticanonical_row(s), *es))
        for c in tables.fibers:
            if not any(_row_dot(c, e) for e in es):
                (f1 if odd else p1p1).extend((face, c) for face in permutations(es))
    return plane, f1, p1p1


# ordered (plane, conic) faces: |W(E_r)| plane faces, twice as many conic
_ORDERED_FACES = {4: (1920, 3840), 5: (120, 240), 6: (12, 24), 7: (2, 4)}


def _meets(row, rows):
    return [_row_dot(row, e) for e in rows]


def test_named_curve_tables_hold_one_entry_per_ordered_face():
    total = 0
    for degree, (plane_count, conic_count) in _ORDERED_FACES.items():
        for table in (_plane_curves, _section, _ruling_curves):
            table.cache_clear()
        s = SurfaceModel(degree)
        plane, f1, p1p1 = _ordered_faces(s)
        assert (len(plane), len(f1) + len(p1p1)) == (plane_count, conic_count)
        lines, fibers = _tables(degree).index, _tables(degree).fibers
        for es in plane:
            named, conic = _plane_curves(degree, es)
            # the line through points 1 and j + 1 meets es[0] and es[j] once each
            for j, line in enumerate(named, 1):
                assert line in lines
                assert _meets(line, es) == [int(i in (0, j)) for i in range(s.r)]
            if degree == 4:
                assert conic in lines and _meets(conic, es) == [1] * 5
            else:
                assert conic is None
        faces = set(plane)
        for es, c in f1:
            v = _section(degree, es, c)
            assert v in lines and _row_dot(v, c) == 1 and _meets(v, es) == [0] * len(es)
            assert es + (v,) in faces
            _plane_curves(degree, es + (v,))
        for es, c in p1p1:
            f, fp, more = _ruling_curves(degree, es, c)
            assert f in lines and fp in lines and _row_sum(fp, es[0]) in fibers
            assert _row_sum(f, es[0]) == c and _row_dot(f, fp) == 0
            assert _meets(f, es[:1]) == _meets(fp, es[:1]) == [1]
            if degree == 6:
                assert all(g in lines and _meets(g, es) == [0, 1] for g in more)
            else:
                pairs = {7: [], 5: [(1, 2)], 4: [(1, 2), (1, 3), (2, 3)]}[degree]
                assert len(more) == len(pairs)
                for t, (j, k) in zip(more, pairs):
                    on = (0, j, k)
                    assert t in lines and _meets(t, es) == [int(i in on) for i in range(len(es))]
        assert _plane_curves.cache_info().currsize == plane_count
        assert _section.cache_info().currsize == len(f1)
        assert _ruling_curves.cache_info().currsize == len(p1p1)
        total += plane_count + conic_count
    assert total == 6162


def test_a_face_that_fails_its_checks_raises_on_each_call_and_is_not_stored():
    # F1 data whose lines contract onto P1 x P1 (see the test above)
    es = ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, 0, -1, -1))
    cases = [
        (_plane_curves, (7, ((0, 1, 0),)), "plane hyperplane class is not integral"),
        (_ruling_curves, (7, (), (1, -1, 0)), "second ruling class is not integral"),
        (_section, (5, es, (1, 0, 0, -1, 0)), "section curve is not integral"),
    ]
    for table, args, message in cases:
        before = table.cache_info()
        for _ in range(3):
            with pytest.raises(InvariantError) as err:
                table(*args)
            assert str(err.value) == message
        after = table.cache_info()
        assert after.currsize == before.currsize and after.misses == before.misses + 3
    s5 = SurfaceModel(5)
    curves = tuple(_from_row(1, row) for row in es)
    cd = ContractionData(KIND_CONIC_F1, F(0), (F(0),) * 3, curves, div(1, [0, 0, -1, 0]))
    for _ in range(2):
        with pytest.raises(InvariantError, match="section curve is not integral"):
            certificate(s5, cd)


_ORACLE = {
    KIND_TO_P2: fraction_parts._plane_parts,
    KIND_CONIC_F1: fraction_parts._f1_parts,
    KIND_CONIC_P1P1: fraction_parts._p1p1_parts,
}


def _cd_parts(s, cd):
    """_parts of a ContractionData, as certificate hands it its fields."""
    c = None if cd.curveC is None else cd.curveC.row
    return _parts(s, cd.kind, tuple(e.row for e in cd.curveE), c, cd._weights)


def _oracle_parts(s, cd):
    """The Fraction parts, after checking that the nonzero integer parts,
    read as n / Q, equal the nonzero Fraction parts in order.  Only the
    nonzero parts are compared: the F1 parts in degrees 5 and 6 now carry
    the section with coefficient 0, which _finish drops."""
    one, parts = _cd_parts(s, cd)
    assert one % 2 == 0
    expected = _ORACLE[cd.kind](s, cd)
    got = [(row, F(n, one)) for row, n in parts if n]
    assert got == [(row, F(c)) for row, c in expected if c]
    return expected


def test_integer_parts_match_fraction_parts_on_the_grid():
    # acceptance 5 builds the certificate of every grid item
    seen = 0
    for s, cd in _grid():
        _oracle_parts(s, cd)
        seen += 1
    assert seen == 53469


def _weight(rng):
    # a rational in [0, 1) over its own denominator of up to 10^6
    den = rng.randint(1, 10**6)
    return F(rng.randrange(den), den)


# a degree-4 weight solved from the others so that a four-case test or a
# twelve- or five-sum lies exactly on its boundary: (index, value from a)
_BOUNDARIES = (
    (1, lambda a: 1 + a[3] - a[2]),  # a2 + a3 = 1 + a4
    (3, lambda a: 1 - a[1]),  # a2 + a4 = 1
    (3, lambda a: 1 - a[2]),  # a3 + a4 = 1
    (2, lambda a: 1 - a[1]),  # a2 + a3 = 1
    (3, lambda a: 1 - a[1] - a[2]),  # a2 + a3 + a4 = 1
)


def _seeded_faces(count, seed):
    """count faces in degrees 4-7 of all three kinds, with weights and delta
    of unrelated denominators up to 10^6; in degree 4 each draw is also
    moved onto every boundary it can reach with sorted weights."""
    rng = random.Random(seed)
    builders = (
        lambda d, a, delta: _plane_cd(d, a + (_weight(rng) * a[-1],)),
        _f1_cd,
        _p1p1_cd,
    )
    faces, hits = [], [0] * len(_BOUNDARIES)
    while len(faces) < count:
        degree = rng.choice((4, 5, 6, 7))
        build = rng.choice(builders)
        a = tuple(sorted((_weight(rng) for _ in range(8 - degree)), reverse=True))
        delta = 2 * _weight(rng)
        faces.append(build(degree, a, delta))
        if degree != 4:
            continue
        for k, (i, solve) in enumerate(_BOUNDARIES):
            b = list(a)
            b[i] = solve(a)
            if b[0] < 1 and b[-1] >= 0 and b == sorted(b, reverse=True):
                faces.append(build(degree, tuple(b), delta))
                hits[k] += 1
    return faces, hits


def test_integer_parts_match_fraction_parts_on_seeded_faces():
    faces, hits = _seeded_faces(2400, seed=14)
    assert len(faces) >= 2400
    assert min(hits) >= 20  # every boundary is reached
    for s, cd in faces:
        expected = _oracle_parts(s, cd)
        # the certificate keeps exactly the nonzero parts
        tables = _tables(s.degree)
        cert = certificate(s, cd)
        expected = [(tables.lines[tables.index[row]], F(c)) for row, c in expected if c != 0]
        assert cert.divisor == tuple(expected)


def test_boundary_faces_take_the_branch_of_the_equality():
    # each equality sits on the near side of its test: a2 + a3 = 1 + a4
    # picks all three, and a sum of exactly 1 is admissible
    s, cd = _p1p1_cd(4, _fr(["9/10", "4/5", "3/5", "2/5"]), 0)
    assert cd.a[1] + cd.a[2] == 1 + cd.a[3]
    one, parts = _cd_parts(s, cd)
    assert len(parts) == 6  # no leftover E
    s, cd = _p1p1_cd(4, _fr(["9/10", "4/5", "7/10", "1/5"]), 0)
    assert cd.a[1] + cd.a[3] == 1
    one, parts = _cd_parts(s, cd)
    assert parts[-1] == (cd.curveE[2].row, cd.a[2] * one)  # only E3 is left over
    s, cd = _plane_cd(4, _fr(["1/2", "1/2", "1/3", "1/6", 0]))
    one, parts = _cd_parts(s, cd)
    assert F(parts[1][1], one) == 0  # the conic's (1 - n) / 2 with n = 1
    assert largest_admissible_sum(cd.a[1:], TWELVE_SUM_FAMILY) == 1


def _check_path_faces():
    """(s, l, scale * l, face, certificate, flags) from the check path,
    stability._upper_bound, on every 17th acceptance-5 grid item and on
    seeded faces of all three kinds (degree-4 boundary ties included),
    each as built, and scaled by a seeded rational with its points
    permuted, so that the face's weights do not follow its line indexes."""
    grid = _grid()
    assert len(grid) == 53469
    seeded, hits = _seeded_faces(600, seed=16)
    assert min(hits) >= 5
    rng = random.Random(17)
    classes = [(s, reconstruct(cd, s)) for s, cd in grid[::17]]
    for s, cd in seeded:
        l = reconstruct(cd, s)
        h, *e = l.row
        rng.shuffle(e)
        moved = F(rng.randint(1, 40), rng.randint(1, 40)) * _from_row(l.den, (h, *e))
        classes += [(s, l), (s, moved)]
    for s, l in classes:
        signs = _ample_signs(l, s)
        scale, face, cert, flags = _upper_bound(s, l, signs)
        yield s, l, scale * l, face, cert, flags


def test_check_path_faces_match_the_public_constructor():
    # the check path builds its face record without the public
    # ContractionData checks; the public constructor, with every check,
    # accepts each face it finds as the same record field for field, and
    # certificate and compare_with_slope on it agree with the check path
    kinds, zero_weights, flat_conics, seen = set(), 0, 0, 0
    for s, l, normalized, face, cert, flags in _check_path_faces():
        public = ContractionData(face.kind, face.delta, face.a, face.curveE, face.curveC)
        assert vars(face) == vars(public)  # _weights and _row included
        assert reconstruct(public, s) == normalized
        assert certificate(s, public) == cert
        assert compare_with_slope(s, public, cert) == flags
        _, delta, a = face._weights
        kinds.add(face.kind)
        zero_weights += 0 in a
        flat_conics += face.curveC is not None and delta == 0
        seen += 1
    assert seen >= 3146 + 2 * 600
    assert kinds == {KIND_TO_P2, KIND_CONIC_F1, KIND_CONIC_P1P1}
    assert zero_weights >= 100 and flat_conics >= 20  # ties in the search


def _fraction_builders(call, module="kstab.alphabound"):
    """(call(), names): the name of the function behind each Fraction
    built during call() whose module name starts with module: the first
    named function outside the fractions module, so Fraction arithmetic
    and comprehensions count as well."""
    new = Fraction.__new__.__code__
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            caller = frame.f_back
            while caller.f_code.co_filename == new.co_filename or caller.f_code.co_name[0] == "<":
                caller = caller.f_back
            if caller.f_globals.get("__name__", "").startswith(module):
                names.append(caller.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, names


def _path_items():
    """Every 97th acceptance-5 grid item, then seeded faces in degrees 4-7
    of all three kinds."""
    items = list(_grid()[::97])
    items += _seeded_faces(60, seed=15)[0]
    assert len({(s.degree, cd.kind) for s, cd in items}) == 12
    return items


def test_certificate_builds_fractions_only_for_its_output():
    for s, cd in _path_items():
        cert, names = _fraction_builders(lambda: certificate(s, cd))
        # the record keeps its coefficients as ints: Fractions are built
        # only when its fields are read, one per component and one for the
        # bound
        assert names == []
        _, names = _fraction_builders(lambda: (cert.divisor, cert.bound))
        assert names == ["divisor"] * len(cert._terms) + ["bound"]


def test_certificates_pass_the_public_constructor():
    # _finish builds its record without Certificate.__post_init__; the
    # public constructor accepts each one as it is
    for s, cd in _path_items():
        cert = certificate(s, cd)
        assert Certificate(cert.divisor, cert.witness_index, cert.bound) == cert
        assert isinstance(cert.bound, Fraction)
        assert all(isinstance(c, Fraction) for _, c in cert.divisor)


def test_slope_flags_match_a_fraction_oracle():
    # strict and equality compare the bound with (2/3) * (-K.L) / L^2, here
    # in Fraction class arithmetic on the class summed from the face
    zeros = [_plane_cd(4, [0] * 5), _f1_cd(4, [0] * 4, 0), _p1p1_cd(4, [0] * 4, 0)]
    equal = 0
    for s, cd in zeros + _path_items():
        l = anticanonical(s)
        if cd.curveC is not None:
            l = l + cd.delta * cd.curveC
        for x, c in zip(cd.a, cd.curveE):
            l = l + x * c
        limit = F(2, 3) * intersect(anticanonical(s), l, s) / square(l, s)
        cert = certificate(s, cd)
        flags = compare_with_slope(s, cd, cert)
        assert flags == {"strict": cert.bound < limit, "equality": cert.bound == limit}
        equal += flags["equality"]
    assert equal >= 3  # the degree-4 zero point of each kind

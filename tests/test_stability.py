import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.alphabound import certificate, verify_certificate
from kstab.cones import (
    ContractionData,
    KIND_TO_P2,
    ample_violation,
    face_decompose,
    is_ample,
    is_nef,
    is_nef_lp,
    mu,
    mu_bisect,
    reconstruct,
)
from kstab.curves import (
    _table_pairings,
    _tables,
    disjoint_sets,
    minus_one_curves,
    negative_curves,
    pairings,
)
from kstab.errors import DomainError
from kstab.lattice import (
    SurfaceModel,
    anticanonical,
    canonical,
    basis_exceptional,
    basis_line,
    div,
    intersect,
    square,
    zero_class,
)
from kstab.stability import (
    STATUS_INAPPLICABLE,
    STATUS_MAIN,
    STATUS_SIX_LINE,
    STATUS_UNKNOWN,
    STATUS_UNSUPPORTED,
    _six_line_parameter,
    condition_a,
    cubic_line_family_report,
    gamma_lower_bound,
    normalize,
    nu,
    verdict,
)

F = Fraction


def _signs(l, s):
    """The packed pairings of l with the curve-cone generators, as the
    verdict reads them."""
    return _table_pairings(l, _tables(s.degree).cone_table, s)


def _sum_exceptional(s):
    total = zero_class(s)
    for i in range(1, s.r + 1):
        total = total + basis_exceptional(s, i)
    return total


def test_nu_basics():
    for d in range(1, 9):
        s = SurfaceModel(d)
        assert nu(anticanonical(s), s) == 1
    s = SurfaceModel(3)
    l = anticanonical(s) + F(1, 2) * basis_exceptional(s, 1)
    assert nu(l, s) == F(14, 15)
    with pytest.raises(DomainError):
        nu(div(1, [-1, 0, 0, 0, 0, 0]), s)


def test_nu_matches_blowdown_formula():
    rng = random.Random(31)
    for d in (4, 5, 6, 7):
        s = SurfaceModel(d)
        for _ in range(10):
            raw = sorted(
                (F(rng.randrange(0, 8), 8) for _ in range(s.r)), reverse=True
            )
            if raw[0] == 1:
                continue
            cd = ContractionData(
                kind=KIND_TO_P2,
                delta=F(0),
                a=tuple(raw),
                curveE=tuple(basis_exceptional(s, i) for i in range(1, s.r + 1)),
                curveC=None,
            )
            l = reconstruct(cd, s)
            tot = sum(raw)
            sq = sum(x * x for x in raw)
            assert nu(l, s) == (d + tot) / (d + 2 * tot - sq)


def test_nu_scaling_law():
    s = SurfaceModel(5)
    l = anticanonical(s) + F(1, 3) * basis_exceptional(s, 2)
    for c in (F(1, 2), F(5, 7), F(3)):
        assert nu(c * l, s) == nu(l, s) / c


def test_condition_a_threshold_and_scaling():
    s = SurfaceModel(3)
    e1 = basis_exceptional(s, 1)
    assert condition_a(anticanonical(s), s)
    assert condition_a(anticanonical(s) + F(3, 5) * e1, s)
    assert not condition_a(anticanonical(s) + F(61, 100) * e1, s)
    l = anticanonical(s) + F(1, 2) * e1
    assert condition_a(l, s) == condition_a(F(5, 7) * l, s)


def test_normalize_lands_on_three_halves():
    s = SurfaceModel(1)
    mk = anticanonical(s)
    assert normalize(mk, s) == F(2, 3) * mk
    l = mk + F(1, 10) * basis_exceptional(s, 1)
    ln = normalize(l, s)
    assert nu(ln, s) == F(3, 2)
    assert normalize(ln, s) == ln
    # the defining identity of the rescaled class
    assert intersect(ln - F(2, 3) * mk, ln, s) == 0


def test_gamma_at_anticanonical():
    assert gamma_lower_bound(SurfaceModel(1), anticanonical(SurfaceModel(1))) == F(9, 8)
    assert gamma_lower_bound(SurfaceModel(2), anticanonical(SurfaceModel(2))) == F(18, 17)


def test_gamma_branch_continuity():
    # the two degree-1 branches meet at the cap value
    assert 3 / (3 - F(1, 2)) == F(6, 5)
    assert 12 / (12 - F(1)) == F(12, 11)


def test_gamma_rejections():
    s = SurfaceModel(3)
    with pytest.raises(DomainError):
        gamma_lower_bound(s, anticanonical(s))
    s = SurfaceModel(1)
    with pytest.raises(DomainError):
        gamma_lower_bound(s, basis_exceptional(s, 1))  # not ample
    bad = anticanonical(s) + F(1, 2) * basis_exceptional(s, 1)
    assert is_ample(bad, s)
    assert not condition_a(bad, s)
    with pytest.raises(DomainError):
        gamma_lower_bound(s, bad)


def test_gamma_random_range():
    # epsilon never exceeds a third of the degree, so gamma stays below the
    # anticanonical value and above 1
    rng = random.Random(12)
    for d, cap in ((1, F(9, 8)), (2, F(18, 17))):
        s = SurfaceModel(d)
        found = 0
        while found < 40:
            l = anticanonical(s)
            for i in range(1, s.r + 1):
                l = l + F(rng.randrange(0, 4), 32) * basis_exceptional(s, i)
            if not condition_a(l, s):
                continue
            g = gamma_lower_bound(s, l)
            assert 1 < g <= cap
            found += 1


def test_verdict_main_theorem():
    s = SurfaceModel(2)
    v = verdict(s, anticanonical(s))
    assert v.status == STATUS_MAIN
    assert v.condition_a is True
    assert v.nu == 1
    assert v.alpha_lower == F(18, 17)
    assert v.certificate is None
    assert "12/17" in v.notes  # rescaled bound (18/17)(2/3)


def _count_products(monkeypatch):
    """The list that records each packed product of a class with a curve
    table, in every module that makes one."""
    from kstab import cones, curves, stability

    calls = []
    original = curves._table_pairings

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (cones, curves, stability):
        if hasattr(module, "_table_pairings"):
            monkeypatch.setattr(module, "_table_pairings", counted)
    return calls


# warm packed products per verdict, by degree: the class once (ampleness,
# the slope, condition A and the six-line sextet read it), and in degrees
# 4-7 the nef test of the face's dual class
_PRODUCTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1}


def test_low_degree_verdict_tests_ampleness_and_residual_once(monkeypatch):
    calls = _count_products(monkeypatch)
    rng = random.Random(13)
    for d in (1, 2):
        s = SurfaceModel(d)
        l = anticanonical(s)
        for i in range(1, s.r + 1):
            l = l + F(rng.randrange(0, 4), 32) * basis_exceptional(s, i)
        verdict(s, l)  # warm the per-degree tables
        calls.clear()
        v = verdict(s, l)
        assert len(calls) == _PRODUCTS[d] == 1
        assert v.condition_a == condition_a(l, s)
        if v.condition_a:
            assert v.alpha_lower == gamma_lower_bound(s, l)


def test_verdict_computes_the_slope_once(monkeypatch):
    # the slope is read off the one product, with no call to nu
    from kstab import stability

    slopes = []
    original = stability.nu

    def counted(*args):
        slopes.append(args)
        return original(*args)

    monkeypatch.setattr(stability, "nu", counted)
    calls = _count_products(monkeypatch)
    rng = random.Random(31)
    statuses = set()
    for d in range(1, 9):
        s = SurfaceModel(d)
        for trial in range(3):
            l = anticanonical(s)
            for i in range(1, s.r + 1):
                l = l + F(rng.randrange(0, 4) * trial, 32) * basis_exceptional(s, i)
            l = F(3, 4) * l
            verdict(s, l)  # warm the per-degree tables
            calls.clear()
            v = verdict(s, l)
            statuses.add(v.status)
            assert (len(calls), slopes) == (_PRODUCTS[d], []), d
            assert v.nu == original(l, s)
            slopes.clear()
    assert STATUS_MAIN in statuses and STATUS_INAPPLICABLE in statuses


def test_middle_degree_verdict_tests_ampleness_once(monkeypatch):
    # verdict tests l on its product, and mu(l) * l is ample with it, so
    # the face reads its signs off that product: the class is paired once,
    # and the face's dual class once; ample_violation only words a rejection
    from kstab import cones

    rejections = []
    original = cones.ample_violation

    def counted(*args):
        rejections.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "ample_violation", counted)
    calls = _count_products(monkeypatch)
    rng = random.Random(47)
    for d in (4, 5, 6, 7):
        s = SurfaceModel(d)
        fiber = basis_line(s) - basis_exceptional(s, s.r)
        for trial in range(6):
            l = anticanonical(s) + F(trial % 3, 4) * fiber
            for i in range(1, s.r + (trial % 3 == 0)):
                l = l + F(rng.randrange(0, 6), 7) * basis_exceptional(s, i)
            l = F(rng.randint(1, 5), rng.randint(1, 5)) * l
            verdict(s, l)  # warm the per-degree tables
            calls.clear()
            rejections.clear()
            v = verdict(s, l)
            assert (len(calls), rejections) == (_PRODUCTS[d], [])
            assert v.status == STATUS_INAPPLICABLE
            scale = mu(l, s)
            assert v.certificate == certificate(s, face_decompose(scale * l, s))


def _seeded_ample(rng, s, cap=1):
    """c * (-K + delta * (H - E_r) + sum(a_i * E_i)) with 0 <= a_i < cap <= 1
    and delta >= 0, which is ample in every degree."""
    fiber = basis_line(s) - basis_exceptional(s, s.r)
    l = anticanonical(s) + F(rng.randrange(0, 3), rng.randint(1, 6)) * cap * fiber
    for i in range(1, s.r + 1):
        den = rng.randint(1, 12)
        l = l + F(rng.randrange(0, den), den) * cap * basis_exceptional(s, i)
    return F(rng.randint(1, 9), rng.randint(1, 9)) * l


def _condition_a_cases():
    rng = random.Random(61)
    for d in range(1, 9):
        s = SurfaceModel(d)
        for trial in range(40):
            yield s, _seeded_ample(rng, s, F(1, 8) if trial % 2 else 1)
    # the cubic family -K + x*E1 at its boundary x = 3/5, where the residual
    # pairs to 0 with the lines H - E1 - Ej, and on both sides of it
    s = SurfaceModel(3)
    for x in (F(3, 5), F(3, 5) - F(1, 1000), F(3, 5) + F(1, 1000)):
        yield s, anticanonical(s) + x * basis_exceptional(s, 1)
    # degree 8: hH - mE1 has condition A for m/h <= 2*sqrt(3) - 3 < 0.47,
    # where the ruling H - E1, with -K.(H - E1) = 2, still holds and would
    # fail if it were weighted as a (-1)-curve (that needs m/h >= 3/5)
    s = SurfaceModel(8)
    for m in range(1, 20):
        yield s, div(20, [-m])


def test_verdict_condition_a_matches_the_residual_route():
    seen = set()
    for s, l in _condition_a_cases():
        assert is_ample(l, s)
        v = verdict(s, l)
        assert v.condition_a == condition_a(l, s), (s, l)
        assert v.nu == nu(l, s)
        seen.add((s.degree, v.condition_a))
    # both outcomes occur in the low degrees, the cubic and degree 8
    assert {(d, c) for d in (1, 2, 3, 8) for c in (True, False)} <= seen
    s = SurfaceModel(3)
    assert verdict(s, anticanonical(s) + F(3, 5) * basis_exceptional(s, 1)).condition_a


def test_face_signs_match_the_line_table(monkeypatch):
    # the face of K + mu*l reads its signs off the product of l: they equal
    # the pairings of K + mu*l with the line table
    from kstab import cones

    seen = []
    original = cones._face_data

    def recorded(w, s, signs):
        seen.append((w, s, list(signs)))
        return original(w, s, signs)

    monkeypatch.setattr(cones, "_face_data", recorded)
    rng = random.Random(67)
    for d in (4, 5, 6, 7):
        s = SurfaceModel(d)
        for _ in range(25):
            l = _seeded_ample(rng, s)
            seen.clear()
            v = verdict(s, l)
            ((w, _, signs),) = seen
            assert w == mu(l, s) * l + canonical(s)
            assert signs == list(_table_pairings(w, _tables(d).line_table, s))
            assert v.certificate == certificate(s, face_decompose(mu(l, s) * l, s))


def test_verdict_low_degree_unknown_when_residual_fails():
    s = SurfaceModel(1)
    l = anticanonical(s) + F(1, 2) * basis_exceptional(s, 1)
    v = verdict(s, l)
    assert v.status == STATUS_UNKNOWN
    assert v.condition_a is False
    assert v.alpha_lower is None


def test_verdict_six_line_window():
    s = SurfaceModel(3)
    l = anticanonical(s) + F(1, 10) * _sum_exceptional(s)
    v = verdict(s, l)
    assert v.status == STATUS_SIX_LINE
    assert v.alpha_lower == F(20, 33)
    assert v.certificate is None
    outside = anticanonical(s) + F(1, 5) * _sum_exceptional(s)
    v = verdict(s, outside)
    assert v.status == STATUS_UNKNOWN
    assert "outside the proven window" in v.notes


def test_verdict_cubic_edge_cases():
    s = SurfaceModel(3)
    v = verdict(s, anticanonical(s))
    assert v.status == STATUS_UNKNOWN
    assert "classical" in v.notes
    v = verdict(s, anticanonical(s) + F(1, 10) * basis_exceptional(s, 1))
    assert v.status == STATUS_UNKNOWN
    assert "no result covers" in v.notes


def test_verdict_certificate_for_middle_degrees():
    s = SurfaceModel(4)
    v = verdict(s, anticanonical(s))
    assert v.status == STATUS_INAPPLICABLE
    assert v.certificate is not None
    assert v.certificate.bound == F(2, 3)
    assert v.alpha_lower is None
    assert "agree exactly" in v.notes
    verify_certificate(v.certificate, anticanonical(s), s)


def test_verdict_rescales_unnormalized_input():
    s = SurfaceModel(5)
    base = anticanonical(s) + F(1, 2) * basis_exceptional(s, 1)
    v = verdict(s, 7 * base)
    assert v.status == STATUS_INAPPLICABLE
    assert v.certificate.bound == F(2, 5)  # 1/(2 + 1/2)
    assert "1/7" in v.notes
    assert "2/35" in v.notes
    verify_certificate(v.certificate, base, s)


def test_verdict_unsupported_and_guards():
    s = SurfaceModel(8)
    v = verdict(s, anticanonical(s))
    assert v.status == STATUS_UNSUPPORTED
    assert v.certificate is None
    with pytest.raises(DomainError):
        verdict(SurfaceModel(4), basis_exceptional(SurfaceModel(4), 1))


def test_verdict_never_main_above_degree_two():
    for d in range(3, 9):
        s = SurfaceModel(d)
        assert verdict(s, anticanonical(s)).status != STATUS_MAIN


def test_family_report_window():
    rep = cubic_line_family_report(F(1, 2))
    assert rep["nu"] == F(14, 15)
    assert rep["condition_a"] is True
    assert rep["alpha_upper"] == F(3, 5)
    assert rep["in_window"] is True
    assert cubic_line_family_report(F(2, 5))["in_window"] is False
    rep = cubic_line_family_report(F(7, 10))
    assert rep["condition_a"] is False
    assert rep["in_window"] is False
    rep = cubic_line_family_report(0)
    assert rep["nu"] == 1
    assert rep["alpha_upper"] == F(3, 4)
    assert rep["in_window"] is False
    with pytest.raises(DomainError):
        cubic_line_family_report(F(1))
    with pytest.raises(DomainError):
        cubic_line_family_report(F(-1, 10))


def test_family_report_reads_its_parameter_as_rational():
    # the parameter goes through lattice.rational, as the CLI's does: a
    # string or an int is read exactly, while a float and an exponent too
    # large to expand are refused instead of taken as a binary fraction or
    # built digit by digit
    assert cubic_line_family_report("1/2") == cubic_line_family_report(F(1, 2))
    assert cubic_line_family_report("0") == cubic_line_family_report(0)
    for bad in (0.1, "1e-5000000", "x", None):
        with pytest.raises(DomainError):
            cubic_line_family_report(bad)


def test_family_report_matches_direct_computation():
    # the report's family adds one exceptional curve, not the six-line sum
    s = SurfaceModel(3)
    for x in (F(0), F(1, 10), F(1, 2), F(3, 5), F(9, 10)):
        l = anticanonical(s) + x * basis_exceptional(s, 1)
        rep = cubic_line_family_report(x)
        assert rep["nu"] == nu(l, s)
        assert rep["condition_a"] == condition_a(l, s)


_scale = st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=8)


@settings(derandomize=True, max_examples=40)
@given(_scale, st.integers(min_value=1, max_value=8))
def test_condition_a_scale_invariant_everywhere(c, d):
    s = SurfaceModel(d)
    l = anticanonical(s) + F(1, 8) * basis_exceptional(s, 1)
    assert condition_a(c * l, s) == condition_a(l, s)
    assert nu(c * l, s) * c == nu(l, s)


@pytest.fixture(scope="module")
def cubic_sextets():
    s = SurfaceModel(3)
    return disjoint_sets(minus_one_curves(s), 6, s)


def _six_line_scan(l, s, sextets):
    """The scan over every disjoint sextet that _six_line_parameter
    replaced, kept as its oracle."""
    w = l - anticanonical(s)
    if w == zero_class(s):
        return F(0)
    x = intersect(anticanonical(s), w, s) / 6
    for sextet in sextets:
        if x > 0 and w == x * sum(sextet[1:], sextet[0]):
            return x
    return None


def test_six_line_parameter_matches_scan_on_every_sextet(cubic_sextets):
    s = SurfaceModel(3)
    assert len(cubic_sextets) == 72
    for sextet in cubic_sextets:
        for x in (F(1, 60), F(1, 10), F(1, 3), F(9, 10)):
            l = anticanonical(s) + x * sum(sextet[1:], sextet[0])
            assert _six_line_parameter(l, s, _signs(l, s)) == x
            assert _six_line_scan(l, s, cubic_sextets) == x


def test_six_line_parameter_matches_scan_off_the_family(cubic_sextets):
    s = SurfaceModel(3)
    mk = anticanonical(s)
    e = [basis_exceptional(s, i) for i in range(1, 7)]
    five = sum(e[1:5], e[0])
    cases = [
        mk,
        mk + F(1, 4) * five,
        # six lines, two of which meet
        mk + F(1, 4) * (five + basis_line(s) - e[0] - e[1]),
        mk - F(1, 4) * (five + e[5]),
        F(3, 2) * (mk + F(1, 10) * (five + e[5])),
        mk + F(1, 3) * (basis_line(s) - e[0]),
    ]
    for sextet in cubic_sextets[::5]:
        cases.append(mk + F(1, 5) * sum(sextet[1:], sextet[0]) + F(1, 7) * sextet[0])
    rng = random.Random(36)
    for _ in range(60):
        cases.append(mk + sum((F(rng.randrange(0, 4), 4) * c for c in e), zero_class(s)))
    misses = 0
    for l in cases:
        x = _six_line_parameter(l, s, _signs(l, s))
        assert x == _six_line_scan(l, s, cubic_sextets)
        misses += x is None
    assert misses > len(cases) // 2


def _anticanonical_face(s):
    return face_decompose(anticanonical(s), s)


# each public entry that takes a class and a surface, on a surface s of a
# degree where it applies, given -K (or its face) from a surface t of
# another degree
_RANK_ENTRIES = {
    "is_nef": (5, lambda s, t: is_nef(anticanonical(t), s)),
    "is_nef_lp": (5, lambda s, t: is_nef_lp(anticanonical(t), s)),
    "is_ample": (5, lambda s, t: is_ample(anticanonical(t), s)),
    "ample_violation": (5, lambda s, t: ample_violation(anticanonical(t), s)),
    "mu": (5, lambda s, t: mu(anticanonical(t), s)),
    "mu_bisect": (5, lambda s, t: mu_bisect(anticanonical(t), s)),
    "face_decompose": (5, lambda s, t: face_decompose(anticanonical(t), s)),
    "nu": (5, lambda s, t: nu(anticanonical(t), s)),
    "condition_a": (5, lambda s, t: condition_a(anticanonical(t), s)),
    "normalize": (5, lambda s, t: normalize(anticanonical(t), s)),
    "verdict": (5, lambda s, t: verdict(s, anticanonical(t))),
    "gamma_lower_bound": (2, lambda s, t: gamma_lower_bound(s, anticanonical(t))),
    "negative_curves": (5, lambda s, t: negative_curves(anticanonical(t), s)),
    "pairings": (5, lambda s, t: pairings(anticanonical(t), _tables(s.degree).rows, s)),
    "intersect": (5, lambda s, t: intersect(anticanonical(s), anticanonical(t), s)),
    "reconstruct": (5, lambda s, t: reconstruct(_anticanonical_face(t), s)),
    "certificate": (5, lambda s, t: certificate(s, _anticanonical_face(t))),
    "verify_certificate": (
        5,
        lambda s, t: verify_certificate(
            certificate(s, _anticanonical_face(s)), anticanonical(t), s
        ),
    ),
}


@pytest.mark.parametrize("entry", sorted(_RANK_ENTRIES))
def test_public_entries_refuse_a_class_of_another_rank(entry):
    degree, call = _RANK_ENTRIES[entry]
    s = SurfaceModel(degree)
    for other in (degree - 1, degree + 1):
        with pytest.raises(DomainError, match="rank (does not match|mismatch)"):
            call(s, SurfaceModel(other))

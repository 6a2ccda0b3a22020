"""Acceptance checks, one test per numbered criterion.

Every comparison is exact rational arithmetic; the timed tests assert
wall-clock budgets on top of the math.  Each test prints one ACCEPTANCE
line on success (visible with pytest -s).
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from kstab.alphabound import certificate
from kstab.appendix import grid_oracle
from kstab.cones import (
    KIND_CONIC_F1,
    KIND_CONIC_P1P1,
    KIND_TO_P2,
    ContractionData,
    ample_violation,
    is_nef,
    is_nef_lp,
    mori_generators,
    mu,
    mu_bisect,
    reconstruct,
)
from kstab.curves import _tables, minus_one_curves
from kstab.lattice import (
    SurfaceModel,
    anticanonical,
    basis_exceptional,
    canonical,
    div,
)
from kstab.ratlp import cone_member
from kstab.stability import (
    STATUS_MAIN,
    STATUS_SIX_LINE,
    STATUS_UNKNOWN,
    condition_a,
    cubic_line_family_report,
    gamma_lower_bound,
    nu,
    verdict,
)

F = Fraction


def test_acceptance_1_curve_counts():
    expected = {7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}
    by_type = {
        7: {0: 2, 1: 1},
        6: {0: 3, 1: 3},
        5: {0: 4, 1: 6},
        4: {0: 5, 1: 10, 2: 1},
        3: {0: 6, 1: 15, 2: 6},
        2: {0: 7, 1: 21, 2: 21, 3: 7},
        1: {0: 8, 1: 28, 2: 56, 3: 56, 4: 56, 5: 28, 6: 8},
    }
    # every record, so the gate times the enumeration and not only the
    # reading of a record built earlier
    _tables.cache_clear()
    start = time.perf_counter()
    for d, count in expected.items():
        curves = minus_one_curves(SurfaceModel(d))
        assert len(curves) == count
        histogram = {}
        for c in curves:
            histogram[c.h] = histogram.get(c.h, 0) + 1
        assert histogram == by_type[d]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 1 PASS: curve counts 3/6/10/16/27/56/240 with matching "
        f"plane-degree split, {elapsed:.2f}s"
    )


def test_acceptance_2_cubic_one_point_family():
    for x in (F(0), F(1, 10), F(2, 5), F(1, 2), F(3, 5), F(61, 100), F(9, 10)):
        rep = cubic_line_family_report(x)
        assert rep["nu"] == (3 + x) / (3 + 2 * x - x * x)
        assert rep["condition_a"] is (x <= F(3, 5))
        assert rep["alpha_upper"] == 3 / (4 + 2 * x)
    assert cubic_line_family_report(F(3, 5))["condition_a"] is True
    assert cubic_line_family_report(F(3, 5) + F(1, 100))["condition_a"] is False
    # bracket the positive root of 13x^2 + 2x - 3 between consecutive
    # multiples of 10^-6 using integer square roots only
    big = 10**6
    p = (math.isqrt(4 * 10**13) - big) // 13
    lo, hi = F(p, big), F(p + 1, big)
    assert 13 * lo * lo + 2 * lo - 3 < 0 < 13 * hi * hi + 2 * hi - 3
    assert hi < F(3, 5)
    assert cubic_line_family_report(lo)["in_window"] is False
    assert cubic_line_family_report(hi)["in_window"] is True
    print(
        "ACCEPTANCE 2 PASS: one-point cubic family slope, threshold 3/5, "
        "upper bound 3/(4+2x), window flips inside the 10^-6 root bracket"
    )


def test_acceptance_3_low_degree_gamma():
    rng = random.Random(2026)
    for d, gamma_anticanonical in ((1, F(9, 8)), (2, F(18, 17))):
        s = SurfaceModel(d)
        v = verdict(s, anticanonical(s))
        assert v.status == STATUS_MAIN
        assert v.alpha_lower == gamma_anticanonical
        accepted = 0
        while accepted < 200:
            l = anticanonical(s)
            for i in range(1, s.r + 1):
                l = l + F(rng.randrange(0, 4), 32) * basis_exceptional(s, i)
            if not condition_a(l, s):
                continue
            assert gamma_lower_bound(s, l) > 1
            accepted += 1
    print(
        "ACCEPTANCE 3 PASS: gamma 9/8 and 18/17 at the anticanonical class, "
        "gamma > 1 on 200 accepted random classes per degree"
    )


def test_acceptance_4_six_line_window():
    s = SurfaceModel(3)
    total = anticanonical(s) - anticanonical(s)
    for i in range(1, 7):
        total = total + basis_exceptional(s, i)
    for k in range(0, 121):
        x = F(k, 120)
        l = anticanonical(s) + x * total
        violation = ample_violation(l, s)
        if x >= 1:
            assert violation is not None
            continue
        assert violation is None
        v = verdict(s, l)
        if 0 < x <= F(1, 10):
            assert v.status == STATUS_SIX_LINE
            assert v.alpha_lower == 2 / (3 + 3 * x)
        else:
            assert v.status == STATUS_UNKNOWN
            assert v.alpha_lower is None
    just_above = F(1, 10) + F(1, 10**6)
    assert verdict(s, anticanonical(s) + just_above * total).status == STATUS_UNKNOWN
    print(
        "ACCEPTANCE 4 PASS: six-line verdict K-stable exactly on (0, 1/10], "
        "ample for x < 1 and not at x = 1"
    )


_FAREY6 = tuple(sorted({F(n, d) for d in range(1, 7) for n in range(0, d + 1)}))
_AVALS = tuple(x for x in reversed(_FAREY6) if x < 1)


def _nonincreasing_tuples(length):
    return list(combinations_with_replacement(_AVALS, length))


def _conic_section(s):
    return div(1, [0] * (s.r - 1) + [-1])


_P1P1_CURVES = {
    7: ((div(1, [-1, -1]),), div(1, [-1, 0])),
    6: ((div(0, [1, 0, 0]), div(1, [0, -1, -1])), div(1, [0, -1, 0])),
    5: (
        (div(0, [1, 0, 0, 0]), div(0, [0, 1, 0, 0]), div(1, [0, 0, -1, -1])),
        div(1, [0, 0, -1, 0]),
    ),
    4: (
        (
            div(1, [-1, -1, 0, 0, 0]),
            div(1, [-1, 0, -1, 0, 0]),
            div(1, [0, -1, -1, 0, 0]),
            div(2, [-1, -1, -1, -1, -1]),
        ),
        div(2, [-1, -1, -1, -1, 0]),
    ),
}


def _grid_contractions(degree):
    # synthetic fixtures, deliberately not produced by face_decompose
    s = SurfaceModel(degree)
    basis = tuple(basis_exceptional(s, i) for i in range(1, s.r + 1))
    for a in _nonincreasing_tuples(s.r):
        yield s, ContractionData(
            kind=KIND_TO_P2, delta=F(0), a=a, curveE=basis, curveC=None
        )
    f1_es = basis[:-1]
    f1_c = _conic_section(s)
    p1p1_es, p1p1_c = _P1P1_CURVES[degree]
    for delta in _FAREY6:
        for a in _nonincreasing_tuples(s.r - 1):
            yield s, ContractionData(
                kind=KIND_CONIC_F1, delta=delta, a=a, curveE=f1_es, curveC=f1_c
            )
            yield s, ContractionData(
                kind=KIND_CONIC_P1P1, delta=delta, a=a, curveE=p1p1_es, curveC=p1p1_c
            )


def test_acceptance_5_certificate_grid():
    start = time.perf_counter()
    checked = 0
    equalities = []
    for degree in (4, 5, 6, 7):
        for s, cd in _grid_contractions(degree):
            cert = certificate(s, cd)
            l = reconstruct(cd, s)
            rebuilt = l - l
            for cls, coeff in cert.divisor:
                assert coeff >= 0
                rebuilt = rebuilt + coeff * cls
            assert rebuilt == l
            slope = F(2, 3) * nu(l, s)
            if cert.bound == slope:
                equalities.append((degree, cd.kind, cd.a, cd.delta))
            else:
                assert cert.bound < slope
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 53469
    # one equality point in parameter space, hit once per contraction kind
    assert len(equalities) == 3
    for degree, _, a, delta in equalities:
        assert degree == 4 and delta == 0 and all(x == 0 for x in a)
    assert any(kind == KIND_TO_P2 for _, kind, _, _ in equalities)
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 5 PASS: {checked} certificates effective and exact over "
        f"the denominator-6 grid, bound < (2/3) nu away from the degree-4 "
        f"zero point, {elapsed:.1f}s"
    )


def test_acceptance_6_inequality_grid_oracle():
    start = time.perf_counter()
    report = grid_oracle(4, F(1))
    elapsed = time.perf_counter() - start
    assert report.total == 630
    assert report.failures == ()
    assert report.equality_points != ()
    for point in report.equality_points:
        assert point.a[0] == 0 and point.delta == 0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 6 PASS: 630-point inequality grid has no counterexample, "
        f"equality only at a1 = delta = 0, {elapsed:.1f}s"
    )


def test_acceptance_7_mu_cross_validation():
    rng = random.Random(77)
    width = F(1, 2**10)
    for degree in range(1, 9):
        s = SurfaceModel(degree)
        gens = mori_generators(s)
        k = canonical(s)
        for _ in range(100):
            l = anticanonical(s)
            for i in range(1, s.r + 1):
                l = l + F(rng.randrange(0, 16), 16) * basis_exceptional(s, i)
            l = F(rng.randrange(1, 7), rng.randrange(1, 7)) * l
            value = mu(l, s)
            lo, hi = mu_bisect(l, s, width)
            assert hi - lo <= width
            assert lo < value <= hi
            coeffs = cone_member(k + value * l, gens)
            assert coeffs is not None
            rebuilt = k - k
            for c, g in zip(coeffs, gens):
                rebuilt = rebuilt + c * g
            assert rebuilt == k + value * l
    print(
        "ACCEPTANCE 7 PASS: simplex mu lies in every bisection bracket of "
        "width 1/1024, memberships re-verified by substitution, 100 classes "
        "per degree"
    )


def test_acceptance_8_nef_dual_consistency():
    rng = random.Random(88)
    for degree in range(1, 9):
        s = SurfaceModel(degree)
        for _ in range(1000):
            h = F(rng.randrange(-8, 9), rng.randrange(1, 5))
            e = [F(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(s.r)]
            dv = div(h, e)
            assert is_nef(dv, s) == is_nef_lp(dv, s)
    print(
        "ACCEPTANCE 8 PASS: curve-product nef test agrees with the LP dual "
        "on 1000 random classes per degree"
    )

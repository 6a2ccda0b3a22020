import random
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.cones import (
    KIND_CONIC_F1,
    KIND_CONIC_P1P1,
    KIND_TO_P2,
    ContractionData,
    _chamber_mu,
    _face_data,
    ample_violation,
    face_decompose,
    is_ample,
    is_nef,
    is_nef_lp,
    mori_generators,
    mu,
    mu_bisect,
    reconstruct,
)
from kstab.curves import (
    _table_pairings,
    _tables,
    disjoint_sets,
    fiber_classes,
    minus_one_curves,
)
from kstab.errors import DomainError
from kstab.lattice import (
    SurfaceModel,
    _row_dot,
    anticanonical,
    basis_exceptional,
    basis_line,
    canonical,
    div,
    intersect,
    square,
    zero_class,
)

sys.path.insert(0, str(Path(__file__).parent))
from test_acceptance import (  # noqa: E402
    _FAREY6,
    _P1P1_CURVES,
    _conic_section,
    _nonincreasing_tuples,
)


def _nu(l, s):
    return intersect(anticanonical(s), l, s) / square(l, s)


def test_mori_generators_one_point():
    s = SurfaceModel(8)
    assert mori_generators(s) == [div(0, [1]), div(1, [-1])]


def test_anticanonical_is_nef_and_ample_everywhere():
    for d in range(1, 9):
        s = SurfaceModel(d)
        mk = anticanonical(s)
        assert is_nef(mk, s)
        assert is_ample(mk, s)
        assert ample_violation(mk, s) is None


def test_nef_threshold_on_cubic_one_point_family():
    s = SurfaceModel(3)
    for x, expect in [(Fraction(3, 5), True), (Fraction(3, 5) + Fraction(1, 100), False)]:
        l = anticanonical(s) + x * basis_exceptional(s, 1)
        dv = anticanonical(s) - Fraction(2, 3) * _nu(l, s) * l
        assert is_nef(dv, s) is expect


def test_negative_exceptional_not_nef():
    s = SurfaceModel(3)
    assert not is_nef(-basis_exceptional(s, 1), s)


def test_ample_cubic_symmetric_family():
    s = SurfaceModel(3)
    mk = anticanonical(s)
    six = sum((basis_exceptional(s, i) for i in range(2, 7)), basis_exceptional(s, 1))
    assert is_ample(mk + Fraction(1, 10) * six, s)
    assert not is_ample(mk + six, s)


def test_ruling_class_not_ample():
    s = SurfaceModel(3)
    dv = basis_line(s) - basis_exceptional(s, 1)
    assert not is_ample(dv, s)
    assert "self-intersection" in ample_violation(dv, s)


def test_one_point_negative_degenerate_class_not_ample():
    # positive square and positive product with E1 alone would pass; the
    # ruling generator H-E1 rules it out
    s = SurfaceModel(8)
    dv = div(-5, [-1])
    assert square(dv, s) > 0
    assert intersect(dv, basis_exceptional(s, 1), s) > 0
    assert not is_ample(dv, s)


def test_mu_anticanonical_is_one():
    for d in range(1, 9):
        s = SurfaceModel(d)
        assert mu(anticanonical(s), s) == 1


def test_mu_perturbed_anticanonical():
    s = SurfaceModel(4)
    l = anticanonical(s) + Fraction(1, 2) * basis_exceptional(s, 1)
    assert mu(l, s) == 1


def test_mu_scaling_law():
    s = SurfaceModel(5)
    l = anticanonical(s) + Fraction(1, 3) * basis_exceptional(s, 2)
    assert mu(2 * l, s) == mu(l, s) / 2


def test_mu_rejects_non_ample():
    s = SurfaceModel(3)
    with pytest.raises(DomainError):
        mu(basis_line(s) - basis_exceptional(s, 1), s)


def test_mu_nontrivial_value():
    # -K + (1/2)(H-E1) + (1/3)E1 on the two-point model absorbs at 6/7:
    # there K + (6/7)l = (1/7)E2 exactly
    s = SurfaceModel(7)
    l = (
        anticanonical(s)
        + Fraction(1, 2) * (basis_line(s) - basis_exceptional(s, 1))
        + Fraction(1, 3) * basis_exceptional(s, 1)
    )
    assert mu(l, s) == Fraction(6, 7)


def _weyl_mu(l):
    """mu(l) by the Weyl group, sharing no code with the library: sort the
    multiplicities b_i = -e_i of the row descending, then apply the Cremona
    step (h, b1, b2, b3) += d while d = h - b1 - b2 - b3 < 0.  In that
    chamber the nef classes H and H - E1 decide mu of the row, and
    mu(row / den) = den * mu(row)."""
    h, *b = l.row
    b = sorted((-x for x in b), reverse=True)
    while len(b) >= 3 and h - sum(b[:3]) < 0:
        d = h - sum(b[:3])
        h, b = h + d, sorted([x + d for x in b[:3]] + b[3:], reverse=True)
    return l.den * max(Fraction(3, h), Fraction(2, h - b[0]))


def _random_ample(rng, s, spread):
    """A random ample class with multiplicities in 1..spread over a prime
    denominator p > 1: h starts at the least value every (-1)-curve allows."""
    b = [rng.randint(1, spread) for _ in range(s.r)]
    bounds = [
        sum(x * -e for x, e in zip(b, c.row[1:])) // c.row[0]
        for c in minus_one_curves(s)
        if c.row[0]
    ]
    h = max(bounds, default=0) + 1 + rng.randint(0, spread)
    while not is_ample(div(h, [-x for x in b]), s):
        h += 1
    p = rng.choice([2, 3, 5, 7])
    h += h % p == 0  # gcd(p, row) = 1, so the class keeps denominator p
    return Fraction(1, p) * div(h, [-x for x in b])


def test_mu_matches_the_weyl_chamber_oracle():
    rng = random.Random(20261019)
    for d in range(1, 9):
        s = SurfaceModel(d)
        for spread in (3, 10, 40):
            for _ in range(16):
                l = _random_ample(rng, s, spread)
                assert l.den > 1 and is_ample(l, s)
                assert mu(l, s) == _weyl_mu(l), (d, l)


def _dominant(l):
    # b_1 >= ... >= b_r and h >= b_1 + b_2 + b_3, for b_i = -e_i
    h, *b = l.row
    b = [-x for x in b]
    return b == sorted(b, reverse=True) and h >= sum(b[:3])


def test_chamber_mu_matches_the_linear_program():
    # the oracle's classes, then W(E_r) images of each, which leave the
    # dominant chamber; _chamber_mu needs no LP, mu solves one
    from test_equivariance import _reflected, _simple_roots

    rng = random.Random(20261019)
    words = random.Random(19)
    outside = 0
    for d in range(1, 9):
        s = SurfaceModel(d)
        roots = _simple_roots(s)
        for spread in (3, 10, 40):
            for _ in range(16):
                l = _random_ample(rng, s, spread)
                value = mu(l, s)
                assert _chamber_mu(l, s) == value, (d, l)
                if not roots:
                    continue
                word = [words.choice(roots) for _ in range(words.randint(1, 30))]
                wl = _reflected(l, word, s)
                outside += not _dominant(wl)
                assert _chamber_mu(wl, s) == mu(wl, s) == value, (d, l, wl)
    assert outside >= 250, outside


def test_mu_tight_and_bracketed():
    rng = random.Random(3)
    for d in (4, 6, 8):
        s = SurfaceModel(d)
        for _ in range(5):
            l = anticanonical(s)
            for i in range(1, s.r + 1):
                l = l + Fraction(rng.randint(0, 3), 7) * basis_exceptional(s, i)
            if not is_ample(l, s):
                continue
            value = mu(l, s)
            lo, hi = mu_bisect(l, s)
            assert lo < value <= hi
            assert hi - lo <= Fraction(1, 1024)


def test_face_zero_case():
    # K + L = 0 takes the general search, whose first disjoint r-set is
    # E_1, ..., E_r in every degree
    for degree in range(1, 8):
        s = SurfaceModel(degree)
        base = tuple(basis_exceptional(s, i) for i in range(1, s.r + 1))
        expect = ContractionData(KIND_TO_P2, Fraction(0), (Fraction(0),) * s.r, base, None)
        assert face_decompose(anticanonical(s), s) == expect


def test_face_plane_contraction_degree4():
    s = SurfaceModel(4)
    l = (
        anticanonical(s)
        + Fraction(1, 3) * basis_exceptional(s, 1)
        + Fraction(1, 4) * basis_exceptional(s, 2)
    )
    data = face_decompose(l, s)
    assert data.kind == KIND_TO_P2
    assert data.delta == 0
    assert data.a == (Fraction(1, 3), Fraction(1, 4), 0, 0, 0)
    assert data.curveE == tuple(basis_exceptional(s, i) for i in range(1, 6))
    assert reconstruct(data, s) == l


def test_face_conic_f1_degree7():
    s = SurfaceModel(7)
    fiber = basis_line(s) - basis_exceptional(s, 2)
    l = (
        anticanonical(s)
        + Fraction(1, 2) * fiber
        + Fraction(1, 3) * basis_exceptional(s, 1)
    )
    data = face_decompose(l, s)
    assert data.kind == KIND_CONIC_F1
    assert data.delta == Fraction(1, 2)
    assert data.a == (Fraction(1, 3),)
    assert data.curveE == (basis_exceptional(s, 1),)
    assert data.curveC == fiber
    assert reconstruct(data, s) == l


def test_face_conic_zero_delta_degree7():
    # the fiber direction enters with coefficient zero yet the face is
    # still a conic-bundle face, not a plane one
    s = SurfaceModel(7)
    l = anticanonical(s) + Fraction(1, 4) * (
        basis_line(s) - basis_exceptional(s, 1) - basis_exceptional(s, 2)
    )
    data = face_decompose(l, s)
    assert data.kind == KIND_CONIC_P1P1
    assert data.delta == 0
    assert data.a == (Fraction(1, 4),)
    assert data.curveE == (basis_line(s) - basis_exceptional(s, 1) - basis_exceptional(s, 2),)
    assert data.curveC == basis_line(s) - basis_exceptional(s, 1)


def test_face_data_rejects_fiber_residuals_that_do_not_fit():
    s = SurfaceModel(7)
    e1, e2 = basis_exceptional(s, 1), basis_exceptional(s, 2)
    h = basis_line(s)
    # support H - E1 - E2; the residual -(1/3)(H - E1) is a negative
    # multiple of the one fiber that misses the support
    w = Fraction(1, 2) * (h - e1 - e2) - Fraction(1, 3) * (h - e1)
    assert _face_data(w, s, _table_pairings(w, _tables(7).line_table, s)) is None
    # support E2; the residual (1/3)(H - E1) + (1/5)E1 is no multiple of a
    # fiber missing E2
    w = Fraction(1, 2) * e2 + Fraction(1, 3) * (h - e1) + Fraction(1, 5) * e1
    assert _face_data(w, s, _table_pairings(w, _tables(7).line_table, s)) is None


_NOT_NORMALIZED = "face decomposition needs a normalized class"


def test_face_requires_normalized_input():
    s = SurfaceModel(7)
    l = (
        anticanonical(s)
        + Fraction(1, 2) * (basis_line(s) - basis_exceptional(s, 1))
        + Fraction(1, 3) * basis_exceptional(s, 1)
    )
    with pytest.raises(DomainError, match=_NOT_NORMALIZED):
        face_decompose(l, s)
    data = face_decompose(mu(l, s) * l, s)
    assert data.kind == KIND_TO_P2
    assert data.a == (Fraction(1, 7), 0)
    assert data.curveE == (basis_exceptional(s, 2), basis_exceptional(s, 1))
    for d in range(1, 8):
        s = SurfaceModel(d)
        mk = anticanonical(s)
        e1, er = basis_exceptional(s, 1), basis_exceptional(s, s.r)
        fiber = basis_line(s) - er
        for l in (mk, mk + Fraction(1, 3) * e1, mk + Fraction(1, 2) * fiber):
            assert mu(l, s) == 1
            for scale in (Fraction(1, 2), Fraction(3, 2)):
                with pytest.raises(DomainError, match=_NOT_NORMALIZED):
                    face_decompose(scale * l, s)


def test_face_rejects_degree8():
    s = SurfaceModel(8)
    with pytest.raises(DomainError):
        face_decompose(anticanonical(s), s)


def test_contraction_data_validation():
    s = SurfaceModel(7)
    e1 = basis_exceptional(s, 1)
    fiber = basis_line(s) - basis_exceptional(s, 2)
    with pytest.raises(DomainError):
        ContractionData("Quadric", Fraction(0), (), (), None)
    with pytest.raises(DomainError):
        ContractionData(KIND_TO_P2, Fraction(1, 2), (Fraction(0),), (e1,), None)
    with pytest.raises(DomainError):
        ContractionData(KIND_CONIC_F1, Fraction(1, 2), (Fraction(0),), (e1,), None)
    with pytest.raises(DomainError):
        ContractionData(KIND_TO_P2, Fraction(0), (Fraction(1),), (e1,), None)
    with pytest.raises(DomainError):
        ContractionData(
            KIND_TO_P2,
            Fraction(0),
            (Fraction(1, 4), Fraction(1, 2)),
            (e1, basis_exceptional(s, 2)),
            None,
        )
    with pytest.raises(DomainError):
        ContractionData(
            KIND_CONIC_F1, Fraction(0), (Fraction(1, 2),), (basis_exceptional(s, 2),), fiber
        )


def test_contraction_data_messages():
    # membership and disjointness run on integer rows; the texts name the
    # class as (h; e...), and half a line or half a fiber is neither
    s = SurfaceModel(7)
    e1, e2 = basis_exceptional(s, 1), basis_exceptional(s, 2)
    h = basis_line(s)
    zero = Fraction(0)
    half = Fraction(1, 2)
    cases = [
        (
            (KIND_TO_P2, zero, (zero,), (div(half, [-half, -half]),), None),
            "(1/2; -1/2, -1/2) is not an exceptional curve class",
        ),
        (
            (KIND_TO_P2, zero, (zero,), (h,), None),
            "(1; 0, 0) is not an exceptional curve class",
        ),
        (
            (KIND_CONIC_F1, zero, (zero,), (e1,), h - e1 - e2),
            "(1; -1, -1) is not a fiber class",
        ),
        (
            (KIND_CONIC_F1, zero, (zero,), (e1,), div(half, [0, -half])),
            "(1/2; 0, -1/2) is not a fiber class",
        ),
        (
            (KIND_TO_P2, zero, (zero, zero), (e1, h - e1 - e2), None),
            "contracted curves must be pairwise disjoint",
        ),
        (
            (KIND_CONIC_F1, zero, (zero,), (e1,), h - e1),
            "contracted curves must be pairwise disjoint",
        ),
    ]
    for args, message in cases:
        with pytest.raises(DomainError) as err:
            ContractionData(*args)
        assert str(err.value) == message
    good = ContractionData(KIND_CONIC_F1, half, (half,), (e1,), h - e2)
    assert [c.row for c in good.curveE] == [(0, 1, 0)] and good.curveC.row == (1, 0, -1)


def _weight_message(kind, delta, a, count):
    """The weight checks of ContractionData as they ran on Fractions: the
    message of the first that fails, or None."""
    if delta < 0:
        return "delta must be nonnegative"
    if len(a) != count:
        return "need one coefficient per contracted curve"
    if any(x < 0 for x in a):
        return "curve coefficients must be nonnegative"
    if any(x < y for x, y in zip(a, a[1:])):
        return "curve coefficients must be sorted nonincreasing"
    if a and a[0] >= 1:
        return "leading curve coefficient must stay below 1"
    if kind == KIND_TO_P2 and delta != 0:
        return "a plane contraction carries no fiber part"
    return None


def _weighted(kind, delta, a):
    """(message or None, data or None): ContractionData on the five disjoint
    E_i of degree 4, or on four of them and the fiber H - E5."""
    s = SurfaceModel(4)
    es = tuple(basis_exceptional(s, i) for i in range(1, 6))
    curves = (es, None) if kind == KIND_TO_P2 else (es[:4], basis_line(s) - es[4])
    try:
        return None, ContractionData(kind, delta, a, *curves)
    except DomainError as err:
        return str(err), None


def _check_weights(kind, delta, a):
    count = 5 if kind == KIND_TO_P2 else 4
    message, cd = _weighted(kind, delta, a)
    assert message == _weight_message(kind, delta, a, count)
    if cd is not None:
        q = lcm(*(x.denominator for x in (delta, *a)))
        assert cd._weights == (q, (delta * q).numerator, tuple((x * q).numerator for x in a))
    return message


def _near_unit(rng):
    # a rational in [-1/20, 21/20] over its own denominator of up to 10^6
    den = rng.randint(1, 10**6)
    return Fraction(rng.randint(-den // 20, den + den // 20), den)


def test_contraction_weights_checked_on_ints_match_fraction_checks():
    rng = random.Random(15)
    seen = Counter()
    for _ in range(2400):
        kind = rng.choice((KIND_TO_P2, KIND_CONIC_F1))
        count = (5 if kind == KIND_TO_P2 else 4) + rng.choice((0,) * 10 + (-1, 1))
        a = [_near_unit(rng) for _ in range(count)]
        if rng.random() < 0.8:
            a.sort(reverse=True)
        plane_zero = kind == KIND_TO_P2 and rng.random() < 0.7
        delta = Fraction(0) if plane_zero else _near_unit(rng)
        seen[_check_weights(kind, delta, tuple(a))] += 1
    assert len(seen) == 7 and min(seen.values()) >= 20  # every outcome, acceptance too
    # the boundaries: a_1 = 1 and just below it, equal weights written over
    # different denominators, delta just below 0
    tiny = Fraction(1, 10**6)
    third = (Fraction(1, 3), Fraction(2, 6), Fraction(333333, 999999), Fraction(1, 7))
    cases = [
        (KIND_CONIC_F1, Fraction(0), (Fraction(1), 0, 0, 0), "leading"),
        (KIND_CONIC_F1, Fraction(0), (1 - tiny, 0, 0, 0), None),
        (KIND_TO_P2, Fraction(0), (1 - tiny, 1 - tiny, tiny, tiny, 0), None),
        (KIND_CONIC_F1, Fraction(1, 2), third, None),
        (KIND_TO_P2, Fraction(0), third + (0,), None),
        (KIND_CONIC_F1, -tiny, third, "delta"),
        (KIND_TO_P2, -tiny, third + (0,), "delta"),
        (KIND_TO_P2, tiny, third + (0,), "a plane"),
    ]
    for kind, delta, a, start in cases:
        message = _check_weights(kind, delta, a)
        assert (message is None) if start is None else message.startswith(start)


def test_contraction_weights_leave_equality_hash_and_repr_alone():
    _, cd = _weighted(KIND_CONIC_F1, Fraction(1, 2), (Fraction(1, 3), Fraction(1, 6), 0, 0))
    _, same = _weighted(KIND_CONIC_F1, Fraction(3, 6), (Fraction(2, 6), Fraction(1, 6), 0, 0))
    assert cd == same and hash(cd) == hash(same)
    assert "_weights" not in repr(cd)
    assert repr(cd).startswith("ContractionData(kind='ConicBundleF1', delta=Fraction(1, 2), ")
    assert cd._weights == (6, 3, (2, 1, 0, 0))
    # the face search builds its record without the constructor; it is the
    # constructor's record on its fields, with the same hash and repr
    s = SurfaceModel(4)
    found = face_decompose(reconstruct(cd, s), s)
    public = ContractionData(found.kind, found.delta, found.a, found.curveE, found.curveC)
    assert found == public and hash(found) == hash(public)
    assert repr(found) == repr(public)
    assert (found.delta, found.a) == (cd.delta, cd.a)


def _row_checked_message(curveE, curveC):
    """The curve checks of ContractionData as they ran before the line
    indexes: each class looked up by its row and compared with the class
    found, then every pair of rows paired; the first message, or None."""
    classes = [*curveE, *([] if curveC is None else [curveC])]
    if not classes:
        return None
    degree = 9 - classes[0].rank
    tables = _tables(degree)
    lines, fibers = dict(zip(tables.rows, tables.lines)), tables.fibers
    for c in curveE:
        if lines.get(c.row) != c:
            return f"{c} is not an exceptional curve class"
    if curveC is not None and fibers.get(curveC.row) != curveC:
        return f"{curveC} is not a fiber class"
    rows = [c.row for c in classes]
    for i, u in enumerate(rows):
        for v in rows[i + 1 :]:
            if _row_dot(u, v) != 0:
                return "contracted curves must be pairwise disjoint"
    return None


def _curve_message(kind, curveE, curveC):
    """ContractionData's message for the curves at zero weights, or None."""
    zero = Fraction(0)
    try:
        ContractionData(kind, zero, (zero,) * len(curveE), tuple(curveE), curveC)
    except DomainError as err:
        return str(err)
    return None


_LINE_FAULTS = ("non-line", "half line", "repeated line", "meeting lines")
_FIBER_FAULTS = ("fiber meets a line", "non-fiber")


def _random_fiber_face(rng, s):
    while True:
        es = _random_disjoint(rng, s, s.r - 1)
        fibers = [f for f in fiber_classes(s) if all(intersect(f, c, s) == 0 for c in es)]
        if fibers:
            return es, rng.choice(fibers)


def _faulty_face(rng, s, faults):
    """(kind, curveE, curveC): a random boundary face of s, then each fault
    of faults made in a random place."""
    if any(f in _FIBER_FAULTS for f in faults) or rng.random() < 0.5:
        kind = rng.choice((KIND_CONIC_F1, KIND_CONIC_P1P1))
        es, fib = _random_fiber_face(rng, s)
    else:
        kind, es, fib = KIND_TO_P2, _random_disjoint(rng, s, s.r), None
    lines, fibers = minus_one_curves(s), fiber_classes(s)
    for fault in faults:
        i = rng.randrange(len(es))
        if fault == "non-line":
            es[i] = rng.choice((basis_line(s), rng.choice(fibers), es[i] + es[i], -es[i]))
        elif fault == "half line":
            es[i] = Fraction(1, 2) * es[i]
        elif fault == "repeated line":
            es.insert(rng.randrange(len(es) + 1), es[i])
        elif fault == "meeting lines":
            meets = [c for c in lines if c != es[i] and intersect(c, es[i], s) != 0]
            es.insert(rng.randrange(len(es) + 1), rng.choice(meets))
        elif fault == "fiber meets a line":
            meets = [c for c in lines if intersect(c, fib, s) != 0]
            es.insert(rng.randrange(len(es) + 1), rng.choice(meets))
        else:
            fib = rng.choice((rng.choice(lines), basis_line(s), Fraction(1, 2) * fib, 2 * fib))
    return kind, es, fib


def test_contraction_curve_checks_match_the_row_checks():
    # the index lookups and mask tests accept and reject as the row lookups
    # and pairwise products did, with the same first message
    rng = random.Random(17)
    seen = Counter()
    for _ in range(1200):
        s = SurfaceModel(rng.choice((3, 4, 5, 6, 7)))
        count = rng.choice((0, 1, 1, 1, 2))
        faults = rng.sample(_LINE_FAULTS + _FIBER_FAULTS, count)
        kind, es, fib = _faulty_face(rng, s, faults)
        message = _curve_message(kind, es, fib)
        assert message == _row_checked_message(es, fib), (faults, kind, es, fib)
        seen[message and message.split(" is ")[-1]] += 1
    assert set(seen) == {
        None,
        "not an exceptional curve class",
        "not a fiber class",
        "contracted curves must be pairwise disjoint",
    }
    assert min(seen.values()) >= 100


def test_contraction_curve_messages_keep_their_order():
    # every curveE is checked for membership, then the fiber, and only then
    # is disjointness tested, whatever faults coincide
    s = SurfaceModel(6)
    e1, e2, e3 = (basis_exceptional(s, i) for i in (1, 2, 3))
    h = basis_line(s)
    meets = h - e1 - e2  # meets E1 and E2
    half = Fraction(1, 2) * e3
    no_line = "is not an exceptional curve class"
    cases = [
        ((e1, meets, h), None, f"(1; 0, 0, 0) {no_line}"),
        ((e1, e1, half), None, f"(0; 0, 0, 1/2) {no_line}"),
        ((e1, meets), h, "(1; 0, 0, 0) is not a fiber class"),
        ((e1, h), h, f"(1; 0, 0, 0) {no_line}"),
        ((e1, meets, e3), None, "contracted curves must be pairwise disjoint"),
        ((e1, e1), h - e1, "contracted curves must be pairwise disjoint"),
        ((half, e1), 2 * (h - e3), f"(0; 0, 0, 1/2) {no_line}"),
        ((e1, e2), Fraction(1, 2) * (h - e3), "(1/2; 0, 0, -1/2) is not a fiber class"),
    ]
    for curves, fib, message in cases:
        kind = KIND_TO_P2 if fib is None else KIND_CONIC_F1
        assert _curve_message(kind, curves, fib) == message
        assert _row_checked_message(curves, fib) == message


def test_reconstruct_reads_the_row_combined_once(monkeypatch):
    # ContractionData combines its class's row once; reconstruct only
    # checks the rank and builds the class, so it combines no rows
    rng = random.Random(29)
    data = []
    for _ in range(120):
        s = SurfaceModel(rng.choice((4, 5, 6, 7)))
        dens = rng.choices((1, 6, 7), k=s.r)
        a = sorted((Fraction(rng.randrange(d), d) for d in dens), reverse=True)
        if rng.random() < 0.5:
            kind, delta, (es, fib) = KIND_TO_P2, Fraction(0), (_random_disjoint(rng, s, s.r), None)
        else:
            kind, delta = KIND_CONIC_F1, Fraction(rng.randrange(5), 3)
            (es, fib), a = _random_fiber_face(rng, s), a[1:]
        cd = ContractionData(kind, delta, tuple(a), tuple(es), fib)
        expected = anticanonical(s) + sum((x * c for x, c in zip(a, es)), zero_class(s))
        data.append((s, cd, expected if fib is None else expected + delta * fib))
    monkeypatch.setattr(
        "kstab.cones._row_combination", lambda terms: pytest.fail("rows combined again")
    )
    for s, cd, expected in data:
        assert reconstruct(cd, s) == expected
        with pytest.raises(DomainError, match=f"rank mismatch: {s.r + 1} vs {s.r}"):
            reconstruct(cd, SurfaceModel(s.degree - 1))
    monkeypatch.undo()
    # with no curves the class is -K, combined when it is asked for
    empty = ContractionData(KIND_TO_P2, Fraction(0), (), (), None)
    assert empty._row is None
    for d in range(1, 9):
        assert reconstruct(empty, SurfaceModel(d)) == anticanonical(SurfaceModel(d))


def _random_class(rng, s, denom=6, lo=-3, hi=3):
    h = Fraction(rng.randint(lo, hi), rng.randint(1, denom))
    e = [Fraction(rng.randint(lo, hi), rng.randint(1, denom)) for _ in range(s.r)]
    return div(h, e)


def test_nef_routes_agree_on_random_classes():
    rng = random.Random(11)
    for d in (3, 6, 8):
        s = SurfaceModel(d)
        for _ in range(60):
            dv = _random_class(rng, s)
            assert is_nef(dv, s) == is_nef_lp(dv, s)
    for nef in (is_nef, is_nef_lp):
        with pytest.raises(DomainError):
            nef(div(1, [0]), SurfaceModel(5))


@settings(max_examples=40, derandomize=True)
@given(
    x=st.fractions(min_value=0, max_value=Fraction(7, 8), max_denominator=8),
    y=st.fractions(min_value=0, max_value=Fraction(7, 8), max_denominator=8),
)
def test_face_roundtrip_degree6(x, y):
    s = SurfaceModel(6)
    l = (
        anticanonical(s)
        + x * basis_exceptional(s, 1)
        + y * basis_exceptional(s, 2)
    )
    data = face_decompose(l, s)
    assert data.kind == KIND_TO_P2
    assert reconstruct(data, s) == l
    assert data.a == tuple(sorted((x, y, Fraction(0)), reverse=True))


def _sorted_data(kind, delta, coeffs, subset, fib):
    order = sorted(zip(coeffs, subset), key=lambda p: (-p[0], p[1].sort_key()))
    return ContractionData(
        kind, delta, tuple(p[0] for p in order), tuple(p[1] for p in order), fib
    )


def _face_scan(l, s):
    """The exhaustive search face_decompose replaced, kept as its oracle:
    mu(l) must be 1; then the first disjoint r-set of (-1)-curves carrying
    K + l, else the first disjoint (r-1)-set and fiber class.  Curves with
    w.c > 0 would get a negative coefficient, so the sets are drawn from
    the rest, which keeps their relative order."""
    if mu(l, s) != 1:
        raise DomainError(_NOT_NORMALIZED)
    w = l + canonical(s)
    if w.is_zero():
        base = tuple(basis_exceptional(s, i) for i in range(1, s.r + 1))
        return ContractionData(KIND_TO_P2, Fraction(0), (Fraction(0),) * s.r, base, None)
    lines = [c for c in minus_one_curves(s) if intersect(w, c, s) <= 0]
    for subset in disjoint_sets(lines, s.r, s):
        coeffs = [-intersect(w, c, s) for c in subset]
        if sum((x * c for x, c in zip(coeffs, subset)), zero_class(s)) == w:
            return _sorted_data(KIND_TO_P2, Fraction(0), coeffs, subset, None)
    for subset in disjoint_sets(lines, s.r - 1, s):
        coeffs = [-intersect(w, c, s) for c in subset]
        resid = w - sum((x * c for x, c in zip(coeffs, subset)), zero_class(s))
        for fib in fiber_classes(s):
            if any(intersect(fib, c, s) != 0 for c in subset):
                continue
            delta = resid.h / fib.h
            if delta < 0 or resid != delta * fib:
                continue
            section = any(
                intersect(v, fib, s) == 1 and all(intersect(v, c, s) == 0 for c in subset)
                for v in minus_one_curves(s)
            )
            kind = KIND_CONIC_F1 if section else KIND_CONIC_P1P1
            return _sorted_data(kind, delta, coeffs, subset, fib)
    return None


def _agrees_with_scan(l, s):
    """face_decompose(l, s) checked against the scan; None when both
    reject l as not normalized."""
    try:
        expect = _face_scan(l, s)
    except DomainError:
        with pytest.raises(DomainError, match=_NOT_NORMALIZED):
            face_decompose(l, s)
        return None
    assert face_decompose(l, s) == expect
    return expect


def _grid_sample(degree, stride):
    """Every stride-th class of the acceptance-5 certificate grid."""
    s = SurfaceModel(degree)
    basis = tuple(basis_exceptional(s, i) for i in range(1, s.r + 1))
    faces = [
        (basis, None, (Fraction(0),)),
        (basis[:-1], _conic_section(s), _FAREY6),
        _P1P1_CURVES[degree] + (_FAREY6,),
    ]
    index = 0
    for curves, fib, deltas in faces:
        for delta in deltas:
            for a in _nonincreasing_tuples(len(curves)):
                if index % stride == 0:
                    l = anticanonical(s) + sum((x * c for x, c in zip(a, curves)), zero_class(s))
                    yield s, l if fib is None else l + delta * fib
                index += 1


def test_face_matches_scan_on_certificate_grid_classes():
    # subsampled, with rescaled copies of every fifth class
    kinds = []
    for degree in (4, 5, 6, 7):
        for index, (s, l) in enumerate(_grid_sample(degree, 97)):
            kinds.append(_agrees_with_scan(l, s).kind)
            if index % 5 == 0:
                assert _agrees_with_scan(Fraction(3, 2) * l, s) is None
    assert len(kinds) > 500
    assert set(kinds) == {KIND_TO_P2, KIND_CONIC_F1, KIND_CONIC_P1P1}


def _random_disjoint(rng, s, k):
    lines = minus_one_curves(s)
    while True:
        chosen = []
        for c in rng.sample(lines, len(lines)):
            if all(intersect(c, e, s) == 0 for e in chosen):
                chosen.append(c)
        if len(chosen) >= k:
            return chosen[:k]


def _random_face_class(rng, s):
    """-K + delta*C + sum(a_i E_i) over a random disjoint set and fiber."""
    if rng.random() < 0.5:
        subset, fib = _random_disjoint(rng, s, s.r), None
    else:
        while True:
            subset = _random_disjoint(rng, s, s.r - 1)
            fibers = [
                f for f in fiber_classes(s) if all(intersect(f, c, s) == 0 for c in subset)
            ]
            if fibers:
                break
        fib = rng.choice(fibers)
    l = anticanonical(s)
    for c in subset:
        l = l + Fraction(rng.randrange(0, 6), 6) * c
    if fib is not None:
        l = l + Fraction(rng.randrange(0, 4), 3) * fib
    return l


def test_face_matches_scan_in_low_degrees():
    rng = random.Random(23)
    for d in (2, 3, 1):
        s = SurfaceModel(d)
        kinds = []
        for _ in range(30):
            l = _random_face_class(rng, s)
            if is_ample(l, s):
                kinds.append(_agrees_with_scan(l, s).kind)
        assert len(kinds) >= 20
        assert set(kinds) == {KIND_TO_P2, KIND_CONIC_F1, KIND_CONIC_P1P1}
        assert _agrees_with_scan(Fraction(1, 2) * anticanonical(s), s) is None

"""Effective divisor certificates bounding the alpha invariant from above.

Given a normalized polarization's boundary-face data (degree 4 to 7), emit
an explicit effective combination of concrete curve classes that is
rationally equivalent to the polarization.  The largest coefficient in the
combination bounds the alpha invariant: alpha <= 1 / max coefficient.  The
certificate is machine-checkable: the class identity, the coefficient signs
and the bound are all re-verified exactly before it is returned.

Every named auxiliary curve (lines through two of the blown-down points,
the conic through five of them, fiber and section classes, the diagonal
type curves) is realized as an explicit integer row (h, e_1, ..., e_r) and
looked up among the enumerated curves before use; the lookup hands back
the curve's class for the output.  Only the coefficients, computed from
the contraction data, are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import appendix
from .cones import (
    KIND_CONIC_F1,
    KIND_CONIC_P1P1,
    KIND_TO_P2,
    ContractionData,
    reconstruct,
)
from .curves import _fiber_index, _line_index
from .errors import DomainError, InvariantError
from .lattice import (
    DivClass,
    Rational,
    SurfaceModel,
    _anticanonical_row,
    _combine_rows,
    _from_row,
    _row_dot,
    _row_less,
    _row_sum,
)

# subset families for the improvement step, as index tuples into
# (a2, a3, a4[, a5]); order matters: ties resolve to the earliest entry
TWELVE_SUM_FAMILY = (
    (0,),
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 2),
    (1, 3),
    (2, 3),
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 3),
    (1, 2, 3),
    (0, 1, 2, 3),
)
FIVE_SUM_FAMILY = ((0,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def largest_admissible_sum(values, family) -> Fraction:
    """Largest family subset-sum of values not exceeding 1 (0 if none)."""
    return _largest_with_subset(values, family)[0]


def _largest_with_subset(values, family):
    if any(v < 0 for v in values):
        raise DomainError("subset-sum values must be nonnegative")
    best = Fraction(0)
    best_subset = ()
    for subset in family:
        total = sum((values[i] for i in subset), Fraction(0))
        if total <= 1 and total > best:
            best = total
            best_subset = subset
    return best, best_subset


@dataclass(frozen=True)
class Certificate:
    """An effective decomposition with its alpha bound.

    divisor lists (curve class, coefficient) pairs; witness_index points at
    a maximal-coefficient component and bound is its reciprocal.
    """

    divisor: tuple[tuple[DivClass, Rational], ...]
    witness_index: int
    bound: Rational

    def __post_init__(self):
        if not self.divisor:
            raise DomainError("certificate needs at least one component")
        coeffs = [c for _, c in self.divisor]
        if any(c < 0 for c in coeffs):
            raise DomainError("certificate coefficients must be nonnegative")
        if not 0 <= self.witness_index < len(self.divisor):
            raise DomainError("witness index out of range")
        top = max(coeffs)
        if coeffs[self.witness_index] != top:
            raise DomainError("witness must carry a maximal coefficient")
        if self.bound != Fraction(1) / top:
            raise DomainError("bound must be the reciprocal of the top coefficient")


def verify_certificate(cert: Certificate, l: DivClass, s: SurfaceModel) -> None:
    """Exact recheck of the class identity; raises on failure."""
    terms = []
    for cls, coeff in cert.divisor:
        if cls.rank != s.r:
            raise DomainError(f"rank mismatch: {s.r} vs {cls.rank}")
        terms.append((cls.row, Fraction(coeff, cls.den)))
    _check_identity(terms, l)


def _check_identity(terms, l: DivClass) -> None:
    """sum(coeff * row) over (integer row, coeff) terms must equal the class
    l, summed as integers over a common denominator."""
    if _from_row(*_combine_rows(terms)) != l:
        raise InvariantError("certificate divisor does not reconstruct the class")


def _finish(parts, l: DivClass, s) -> Certificate:
    """The certificate of (integer row, coefficient) parts, each row a
    (-1)-curve; l is the class they must sum to."""
    lines = _line_index(s.degree)
    kept = []
    for row, coeff in parts:
        if coeff < 0:
            raise InvariantError(
                f"negative coefficient {coeff} generated for {lines[row]}; case selection bug"
            )
        if coeff != 0:
            kept.append((row, Fraction(coeff)))
    top = max(c for _, c in kept)
    witness = next(i for i, (_, c) in enumerate(kept) if c == top)
    cert = Certificate(
        tuple((lines[row], c) for row, c in kept), witness, Fraction(1) / top
    )
    _check_identity(kept, l)
    return cert


def _class_str(row) -> str:
    return str(_from_row(1, row))


def _as_line(row, s: SurfaceModel, label: str) -> tuple[int, ...]:
    if row not in _line_index(s.degree):
        raise InvariantError(
            f"{label} realized as {_class_str(row)} is not an exceptional curve"
        )
    return row


def _as_fiber(row, s: SurfaceModel, label: str) -> tuple[int, ...]:
    if row not in _fiber_index(s.degree):
        raise InvariantError(f"{label} realized as {_class_str(row)} is not a fiber class")
    return row


def _divided(row, n: int, label: str) -> tuple[int, ...]:
    """row / n, or InvariantError when that is not integral.

    A face contracts S onto P2, F1 or P1 x P1, where M = -K + sum(E_i) over
    the contracted curves is 3*ell, 2*sigma + 3C or 2C + 2G (Manin, Cubic
    Forms, ch. IV).  Contracting r - 1 disjoint lines that miss the fiber C
    leaves a degree-8 surface, whose only (-1)-curve missing them is sigma
    on F1, with none on P1 x P1.  As C is primitive, M has an odd entry
    exactly on F1; there 3*ell = M + sigma = 3*sigma + 3C, so C = ell - sigma
    once both divisions are exact.
    """
    if any(x % n for x in row):
        raise InvariantError(f"{label} is not integral")
    return tuple(x // n for x in row)


def _plane_pullback(s: SurfaceModel, points) -> tuple[int, ...]:
    """The hyperplane class of the plane model contracting the given curves.

    Solved from -K = 3*ell - sum(points); verified to behave like a line:
    square 1, degree 3 against -K, disjoint from every contracted curve.
    """
    anti = _anticanonical_row(s)
    ell = _divided(_row_sum(anti, *points), 3, "plane hyperplane class")
    if _row_dot(ell, ell) != 1 or _row_dot(anti, ell) != 3:
        raise InvariantError("plane hyperplane class has wrong invariants")
    for c in points:
        if _row_dot(ell, c) != 0:
            raise InvariantError("plane hyperplane class meets a contracted curve")
    return ell


def _five_point_parts(s, ell, es5, a5, n_value, subset, delta):
    """Shared degree-4 pattern over a plane model with five base points.

    es5/a5 hold the rows of the five contracted curves and their
    coefficients (the fifth may be a section curve with coefficient zero).
    subset indexes (a2..a5) entries whose sum is n_value.  delta > 0 shifts
    the E1 and L15 coefficients, absorbing delta copies of the fiber
    C = E1 + L15.
    """
    z = _as_line(_row_less(tuple(2 * x for x in ell), *es5), s, "the five-point conic")
    lines = [
        _as_line(_row_less(ell, es5[0], es5[j]), s, f"the line through points 1,{j + 1}")
        for j in range(1, 5)
    ]
    parts = [
        (es5[0], (3 + 2 * a5[0] + 2 * delta + n_value) / 2),
        (z, (1 - n_value) / 2),
    ]
    for j in range(1, 5):
        coeff = (1 + n_value - 2 * a5[j]) / 2 if j - 1 in subset else (1 + n_value) / 2
        if j == 4:
            coeff = coeff + delta
        parts.append((lines[j - 1], coeff))
    for j in range(1, 5):
        if j - 1 not in subset:
            parts.append((es5[j], a5[j]))
    return parts


def _plane_parts(s, cd):
    es = tuple(e.row for e in cd.curveE)
    a = cd.a
    ell = _plane_pullback(s, es)
    if s.degree == 4:
        n_value, subset = _largest_with_subset(a[1:], TWELVE_SUM_FAMILY)
        return _five_point_parts(s, ell, es, a, n_value, subset, Fraction(0))
    lines = [
        _as_line(_row_less(ell, es[0], es[j]), s, f"the line through points 1,{j + 1}")
        for j in range(1, s.r)
    ]
    if s.degree == 7:
        return [(lines[0], Fraction(3)), (es[0], 2 + a[0]), (es[1], 2 + a[1])]
    if s.degree == 6:
        return [
            (lines[0], Fraction(2)),
            (lines[1], Fraction(1)),
            (es[0], 2 + a[0]),
            (es[1], 1 + a[1]),
            (es[2], a[2]),
        ]
    # degree 5
    return [
        (lines[0], Fraction(1)),
        (lines[1], Fraction(1)),
        (lines[2], Fraction(1)),
        (es[0], 2 + a[0]),
        (es[1], a[1]),
        (es[2], a[2]),
        (es[3], a[3]),
    ]


def _f1_parts(s, cd):
    es = tuple(e.row for e in cd.curveE)
    c = cd.curveC.row
    a = cd.a
    delta = cd.delta
    m = _row_sum(_anticanonical_row(s), *es)
    v = _as_line(_divided(_row_less(m, c, c, c), 2, "section curve"), s, "the section")
    ell = _plane_pullback(s, es + (v,))
    if s.degree == 4:
        n_value, subset = _largest_with_subset(a[1:], FIVE_SUM_FAMILY)
        return _five_point_parts(
            s, ell, es + (v,), a + (Fraction(0),), n_value, subset, delta
        )
    l1v = _as_line(_row_less(ell, es[0], v), s, "the line through point 1 and the section")
    if s.degree == 7:
        return [(l1v, 3 + delta), (es[0], 2 + delta + a[0]), (v, Fraction(2))]
    l12 = _as_line(_row_less(ell, es[0], es[1]), s, "the line through points 1,2")
    if s.degree == 6:
        return [
            (l12, Fraction(2)),
            (l1v, 1 + delta),
            (es[0], 2 + delta + a[0]),
            (es[1], 1 + a[1]),
        ]
    # degree 5
    l13 = _as_line(_row_less(ell, es[0], es[2]), s, "the line through points 1,3")
    return [
        (l12, Fraction(1)),
        (l13, Fraction(1)),
        (l1v, 1 + delta),
        (es[0], 2 + delta + a[0]),
        (es[1], a[1]),
        (es[2], a[2]),
    ]


def _other_ruling(s: SurfaceModel, es, c) -> tuple[int, ...]:
    """The second ruling class G, from -K = 2C + 2G - sum(E)."""
    m = _row_sum(_anticanonical_row(s), *es)
    g = _divided(_row_less(m, c, c), 2, "second ruling class")
    if _row_dot(g, g) != 0 or _row_dot(g, c) != 1:
        raise InvariantError("second ruling class has wrong invariants")
    for e in es:
        if _row_dot(g, e) != 0:
            raise InvariantError("second ruling class meets a contracted curve")
    return _as_fiber(g, s, "the second ruling")


def _p1p1_parts(s, cd):
    es = tuple(e.row for e in cd.curveE)
    c = cd.curveC.row
    a = cd.a
    delta = cd.delta
    g = _other_ruling(s, es, c)
    f1 = _as_line(_row_less(c, es[0]), s, "the first-ruling fiber through point 1")
    f1p = _as_line(_row_less(g, es[0]), s, "the second-ruling fiber through point 1")
    if s.degree == 7:
        return [(es[0], 3 + a[0] + delta), (f1, 2 + delta), (f1p, Fraction(2))]
    if s.degree == 6:
        f2 = _as_line(_row_less(c, es[1]), s, "the first-ruling fiber through point 2")
        f2p = _as_line(_row_less(g, es[1]), s, "the second-ruling fiber through point 2")
        return [
            (es[0], 2 + delta + a[0]),
            (es[1], a[1]),
            (f1, Fraction(3, 2) + delta),
            (f1p, Fraction(3, 2)),
            (f2, Fraction(1, 2)),
            (f2p, Fraction(1, 2)),
        ]
    c_plus_g = _row_sum(c, g)
    if s.degree == 5:
        t = _as_line(
            _row_less(c_plus_g, es[0], es[1], es[2]), s, "the diagonal through points 1,2,3"
        )
        return [
            (es[0], 2 + delta + a[0]),
            (es[1], a[1]),
            (es[2], a[2]),
            (f1, 1 + delta),
            (f1p, Fraction(1)),
            (t, Fraction(1)),
        ]
    # degree 4: four-case split, tested in order; the chosen subset's sum
    # joins the E1 coefficient and the leftover E's keep their own terms
    a2, a3, a4 = a[1], a[2], a[3]
    if a2 + a3 <= 1 + a4:
        chosen = (1, 2, 3)
    elif a2 + a4 <= 1:
        chosen = (1, 3)
    elif a3 + a4 <= 1:
        chosen = (2, 3)
    else:
        chosen = (1,)
    s_value = sum((a[i] for i in chosen), Fraction(0))
    parts = [
        (es[0], (3 + 2 * a[0] + 2 * delta + s_value) / 2),
        (f1, (1 + 2 * delta + s_value) / 2),
        (f1p, (1 + s_value) / 2),
    ]
    for pair in ((1, 2), (1, 3), (2, 3)):
        t = _as_line(
            _row_less(c_plus_g, es[0], es[pair[0]], es[pair[1]]),
            s,
            f"the diagonal through points 1,{pair[0] + 1},{pair[1] + 1}",
        )
        signed = sum(
            (-a[i] if i in pair else a[i] for i in chosen), Fraction(0)
        )
        parts.append((t, (1 + signed) / 2))
    for i in (1, 2, 3):
        if i not in chosen:
            parts.append((es[i], a[i]))
    return parts


def certificate(s: SurfaceModel, cd: ContractionData) -> Certificate:
    """The lemma-prescribed effective decomposition for degree 4 to 7."""
    if s.degree not in (4, 5, 6, 7):
        raise DomainError("certificates exist for degree 4 to 7 only")
    l = reconstruct(cd, s)
    if cd.kind == KIND_TO_P2:
        parts = _plane_parts(s, cd)
    elif cd.kind == KIND_CONIC_F1:
        parts = _f1_parts(s, cd)
    elif cd.kind == KIND_CONIC_P1P1:
        parts = _p1p1_parts(s, cd)
    else:
        raise DomainError(f"unknown contraction kind {cd.kind!r}")
    return _finish(parts, l, s)


def compare_with_slope(s: SurfaceModel, cd: ContractionData, cert: Certificate) -> dict:
    """Exact comparison of the certificate bound with (2/3) times the slope.

    Strict on all valid inputs except degree 4 with a = 0 and delta = 0,
    where the two sides agree exactly.  For degree 4 the comparison is
    delegated to the standalone inequality module as an independent check
    and both routes must agree.
    """
    # l = row / den, so -K.l = (-K.row) / den and l^2 = (row.row) / den^2
    l = reconstruct(cd, s)
    slope = Fraction(
        2 * l.den * _row_dot(_anticanonical_row(s), l.row), 3 * _row_dot(l.row, l.row)
    )
    strict = cert.bound < slope
    equality = cert.bound == slope
    if s.degree == 4:
        padded = tuple(cd.a) + (Fraction(0),) * (5 - len(cd.a))
        checked = appendix.prop_a1(appendix.AppendixInput(padded, cd.delta))
        if cd.kind == KIND_CONIC_P1P1:
            agree = checked["ineq2"] and (checked["strict2"] == strict)
            if checked["piecewise"] != cert.bound:
                raise InvariantError("piecewise value disagrees with the certificate")
        else:
            agree = checked["ineq1"] and (checked["strict1"] == strict)
        if not agree:
            raise InvariantError("independent inequality check disagrees")
        expect_equality = cd.delta == 0 and all(x == 0 for x in cd.a)
        if equality != expect_equality or strict == equality:
            raise InvariantError("equality characterization violated")
    else:
        if not strict:
            raise InvariantError("bound must be strictly below the slope threshold")
    return {"strict": strict, "equality": equality}

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
looked up among the enumerated curves before use, once per ordered face,
in the cached tables of named curves, keyed on the degree; the lookup
hands back the curve's class for the output.  The coefficients are ints
too: the a_i and delta go over one denominator Q, every coefficient,
subset sum and case test is computed over ints, and the class identity is
one cross-multiplied integer sum.  Only then are the certificate's
rational coefficients n / Q and its bound built.

The builders and the slope comparison read a face as ints, off the one
face record ``ContractionData``: its kind, its line rows in weight order,
its fiber row, its ``_weights`` (q, q * delta, (q * a_i, ...)) and its
class row ``_row`` over q, through ``cones._class_row``, which keeps
``reconstruct``'s rank check.  A ``check`` hands over the record its face
search built, so both routes share ``certificate`` and
``compare_with_slope``, and neither turns a face into Fractions and back;
the class identity still runs.  In degree 4 the comparison is decided
again, from the same integer weights, by ``appendix._decide``, which
derives both margins itself: its strictness must match, and on a P1 x P1
face its piecewise value must equal the certificate's bound, one
cross-multiplication.

There is one plane lemma: degree 4 takes a five-point pattern, and degrees
5 to 7 one formula over per-degree line weights.  F1 is P2 blown up at one
point, so an F1 face is a plane face over its curves and the section,
which carries weight 0.  The builders work at delta = 0: on a conic face
the fiber C = E1 + (C - E1) through point 1 carries delta, and _parts adds
it to those two parts once the builder returns, reading C - E1 from the
face's named curves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import appendix
from .cones import (
    KIND_CONIC_F1,
    KIND_CONIC_P1P1,
    KIND_TO_P2,
    ContractionData,
    _class_row,
)
from .curves import _tables
from .errors import DomainError, InvariantError
from .lattice import (
    DivClass,
    Rational,
    SurfaceModel,
    _anticanonical_row,
    _exact_all,
    _from_row,
    _is_int,
    _Record,
    _row_combination,
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


def largest_admissible_sum(values, family) -> Fraction:
    """Largest family subset-sum of values not exceeding 1 (0 if none).
    The values are read as lattice.rational reads them, and every index of
    the family must name one."""
    values = _exact_all((*values,))
    if any(not 0 <= i < len(values) for subset in family for i in subset):
        raise DomainError(f"a family subset indexes past the {len(values)} values")
    q = lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (q // v.denominator) for v in values]
    return Fraction(_largest_subset_sum(scaled, family, q)[0], q)


def _largest_subset_sum(values, family, one):
    """(best, subset) for the int values: the largest family subset-sum not
    exceeding one, from the earliest subset reaching it ((0, ()) if none
    is positive)."""
    if min(values, default=0) < 0:
        raise DomainError("subset-sum values must be nonnegative")
    best, best_subset = 0, ()
    for subset in family:
        total = 0
        for i in subset:
            total += values[i]
        if best < total <= one:
            best, best_subset = total, subset
    return best, best_subset


class Certificate(_Record):
    """An effective decomposition with its alpha bound.

    divisor lists (curve class, coefficient) pairs; witness_index points at
    a maximal-coefficient component and bound is its reciprocal.  The
    coefficients and the bound are read as lattice.rational reads them.
    """

    _fields = ("divisor", "witness_index", "bound")

    def __init__(self, divisor, witness_index: int, bound: Rational):
        if not divisor:
            raise DomainError("certificate needs at least one component")
        classes, coeffs = zip(*divisor)
        *coeffs, bound = _exact_all((*coeffs, bound))
        divisor = tuple(zip(classes, coeffs))
        vars(self).update(divisor=divisor, witness_index=witness_index, bound=bound)
        _check_bound(coeffs, witness_index, bound)


def _check_bound(coeffs, witness_index, bound) -> None:
    """The coefficients are nonnegative, the witness carries a maximal one
    and the bound is its reciprocal, else DomainError."""
    if any(c < 0 for c in coeffs):
        raise DomainError("certificate coefficients must be nonnegative")
    if not (_is_int(witness_index) and 0 <= witness_index < len(coeffs)):
        raise DomainError("witness index out of range")
    top = max(coeffs)
    if coeffs[witness_index] != top:
        raise DomainError("witness must carry a maximal coefficient")
    if bound * top != 1:
        raise DomainError("bound must be the reciprocal of the top coefficient")


def verify_certificate(cert: Certificate, l: DivClass, s: SurfaceModel) -> None:
    """Exact recheck of a certificate for l; raises on failure.

    Each component must be a (-1)-curve of the degree of s, so the divisor
    is effective, and the constructor's checks of the coefficients, the
    witness and the bound run again (DomainError); the divisor must then
    sum to l (InvariantError).
    """
    if l.rank != s.r:
        raise DomainError(f"rank mismatch: {s.r} vs {l.rank}")
    index = _tables(s.degree).index
    for cls, _ in cert.divisor:
        if cls.rank != s.r:
            raise DomainError(f"rank mismatch: {s.r} vs {cls.rank}")
        if cls.den != 1 or cls.row not in index:
            raise DomainError(f"{cls} is not a (-1)-curve of degree {s.degree}")
    _check_bound([c for _, c in cert.divisor], cert.witness_index, cert.bound)
    # each component is integral: coeff * row = n * row / D over D the lcm
    # of the coefficients' denominators
    den = lcm(*(c.denominator for _, c in cert.divisor))
    terms = [(cls.row, c.numerator * (den // c.denominator)) for cls, c in cert.divisor]
    _check_identity(terms, den, l.row, l.den)


def _check_identity(terms, den: int, l_row, l_den: int) -> None:
    """sum(n * row) / den over (integer row, int n) terms must equal the
    class l_row / l_den: one cross-multiplied integer sum."""
    if [l_den * x for x in _row_combination(terms)] != [den * x for x in l_row]:
        raise InvariantError("certificate divisor does not reconstruct the class")


def _finish(parts, one: int, l_row, l_den: int, degree: int) -> Certificate:
    """The certificate of (integer row, n) parts, each row a (-1)-curve with
    coefficient n / one; l_row / l_den is the class they must sum to."""
    tables = _tables(degree)
    lines, index = tables.lines, tables.index
    kept = []
    for row, n in parts:
        if n < 0:
            raise InvariantError(
                f"negative coefficient {Fraction(n, one)} generated for {lines[index[row]]}; "
                "case selection bug"
            )
        if n:
            kept.append((row, n))
    if not kept:
        raise InvariantError("certificate has no nonzero component")
    top = max(n for _, n in kept)
    witness = next(i for i, (_, n) in enumerate(kept) if n == top)
    _check_identity(kept, one, l_row, l_den)
    # every check of Certificate.__init__ holds here, so it is not rerun
    cert = object.__new__(Certificate)
    divisor = tuple((lines[index[row]], Fraction(n, one)) for row, n in kept)
    vars(cert).update(divisor=divisor, witness_index=witness, bound=Fraction(one, top))
    return cert


def _class_str(row) -> str:
    return str(_from_row(1, row))


def _as_line(row, s: SurfaceModel, label: str) -> tuple[int, ...]:
    if row not in _tables(s.degree).index:
        raise InvariantError(
            f"{label} realized as {_class_str(row)} is not an exceptional curve"
        )
    return row


def _as_fiber(row, s: SurfaceModel, label: str) -> tuple[int, ...]:
    if row not in _tables(s.degree).fibers:
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


# The named curves of a face depend on its ordered contracted rows (and
# fiber row) alone, so each is derived and checked once per ordered face,
# in the cached tables below; a face whose curves fail a check raises
# before its entry is stored, so it raises on every call.  The tables are
# bounded by the ordered faces of degrees 4 to 7: |W(E_r)| = 1920, 120, 12
# and 2 plane faces, and 3840, 240, 24 and 4 conic faces (r - 1 ordered
# lines and a fiber), 6162 entries in all.


@lru_cache(maxsize=None)
def _plane_curves(degree: int, es):
    """(lines, conic) of the plane face contracting the ordered rows es:
    the lines through point 1 and point j = 2, ..., r, and the conic
    through the five points in degree 4 (None in degrees 5 to 7)."""
    s = _tables(degree).model
    ell = _plane_pullback(s, es)
    conic = None
    if degree == 4:
        conic = _as_line(_row_less(tuple(2 * x for x in ell), *es), s, "the five-point conic")
    lines = tuple(
        _as_line(_row_less(ell, es[0], e), s, f"the line through points 1,{j}")
        for j, e in enumerate(es[1:], 2)
    )
    return lines, conic


@lru_cache(maxsize=None)
def _section(degree: int, es, c):
    """The section (M - 3C) / 2 of the F1 face contracting es with fiber c."""
    s = _tables(degree).model
    m = _row_sum(_anticanonical_row(s), *es)
    return _as_line(_divided(_row_less(m, c, c, c), 2, "section curve"), s, "the section")


# the diagonals of a P1 x P1 face through point 1 and points j + 1, k + 1,
# as (j, k) indexes into its contracted rows
_DIAGONALS = {7: (), 5: ((1, 2),), 4: ((1, 2), (1, 3), (2, 3))}


@lru_cache(maxsize=None)
def _ruling_curves(degree: int, es, c):
    """(f1, f1', more) of the P1 x P1 face contracting es with fiber c: the
    fibers of the two rulings through point 1, then the two through point
    2 in degree 6, the diagonal through points 1, 2, 3 in degree 5, and in
    degree 4 the diagonals through points 1, j, k for (j, k) = (2, 3),
    (2, 4), (3, 4)."""
    s = _tables(degree).model
    g = _other_ruling(s, es, c)
    f1 = _as_line(_row_less(c, es[0]), s, "the first-ruling fiber through point 1")
    f1p = _as_line(_row_less(g, es[0]), s, "the second-ruling fiber through point 1")
    if degree == 6:
        f2 = _as_line(_row_less(c, es[1]), s, "the first-ruling fiber through point 2")
        f2p = _as_line(_row_less(g, es[1]), s, "the second-ruling fiber through point 2")
        return f1, f1p, (f2, f2p)
    c_plus_g = _row_sum(c, g)
    diagonals = tuple(
        _as_line(
            _row_less(c_plus_g, es[0], es[j], es[k]),
            s,
            f"the diagonal through points 1,{j + 1},{k + 1}",
        )
        for j, k in _DIAGONALS[degree]
    )
    return f1, f1p, diagonals


def _five_point_parts(es5, a5, lines, conic, n_value, subset, one):
    """Shared degree-4 pattern over a plane model with five base points.

    es5/a5 hold the rows of the five contracted curves and their scaled
    coefficients (on F1 the fifth is the section, with coefficient zero);
    lines and conic are the face's named curves from _plane_curves.
    subset indexes (a2..a5) entries whose sum is n_value.
    """
    parts = [
        (es5[0], (3 * one + 2 * a5[0] + n_value) // 2),
        (conic, (one - n_value) // 2),
    ]
    for j in range(1, 5):
        coeff = (one + n_value - 2 * a5[j]) // 2 if j - 1 in subset else (one + n_value) // 2
        parts.append((lines[j - 1], coeff))
    for j in range(1, 5):
        if j - 1 not in subset:
            parts.append((es5[j], a5[j]))
    return parts


# the weights c_j of the lines through point 1 and point j = 2, ..., r
_LINE_WEIGHTS = {7: (3,), 6: (2, 1), 5: (1, 1, 1)}


def _plane_parts(degree, es, a, one):
    """The plane lemma over the contracted rows es with scaled weights a.

    Degree 4 takes the five-point pattern.  In degrees 5 to 7 the line
    through points 1 and j is weighted c_j, E1 is weighted 2 + a_1 and
    each other E_j is weighted c_j - 1 + a_j.
    """
    lines, conic = _plane_curves(degree, es)
    if degree == 4:
        n_value, subset = _largest_subset_sum(a[1:], TWELVE_SUM_FAMILY, one)
        return _five_point_parts(es, a, lines, conic, n_value, subset, one)
    c = _LINE_WEIGHTS[degree]
    parts = [(line, cj * one) for line, cj in zip(lines, c)]
    parts.append((es[0], 2 * one + a[0]))
    parts += [(e, (cj - 1) * one + x) for e, cj, x in zip(es[1:], c, a[1:])]
    return parts


def _f1_parts(degree, es, c, a, one):
    """F1 is P2 blown up at one point, so its face is a plane face over es
    and the section v = (M - 3C) / 2, which carries weight 0."""
    return _plane_parts(degree, es + (_section(degree, es, c),), a + (0,), one)


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


def _p1p1_parts(s, es, c, a, one):
    f1, f1p, more = _ruling_curves(s.degree, es, c)
    if s.degree == 7:
        return [(es[0], 3 * one + a[0]), (f1, 2 * one), (f1p, 2 * one)]
    if s.degree == 6:
        f2, f2p = more
        half = one // 2
        return [
            (es[0], 2 * one + a[0]),
            (es[1], a[1]),
            (f1, 3 * half),
            (f1p, 3 * half),
            (f2, half),
            (f2p, half),
        ]
    if s.degree == 5:
        return [
            (es[0], 2 * one + a[0]),
            (es[1], a[1]),
            (es[2], a[2]),
            (f1, one),
            (f1p, one),
            (more[0], one),
        ]
    # degree 4: four-case split, tested in order; the chosen subset's sum
    # joins the E1 coefficient and the leftover E's keep their own terms
    a2, a3, a4 = a[1], a[2], a[3]
    if a2 + a3 <= one + a4:
        chosen = (1, 2, 3)
    elif a2 + a4 <= one:
        chosen = (1, 3)
    elif a3 + a4 <= one:
        chosen = (2, 3)
    else:
        chosen = (1,)
    s_value = sum(a[i] for i in chosen)
    parts = [
        (es[0], (3 * one + 2 * a[0] + s_value) // 2),
        (f1, (one + s_value) // 2),
        (f1p, (one + s_value) // 2),
    ]
    for pair, t in zip(_DIAGONALS[4], more):
        signed = sum(-a[i] if i in pair else a[i] for i in chosen)
        parts.append((t, (one + signed) // 2))
    for i in (1, 2, 3):
        if i not in chosen:
            parts.append((es[i], a[i]))
    return parts


def _parts(s: SurfaceModel, kind: str, es, c, weights):
    """(Q, parts): the lemma's (integer row, n) parts, each standing for
    n / Q copies of the curve of the row, for the face of the given kind
    contracting the ordered line rows es, with fiber row c (None on a
    plane face) and the integer weights (q, q * delta, (q * a_i, ...)) of
    ContractionData._weights.

    Q = 2q, and the builders take Q and Q * a_i, twice those ints, so
    every sum of them a builder halves is even and each // 2 is exact.
    The builders work at delta = 0.  On a conic face the fiber through
    point 1 is C = E1 + (C - E1), where C - E1 is the line L1 sigma on F1
    and the fiber f1 on P1 x P1, so delta copies of C add Q * delta to
    those two parts; that shift is made here, after the builder's checks,
    with C - E1 read from the face's named curves.
    """
    q, delta, a = weights
    one, degree = 2 * q, s.degree
    a = tuple(2 * x for x in a)
    if kind == KIND_TO_P2:
        return one, _plane_parts(degree, es, a, one)
    if kind == KIND_CONIC_F1:
        parts = _f1_parts(degree, es, c, a, one)
        # the line through point 1 and the section's point
        fiber = _plane_curves(degree, es + (_section(degree, es, c),))[0][-1]
    else:
        parts = _p1p1_parts(s, es, c, a, one)
        fiber = _ruling_curves(degree, es, c)[0]
    fiber = (es[0], fiber)
    return one, [(row, n + 2 * delta) if row in fiber else (row, n) for row, n in parts]


def certificate(s: SurfaceModel, cd: ContractionData) -> Certificate:
    """The lemma-prescribed effective decomposition for degree 4 to 7.

    The face must contract r lines onto the plane, or r - 1 lines and a
    fiber onto a conic bundle; the ContractionData constructor accepts
    fewer (the empty face is -K), and those are refused here.
    """
    if s.degree not in (4, 5, 6, 7):
        raise DomainError("certificates exist for degree 4 to 7 only")
    row = _class_row(cd, s)
    lines = s.r if cd.kind == KIND_TO_P2 else s.r - 1
    if len(cd.curveE) != lines:
        raise DomainError(
            f"a {cd.kind} face in degree {s.degree} contracts {lines} lines, not {len(cd.curveE)}"
        )
    es = tuple(e.row for e in cd.curveE)
    c = None if cd.curveC is None else cd.curveC.row
    one, parts = _parts(s, cd.kind, es, c, cd._weights)
    return _finish(parts, one, row, cd._weights[0], s.degree)


def compare_with_slope(s: SurfaceModel, cd: ContractionData, cert: Certificate) -> dict:
    """Exact comparison of the certificate bound with (2/3) times the slope.

    Strict on all valid inputs except degree 4 with a = 0 and delta = 0,
    where the two sides agree exactly.  For degree 4 the comparison is
    decided again by the standalone inequality module, from the data's
    integer weights, as an independent check: both routes must agree on
    strictness, and on a P1 x P1 face its piecewise value must equal the
    certificate's bound.
    """
    l_row = _class_row(cd, s)
    q, delta, a = cd._weights
    # (2/3) * slope = 2 * q * (-K.l_row) / (3 * l_row.l_row), l_row.l_row > 0
    bound_n, bound_d = cert.bound.numerator, cert.bound.denominator
    lhs = 3 * bound_n * _row_dot(l_row, l_row)
    rhs = 2 * bound_d * q * _row_dot(_anticanonical_row(s), l_row)
    strict = lhs < rhs
    equality = lhs == rhs
    if s.degree == 4:
        m1, m2, n, d = appendix._decide(q, a + (0,) * (5 - len(a)), delta)
        if cd.kind == KIND_CONIC_P1P1:
            margin = m2
            if n * bound_d != d * bound_n:
                raise InvariantError("piecewise value disagrees with the certificate")
        else:
            margin = m1
        if margin < 0 or (margin > 0) != strict:
            raise InvariantError("independent inequality check disagrees")
        expect_equality = delta == 0 and not any(a)
        if equality != expect_equality or strict == equality:
            raise InvariantError("equality characterization violated")
    else:
        if not strict:
            raise InvariantError("bound must be strictly below the slope threshold")
    return {"strict": strict, "equality": equality}

"""Slope normalization, the nef residual test and the K-stability verdicts.

The pipeline: compute the slope of the polarization, test whether the
anticanonical class minus two thirds of the slope-scaled polarization stays
nef, and branch on the degree.  Low degrees get a certified lower bound for
the alpha invariant; degree three is settled only on a specific one
parameter family; degrees four to seven get an upper-bound certificate
showing why the nef-residual route cannot conclude there.  verdict reads
the slope, condition A, epsilon, gamma and the six-line parameter off the
integer rows and the one packed product of the class with its curve table;
nu, condition_a and gamma_lower_bound build the residual class instead.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .alphabound import Certificate, certificate, compare_with_slope
from .cones import _ample_signs, _chamber_mu, _face_decompose, is_nef
from .curves import _tables
from .curves import minus_one_curves  # noqa: F401  re-exported
from .errors import DomainError, InvariantError
from .lattice import (
    DivClass,
    Rational,
    SurfaceModel,
    _anticanonical_row,
    _Record,
    _ratio_str,
    _row_dot,
    _row_sum,
    anticanonical,
    intersect,
    rational,
    rational_str,
    square,
)

STATUS_MAIN = "KStableByMainTheorem"
STATUS_SIX_LINE = "KStableBySixLineTheorem"
STATUS_INAPPLICABLE = "DervanInapplicable"
STATUS_UNSUPPORTED = "Unsupported"
STATUS_UNKNOWN = "Unknown"


class Verdict(_Record):
    """A verdict: status, condition_a, the slope nu, alpha_lower, certificate, notes."""

    _fields = ("status", "condition_a", "nu", "alpha_lower", "certificate", "notes")

    def __init__(
        self, status: str, condition_a: bool, nu: Rational,
        alpha_lower: Rational | None, certificate: Certificate | None, notes: str,
    ):
        vars(self).update(
            status=status, condition_a=condition_a, nu=nu, alpha_lower=alpha_lower,
            certificate=certificate, notes=notes,
        )


def nu(l: DivClass, s: SurfaceModel) -> Fraction:
    """The slope (-K . l) / l^2."""
    sq = square(l, s)
    if sq == 0:
        raise DomainError("slope undefined: the class squares to zero")
    return intersect(anticanonical(s), l, s) / sq


def _residual(s: SurfaceModel, l: DivClass, slope: Rational) -> DivClass:
    """-K - (2/3) * slope * l for slope = nu(l): the class condition A
    tests, and -K minus the normalized class."""
    return anticanonical(s) - Fraction(2, 3) * slope * l


def condition_a(l: DivClass, s: SurfaceModel) -> bool:
    """Whether -K - (2/3) nu(l) l is nef."""
    return is_nef(_residual(s, l, nu(l, s)), s)


def normalize(l: DivClass, s: SurfaceModel) -> DivClass:
    """Rescale so the slope becomes exactly 3/2."""
    scaled = Fraction(2, 3) * nu(l, s) * l
    if nu(scaled, s) != Fraction(3, 2):
        raise InvariantError("normalization did not land on slope 3/2")
    return scaled


def gamma_lower_bound(s: SurfaceModel, l: DivClass) -> Fraction:
    """Certified alpha lower bound for the normalized class, degree 1 or 2.

    The bound is a single rational depending only on epsilon; it exceeds 1
    on the whole admissible range, which is what the stability argument
    needs.  This entry builds the residual class -K - (2/3) nu(l) l and
    pairs it, as the tests' oracle for the integer route of verdict.
    """
    if s.degree not in (1, 2):
        raise DomainError("gamma bound applies in degree 1 and 2 only")
    _ample_signs(l, s)
    residual = _residual(s, l, nu(l, s))
    if not is_nef(residual, s):
        raise DomainError("gamma bound needs the nef residual condition")
    eps = intersect(anticanonical(s), residual, s)
    return Fraction(*_gamma(s.degree, eps.numerator, eps.denominator, residual.is_zero))


def _gamma(degree: int, n: int, m: int, residual_is_zero) -> tuple[int, int]:
    """The gamma bound as an int pair (p, q), q > 0, in degree 1 or 2, from
    epsilon = n / m (m > 0), the anticanonical pairing of the nef residual
    -K - (2/3) nu(l) l of an ample l satisfying condition A.

    gamma is 3 / (3 - epsilon) in degree 1 and 12 / (12 - epsilon) in
    degree 2.  The paper caps them at 6/5 from epsilon = 1/2 and at 12/11
    from epsilon = 1, but no class reaches those edges: by the Hodge index
    theorem (-K.l)^2 >= d * l^2, so epsilon = d - 2(-K.l)^2 / (3 l^2) <= d/3.
    An epsilon at or past its edge raises InvariantError.
    residual_is_zero() is asked only when epsilon <= 0, which a nonzero
    residual never has.
    """
    if not (n > 0 or residual_is_zero()):
        raise InvariantError("nonpositive epsilon for a nontrivial residual")
    # the form's numerator, and epsilon's edge as 1 / edge
    top, edge = (3, 2) if degree == 1 else (12, 1)
    if edge * n >= m:
        raise InvariantError(
            f"epsilon {_ratio_str(n, m)} reaches the gamma cap's edge {_ratio_str(1, edge)}, "
            f"past the Hodge index bound epsilon <= {degree}/3"
        )
    p, q = top * m, top * m - n
    if p <= q:
        raise InvariantError("gamma bound failed to exceed 1")
    return p, q


def _six_line_parameter(l: DivClass, s: SurfaceModel, signs):
    """Match l + K against x times a disjoint six-line sum, for l = row / D
    whose packed pairings P_E = row.E with the lines are signs: x, 0 for
    l = -K, or None.

    With a = -K.row, -K.(l + K) = (a - 3D) / D, so x = (a - 3D) / (6D).  By
    negative_curves, the only possible sextet is the curves pairing
    negatively with w = l + K, and matching it forces them disjoint.  A line
    E has -K.E = 1, so w.E = (P_E - D) / D is negative when P_E < D.  The
    match w = x * sum(E) is 6 * (row - D * (-K)) = (a - 3D) * sum(E), on
    integer rows.  It is tried only for x > 0: at x < 0 the six lines would
    be those pairing positively with sum(E), so each would meet two or more
    of the others and no line outside them, while every line of a cubic
    surface meets ten others.
    """
    den, row = l.den, l.row
    k = _anticanonical_row(s)
    if den == 1 and row == k:
        return 0
    n = _row_dot(k, row) - 3 * den
    if n <= 0:
        return None
    sextet = [e for e, p in zip(_tables(s.degree).rows, signs) if p < den]
    if len(sextet) == 6 and all(
        6 * (x - den * y) == n * t for x, y, t in zip(row, k, _row_sum(*sextet))
    ):
        return Fraction(n, 6 * den)
    return None


def _upper_bound(s: SurfaceModel, l: DivClass, signs):
    """(mu, face, certificate, comparison) for an ample l in degree 4 to 7,
    whose packed pairings with the curve-cone generators are signs; the
    face is the ContractionData the face search builds.

    mu is read off the Weyl chamber, with no linear program, and the face
    of K + mu*l certifies it: the decomposition shows mu(mu*l) <= 1, and
    the face's nef dual class shows mu(mu*l) >= 1.  A wrong mu finds no
    checked face and raises InvariantError.  l is ample, and so is mu * l:
    the face reads its signs off those of l instead of pairing again.  The
    face goes to the public certificate and compare_with_slope, which read
    its integer weights and class row.
    """
    scale = _chamber_mu(l, s)
    face = _face_decompose(l, s, scale, signs)
    cert = certificate(s, face)
    return scale, face, cert, compare_with_slope(s, face, cert)


def verdict(s: SurfaceModel, l: DivClass) -> Verdict:
    """Top-level decision for a polarized surface in the supported range.

    Read off signs, the packed pairings P_G = row.G of l = row / D with the
    curve-cone generators G that the ampleness test returns.  With
    a = -K.row and b = row.row > 0, the slope is nu = a * D / b, and
    3b * (residual.G) = 3b * (-K.G) - 2a * P_G for the residual
    -K - (2/3) nu l, so condition A is 2a * P_G <= 3b * (-K.G) for every G.
    -K.G is 1 on each (-1)-curve and 2 on the ruling H - E1, the last
    generator in degree 8.  Degrees 1-3 stay on these ints: epsilon is
    d - 2a^2 / (3b) for gamma, and the six-line match reads the signs.  No
    residual class is built, and the only other pairing is the nef test of
    the face's dual class in degrees 4-7.  Fractions are built for output
    fields only.  The public nu, condition_a and gamma_lower_bound keep the
    residual route, as the tests' oracle.
    """
    signs = _ample_signs(l, s)
    k, row, den = _anticanonical_row(s), l.row, l.den
    a = _row_dot(k, row)
    b = _row_dot(row, row)
    slope = Fraction(a * den, b)
    if s.degree == 8:
        line, ruling = signs
        cond = 2 * a * line <= 3 * b and a * ruling <= 3 * b
    else:
        cond = 2 * a * max(signs) <= 3 * b
    reply = partial(
        Verdict, condition_a=cond, nu=slope, alpha_lower=None, certificate=None
    )
    if s.degree == 8:
        return reply(
            status=STATUS_UNSUPPORTED,
            notes="one-point blow-up models are settled by classical means "
            "and are outside the scope of this tool",
        )
    if s.degree <= 2:
        if not cond:
            return reply(
                status=STATUS_UNKNOWN,
                notes="the nef residual condition fails, so the low-degree "
                "criterion does not apply",
            )
        # epsilon = d - 2a^2 / (3b), and 3b * residual = 3b * (-K) - 2a * row
        p, q = _gamma(
            s.degree, 3 * b * s.degree - 2 * a * a, 3 * b,
            lambda: all(3 * b * y == 2 * a * x for y, x in zip(k, row)),
        )
        # gamma times two thirds of the slope, 2aD / (3b)
        rescaled = _ratio_str(2 * a * den * p, 3 * b * q)
        return reply(
            status=STATUS_MAIN,
            alpha_lower=Fraction(p, q),
            notes="alpha lower bound for the slope-normalized class; for the "
            f"input class it rescales to {rescaled}",
        )
    if s.degree == 3:
        x = _six_line_parameter(l, s, signs)
        if x == 0:
            return reply(
                status=STATUS_UNKNOWN,
                notes="the anticanonical cubic surface is settled by "
                "classical means and is outside the scope of this tool",
            )
        if x is not None and 10 * x.numerator <= x.denominator:
            # 2 / (3 + 3x) for x = p / q
            return reply(
                status=STATUS_SIX_LINE,
                alpha_lower=Fraction(2 * x.denominator, 3 * (x.denominator + x.numerator)),
                notes="six-line family parameter "
                f"{rational_str(x)} lies in the proven window",
            )
        if x is not None:
            return reply(
                status=STATUS_UNKNOWN,
                notes="six-line family parameter "
                f"{rational_str(x)} is outside the proven window; stability "
                "there is only conjectured",
            )
        return reply(
            status=STATUS_UNKNOWN,
            notes="no result covers this cubic-surface polarization",
        )
    # degree 4 to 7: produce the upper-bound certificate on the normalized
    # class; it rules out the nef-residual route instead of applying it.
    scale, _, cert, comparison = _upper_bound(s, l, signs)
    bound_n, bound_d = cert._bound
    upper = _ratio_str(scale.numerator * bound_n, scale.denominator * bound_d)
    notes = (
        f"alpha upper bound {_ratio_str(bound_n, bound_d)} for the input scaled "
        f"by {rational_str(scale)}; for the input class it rescales to "
        f"{upper}, at most two thirds of the slope"
    )
    if comparison["equality"]:
        notes += "; the two sides agree exactly here"
    return reply(status=STATUS_INAPPLICABLE, certificate=cert, notes=notes)


def cubic_line_family_report(x) -> dict:
    """Exact report for the cubic-surface one-parameter six-line family.

    The window test is rationalized: the irrational left endpoint is the
    positive root of 13 t^2 + 2 t - 3, so membership is the sign of that
    quadratic together with the nef threshold.  x is read by
    lattice.rational, so a float or an oversized string is refused.
    """
    x = rational(x)
    if not 0 <= x < 1:
        raise DomainError("family parameter must lie in [0, 1)")
    slope = (3 + x) / (3 + 2 * x - x * x)
    cond = x <= Fraction(3, 5)
    upper = 3 / (4 + 2 * x)
    in_window = 13 * x * x + 2 * x - 3 >= 0 and cond
    return {
        "x": x,
        "nu": slope,
        "condition_a": cond,
        "alpha_upper": upper,
        "in_window": in_window,
    }

"""Slope normalization, the nef residual test and the K-stability verdicts.

The pipeline: compute the slope of the polarization, test whether the
anticanonical class minus two thirds of the slope-scaled polarization stays
nef, and branch on the degree.  Low degrees get a certified lower bound for
the alpha invariant; degree three is settled only on a specific one
parameter family; degrees four to seven get an upper-bound certificate
showing why the nef-residual route cannot conclude there.
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
    anticanonical,
    intersect,
    rational,
    rational_str,
    square,
    zero_class,
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


def _epsilon(s: SurfaceModel, r: DivClass) -> Rational:
    """The anticanonical pairing with the residual r = -K - l_normalized."""
    eps = intersect(anticanonical(s), r, s)
    if eps <= 0 and r != zero_class(s):
        raise InvariantError("nonpositive epsilon for a nontrivial residual")
    return eps


def gamma_lower_bound(s: SurfaceModel, l: DivClass) -> Fraction:
    """Certified alpha lower bound for the normalized class, degree 1 or 2.

    The bound is a single rational depending only on epsilon; it exceeds 1
    on the whole admissible range, which is what the stability argument
    needs.
    """
    if s.degree not in (1, 2):
        raise DomainError("gamma bound applies in degree 1 and 2 only")
    _ample_signs(l, s)
    residual = _residual(s, l, nu(l, s))
    if not is_nef(residual, s):
        raise DomainError("gamma bound needs the nef residual condition")
    return _gamma(s, residual)


def _gamma(s: SurfaceModel, residual: DivClass) -> Fraction:
    """The gamma bound in degree 1 or 2 for an ample l satisfying
    condition A, from its nef residual -K - (2/3) nu(l) l."""
    eps = _epsilon(s, residual)
    if s.degree == 1:
        gamma = Fraction(6, 5) if eps >= Fraction(1, 2) else 3 / (3 - eps)
    else:
        gamma = Fraction(12, 11) if eps >= 1 else 12 / (12 - eps)
    if gamma <= 1:
        raise InvariantError("gamma bound failed to exceed 1")
    return gamma


def _six_line_parameter(l: DivClass, s: SurfaceModel, signs):
    """Match l + K against x times a disjoint six-line sum, for l = row / D
    whose packed pairings with the lines are signs.

    By negative_curves, the only possible sextet is the curves pairing
    negatively with w = l + K, and matching it forces them disjoint.  A line
    E has -K.E = 1, so w.E = (P_E - D) / D is negative when P_E < D.
    """
    w = l - anticanonical(s)
    if w == zero_class(s):
        return Fraction(0)
    sextet = [c for c, p in zip(_tables(s.degree).lines, signs) if p < l.den]
    x = intersect(anticanonical(s), w, s) / 6
    if len(sextet) == 6 and x > 0 and w == x * sum(sextet[1:], sextet[0]):
        return x
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
    generator in degree 8.  The residual class is built only for gamma.
    The only other pairing is the nef test of the face's dual class in
    degrees 4-7.  The public nu and condition_a keep the residual route,
    as the tests' oracle.
    """
    signs = _ample_signs(l, s)
    a = _row_dot(_anticanonical_row(s), l.row)
    b = _row_dot(l.row, l.row)
    slope = Fraction(a * l.den, b)
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
        gamma = _gamma(s, _residual(s, l, slope))
        rescaled = gamma * Fraction(2, 3) * slope
        return reply(
            status=STATUS_MAIN,
            alpha_lower=gamma,
            notes="alpha lower bound for the slope-normalized class; for the "
            f"input class it rescales to {rational_str(rescaled)}",
        )
    if s.degree == 3:
        x = _six_line_parameter(l, s, signs)
        if x == 0:
            return reply(
                status=STATUS_UNKNOWN,
                notes="the anticanonical cubic surface is settled by "
                "classical means and is outside the scope of this tool",
            )
        if x is not None and x <= Fraction(1, 10):
            return reply(
                status=STATUS_SIX_LINE,
                alpha_lower=2 / (3 + 3 * x),
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
    bound = cert.bound
    upper = _ratio_str(scale.numerator * bound.numerator, scale.denominator * bound.denominator)
    notes = (
        f"alpha upper bound {rational_str(bound)} for the input scaled "
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

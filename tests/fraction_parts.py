"""The certificate parts as kstab.alphabound built them before its integer
kernel: every coefficient, subset sum and case test in Fraction arithmetic.

Kept as an oracle: tests/test_alphabound.py checks that the nonzero
integer parts, read as n / Q, equal the nonzero parts here, in order.  The
function bodies are kept as they were.
"""

from fractions import Fraction

from kstab.alphabound import (
    TWELVE_SUM_FAMILY,
    _as_line,
    _divided,
    _other_ruling,
    _plane_pullback,
)
from kstab.errors import DomainError
from kstab.lattice import _anticanonical_row, _row_less, _row_sum

# the old F1 degree-4 subset family over (a2, a3, a4), before the section
# joined the plane builder as a fourth entry of weight 0
FIVE_SUM_FAMILY = ((0,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


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

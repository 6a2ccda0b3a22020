"""Seeded input generators for the three benchmark workloads.

Generators return plain data only (JSON text, tuples of Fractions); the
worker turns them into library calls.  The same seed gives the same inputs.
Every class is built as

    L = c * (-K + delta * (H - E_r) + sum(a_i * E_i)),  0 <= a_i < 1, delta >= 0,

which is ample on every degree-d del Pezzo model: -K + sum(a_i E_i) pairs
to 1 - a_j > 0 with E_j and to at least 1 with every other (-1)-curve, its
square is d + sum(a_i (2 - a_i)) > 0, and H - E_r is nef.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

DEFAULT_SEED = 1
WORKLOADS = ("check-stream", "normalize-sweep", "grid-sweep")

CHECK_DEGREES = tuple(range(1, 9))
MU_DEGREES = tuple(range(1, 9))
ALPHA_DEGREES = (5, 6, 7)
GRID_DEGREES = (4, 5, 6, 7)
GRID_STRIDE = 53
APPENDIX_Q = 8
WARMUP_APPENDIX_Q = 2


def rational_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _weight(rng: random.Random) -> Fraction:
    """A coefficient in [0, 1) with a small denominator."""
    den = rng.randint(2, 12)
    return Fraction(rng.randrange(den), den)


def _scale(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def multiplicities(degree: int, c: Fraction, delta: Fraction, a) -> tuple:
    """(h, m_1..m_r) of c*(-K + delta*(H - E_r) + sum a_i E_i), where the
    class is h*H - sum(m_i E_i)."""
    r = 9 - degree
    a = tuple(a) + (Fraction(0),) * (r - len(a))
    h = c * (3 + delta)
    m = [c * (1 - x) for x in a]
    m[-1] += c * delta
    return (h,) + tuple(m)


def explicit_document(degree: int, mults) -> dict:
    return {
        "degree": degree,
        "L": {"h": rational_text(mults[0]), "e": [rational_text(x) for x in mults[1:]]},
    }


def _generic_weights(rng: random.Random, count: int) -> tuple:
    """Weights with at least two distinct values, so no six-line match."""
    while True:
        a = tuple(_weight(rng) for _ in range(count))
        if len(set(a)) > 1:
            return a


# smaller weights in degrees 1 and 2 keep the nef residual condition true
# for a good share of requests, so both low-degree verdicts occur
_CHECK_WEIGHT_CAP = {1: Fraction(1, 8), 2: Fraction(1, 4)}


def check_request(rng: random.Random, degree: int, variant: int) -> dict:
    """One `check` input document.  `variant` picks the half of the mix:
    degree 3 is six-line (0) or a generic scaled class (1); degrees 4..7
    are anticanonical-plus (0) or an explicit scaled class (1)."""
    r = 9 - degree
    if degree == 3 and variant == 0:
        den = rng.randint(10, 60)
        return {"degree": 3, "family": "six-line", "x": rational_text(Fraction(rng.randint(1, den - 1), den))}
    if 4 <= degree <= 7 and variant == 0:
        delta = _weight(rng) * rng.randint(0, 2)
        count = rng.randint(0, r - 1 if delta > 0 else r)
        a = sorted((_weight(rng) for _ in range(count)), reverse=True)
        return {
            "degree": degree,
            "family": "anticanonical-plus",
            "delta": rational_text(delta),
            "a": [rational_text(x) for x in a],
        }
    if degree == 3:
        return explicit_document(3, multiplicities(3, _scale(rng), Fraction(0), _generic_weights(rng, 6)))
    return explicit_document(*class_request(rng, degree, _CHECK_WEIGHT_CAP.get(degree, Fraction(1))))


def check_round(rng: random.Random, index: int) -> list[str]:
    """One request per degree in seeded order; the variant alternates by
    round so each half of the mix gets an equal share."""
    degrees = list(CHECK_DEGREES)
    rng.shuffle(degrees)
    return [json.dumps(check_request(rng, d, index % 2)) for d in degrees]


def class_request(rng: random.Random, degree: int, cap: Fraction = Fraction(1)) -> tuple:
    """(degree, multiplicities) of an ample scaled class."""
    r = 9 - degree
    delta = _weight(rng) if 4 <= degree <= 7 and rng.random() < 0.5 else Fraction(0)
    a = tuple(cap * _weight(rng) for _ in range(r - 1 if delta > 0 else r))
    return degree, multiplicities(degree, _scale(rng), delta, a)


def normalize_round(rng: random.Random) -> list[tuple]:
    """A `mu` request per degree 1..8 and an alpha-bound request per degree
    5..7, in seeded order: ("mu" | "alpha", degree, multiplicities)."""
    ops = [("mu",) + class_request(rng, d) for d in MU_DEGREES]
    ops += [("alpha",) + class_request(rng, d) for d in ALPHA_DEGREES]
    rng.shuffle(ops)
    return ops


_FAREY6 = tuple(sorted({Fraction(n, d) for d in range(1, 7) for n in range(0, d + 1)}))
_AVALS = tuple(x for x in reversed(_FAREY6) if x < 1)
GRID_KINDS = ("ToP2", "ConicBundleF1", "ConicBundleP1P1")

# contracted curves and fiber of the grid's P1 x P1 items, as signed
# (h, e_1..e_r) coordinates: (curveE, curveC) per degree
GRID_P1P1_CURVES = {
    7: (((1, -1, -1),), (1, -1, 0)),
    6: (((0, 1, 0, 0), (1, 0, -1, -1)), (1, 0, -1, 0)),
    5: (((0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, 0, -1, -1)), (1, 0, 0, -1, 0)),
    4: (
        ((1, -1, -1, 0, 0, 0), (1, -1, 0, -1, 0, 0), (1, 0, -1, -1, 0, 0), (2, -1, -1, -1, -1, -1)),
        (2, -1, -1, -1, -1, 0),
    ),
}


def grid_curves(degree: int, kind: str) -> tuple:
    """(curveE, curveC) of a grid item in signed coordinates; the plane and
    F1 items contract the basis curves E_i, the F1 fiber is H - E_r."""
    r = 9 - degree
    basis = tuple(tuple(1 if j == i else 0 for j in range(r + 1)) for i in range(1, r + 1))
    if kind == "ToP2":
        return basis, None
    if kind == "ConicBundleF1":
        return basis[:-1], (1,) + (0,) * (r - 1) + (-1,)
    return GRID_P1P1_CURVES[degree]


def grid_items():
    """The denominator-6 synthetic contraction grid, in a fixed order:
    (degree, kind, delta, a), 53469 items."""
    for degree in GRID_DEGREES:
        r = 9 - degree
        for a in combinations_with_replacement(_AVALS, r):
            yield degree, "ToP2", Fraction(0), a
        for delta in _FAREY6:
            for a in combinations_with_replacement(_AVALS, r - 1):
                yield degree, "ConicBundleF1", delta, a
                yield degree, "ConicBundleP1P1", delta, a


GRID_SIZE = 53469


def grid_round(rng: random.Random, items: list) -> list[tuple]:
    """Every GRID_STRIDE-th grid item from a seeded offset."""
    return items[rng.randrange(GRID_STRIDE) :: GRID_STRIDE]


def appendix_total(q: int, delta_steps: int) -> int:
    """Grid points grid_oracle(q, delta_steps / q) must report."""
    cols = 1
    for i in range(5):
        cols = cols * (q + 1 + i) // (i + 1)
    return cols * (delta_steps + 1)

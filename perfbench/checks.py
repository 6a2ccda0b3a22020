"""Output checks, recomputed from outside the library.

Classes are signed coordinate tuples (h, e_1, ..., e_r) for h*H + sum(e_i E_i)
with the pairing h*h' - sum(e_i e'_i); every check uses plain Fractions and
none of the library's code.  Each check returns None when the output holds
up, or a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import rational_text

MAIN = "KStableByMainTheorem"
SIX_LINE = "KStableBySixLineTheorem"
INAPPLICABLE = "DervanInapplicable"
UNSUPPORTED = "Unsupported"
UNKNOWN = "Unknown"


def anticanonical(degree: int) -> tuple:
    return (Fraction(3),) + (Fraction(-1),) * (9 - degree)


def pair(a, b) -> Fraction:
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def combine(terms, rank: int) -> tuple:
    """sum(coeff * cls) over (cls, coeff) terms."""
    total = [Fraction(0)] * (rank + 1)
    for cls, coeff in terms:
        for i, x in enumerate(cls):
            total[i] += coeff * x
    return tuple(total)


def slope(degree: int, l) -> Fraction:
    return pair(anticanonical(degree), l) / pair(l, l)


def from_multiplicities(obj) -> tuple:
    """Signed coordinates of the CLI's {"h": .., "e": [multiplicities]}."""
    return (Fraction(obj["h"]),) + tuple(-Fraction(x) for x in obj["e"])


def document_class(doc) -> tuple:
    """Signed coordinates of a `check` input document's class."""
    degree = doc["degree"]
    r = 9 - degree
    k = anticanonical(degree)
    if "L" in doc:
        return from_multiplicities(doc["L"])
    if doc["family"] == "six-line":
        x = Fraction(doc["x"])
        return (k[0],) + tuple(e + x for e in k[1:])
    delta = Fraction(doc["delta"])
    a = [Fraction(x) for x in doc["a"]] + [Fraction(0)] * (r - len(doc["a"]))
    fiber = (Fraction(1),) + (Fraction(0),) * (r - 1) + (Fraction(-1),)
    base = (k, Fraction(1)), (fiber, delta)
    units = [((Fraction(0),) + tuple(Fraction(int(i == j)) for j in range(r)), a[i]) for i in range(r)]
    return combine(list(base) + units, r)


def certificate(degree: int, l, components, bound: Fraction, scale=None):
    """Check an alpha upper-bound certificate for the class scale * l.

    components are (signed class, coefficient).  When scale is None it is
    read off the certificate, which must then sum to a positive multiple of
    l.  Returns (reason or None, scale, limit) with limit = (2/3) slope.
    """
    if not components:
        return "empty certificate", None, None
    if any(coeff < 0 for _, coeff in components):
        return "negative certificate coefficient", None, None
    total = combine(components, 9 - degree)
    if scale is None:
        scale = total[0] / l[0]
    scaled = tuple(scale * x for x in l)
    if scale <= 0 or total != scaled:
        return "certificate does not sum to the scaled class", None, None
    if bound != 1 / max(coeff for _, coeff in components):
        return "bound is not the reciprocal of the top coefficient", None, None
    limit = Fraction(2, 3) * slope(degree, scaled)
    zero_point = degree == 4 and scaled == anticanonical(4)
    if bound > limit or (bound == limit) != zero_point:
        return "bound is not below two thirds of the slope, or meets it off the zero point", None, None
    return None, scale, limit


def report(doc, text: str):
    """Check a rendered `check --json` report against its input document."""
    rep = json.loads(text)
    degree = doc["degree"]
    l = document_class(doc)
    if rep["nu"] != rational_text(slope(degree, l)):
        return "slope differs from the recomputed value"
    status = rep["status"]
    lower = None if rep["alpha_lower"] is None else Fraction(rep["alpha_lower"])
    if degree == 8:
        return None if status == UNSUPPORTED else f"degree 8 gave {status}"
    if degree <= 2:
        if status == MAIN and rep["condition_a"] and lower is not None and lower > 1:
            return None
        if status == UNKNOWN and not rep["condition_a"]:
            return None
        return f"degree {degree} gave {status} with gamma {rep['alpha_lower']}"
    if degree == 3:
        if doc.get("family") == "six-line":
            x = Fraction(doc["x"])
            if x <= Fraction(1, 10):
                ok = status == SIX_LINE and lower == 2 / (3 + 3 * x)
            else:
                ok = status == UNKNOWN and lower is None
            return None if ok else f"six-line x = {doc['x']} gave {status}"
        return None if status == UNKNOWN else f"generic cubic class gave {status}"
    if status != INAPPLICABLE or rep["certificate"] is None:
        return f"degree {degree} gave {status}"
    cert = rep["certificate"]
    components = [
        (from_multiplicities(part["class"]), Fraction(part["coefficient"])) for part in cert["divisor"]
    ]
    return certificate(degree, l, components, Fraction(cert["bound"]))[0]


def mu(degree: int, l, value: Fraction):
    """mu > 0, and -K . (K + mu l) >= 0, which K + mu l effective and -K
    ample force."""
    if value <= 0 or value * pair(anticanonical(degree), l) < degree:
        return f"mu = {value} cannot make K + mu L effective"
    return None


def comparison(flags: dict, bound: Fraction, limit: Fraction):
    if flags != {"strict": bound < limit, "equality": bound == limit}:
        return "slope comparison flags disagree with the recomputed ones"
    return None


def appendix(total: int, failures, expected_total: int):
    if failures:
        return f"{len(failures)} appendix grid failures"
    if total != expected_total:
        return f"appendix grid checked {total} points, expected {expected_total}"
    return None

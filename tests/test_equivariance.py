"""The pipeline commutes with the Weyl group W(E_r).

A simple root alpha of E_r (E_i - E_{i+1}, or H - E1 - E2 - E3 once there
are three points) has square -2 and misses K, and its reflection
x -> x + (x.alpha) alpha keeps K, the intersection form, the (-1)-curves
and the conic classes, hence the curve cone and the nef cone.  So every
number the pipeline reports for L must come out the same for wL: this
oracle needs no second implementation.  W is trivial in degree 8.
"""

import random
import sys
from pathlib import Path

from kstab.alphabound import certificate, verify_certificate
from kstab.cones import face_decompose, mu
from kstab.lattice import SurfaceModel, div, intersect
from kstab.stability import verdict

sys.path.insert(0, str(Path(__file__).parent))
from test_cones import _random_ample  # noqa: E402


def _simple_roots(s):
    r = s.r
    roots = [div(0, [0] * i + [1, -1] + [0] * (r - i - 2)) for i in range(r - 1)]
    if r >= 3:
        roots.append(div(1, [-1, -1, -1] + [0] * (r - 3)))
    return roots


def _reflected(l, word, s):
    for alpha in word:
        l = l + intersect(l, alpha, s) * alpha
    return l


def _invariants(l, s):
    """(the numbers of the run on l that W must keep, the face kind,
    whether a face weight is zero), checking the certificate against the
    class it bounds."""
    v = verdict(s, l)
    scale = mu(l, s)
    seen = (v.status, v.nu, v.condition_a, v.alpha_lower, scale)
    if not 4 <= s.degree <= 7:
        return seen, None, False
    cd = face_decompose(scale * l, s)
    cert = certificate(s, cd)
    verify_certificate(cert, scale * l, s)
    assert v.certificate == cert
    weights = (*cd.a, cd.delta) if cd.curveC is not None else cd.a
    return seen + (cd.delta, cd.a, cert.bound), cd.kind, 0 in weights


def test_pipeline_is_weyl_equivariant():
    rng = random.Random(16)
    pairs = flips = 0
    for degree in range(1, 8):
        s = SurfaceModel(degree)
        roots = _simple_roots(s)
        for spread in (3, 10, 40):
            for _ in range(12):
                l = _random_ample(rng, s, spread)
                expected, kind, zero = _invariants(l, s)
                for _ in range(3):
                    word = [rng.choice(roots) for _ in range(rng.randint(1, 30))]
                    wl = _reflected(l, word, s)
                    got, wkind, _ = _invariants(wl, s)
                    assert got == expected, (degree, l, wl)
                    # with a zero weight the tie between an F1 and a
                    # P1 x P1 face is broken by the marking, so only there
                    # may the kind differ
                    if not zero:
                        assert wkind == kind, (degree, l, wl)
                    flips += wkind != kind
                    pairs += 1
    assert pairs == 756
    assert flips  # the kind does flip at zero weights

"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the interpreter's speed moves between levels
1.3 to 1.8 times apart, for seconds to minutes at a time, whatever runs
in the process.  So every span of library work is bracketed by runs of a
fixed reference loop: exact rational Gaussian elimination, pure Python
and no kstab code.  A span's time is rescaled by REFERENCE_S over the mean
of the reference runs on either side of it, which gives the time it would
have taken at the speed where the reference loop takes REFERENCE_S.  The
loop runs with the garbage collector off, so the library's heap does not
change it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# the reference loop's time at the speed the benchmark reports in: about
# its time on a quiet 2-core x86-64 virtual machine under CPython 3.11
REFERENCE_S = 0.0025
# library time between two reference runs; each run costs about 2.5 ms
EVERY_S = 0.1

_MATRIX = tuple(tuple(Fraction(1, i + j + 1) + Fraction(i * j % 5, 7) for j in range(7)) for i in range(7))


def _eliminate(rows) -> list:
    a = [list(row) for row in rows]
    n = len(a)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def reference_seconds() -> float:
    """Time of one run of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _eliminate(_MATRIX)
        _eliminate(_MATRIX)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Collects raw span times and runs the reference loop between spans
    once EVERY_S of span time has passed.  `scaled()` gives the spans at
    the reference speed."""

    def __init__(self, reference=reference_seconds):
        self.reference = reference
        self.raw = []
        self.factors = []
        self.references = [reference()]
        self._since = 0.0

    def add(self, seconds: float):
        self.raw.append(seconds)
        self._since += seconds
        if self._since >= EVERY_S:
            self.close()

    @contextmanager
    def span(self):
        start = perf_counter()
        yield
        self.add(perf_counter() - start)

    def close(self):
        """Run the reference loop and give the open spans their factor."""
        if len(self.factors) == len(self.raw):
            return
        before = self.references[-1]
        self.references.append(self.reference())
        factor = 2 * REFERENCE_S / (before + self.references[-1])
        self.factors += [factor] * (len(self.raw) - len(self.factors))
        self._since = 0.0

    def scaled(self) -> list:
        self.close()
        return [x * f for x, f in zip(self.raw, self.factors)]

"""In-memory span tracer installed around the library's public functions.

Each public function is wrapped at every module attribute that binds it
(modules import by name, so `cones.solve` and `ratlp.solve` are the same
function reached through two attributes).  A span is (name, start, end,
parent, op, quantity); spans stay in memory and are written out when the
run ends.  `lattice` functions run millions of times per op, so they get
call counters only.  While tracing is paused the wrappers of COLD
functions stay installed, so their first call per degree is timed
wherever it happens.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("lattice", "curves", "ratlp", "cones", "alphabound", "appendix", "stability", "cli")
COUNTER_ONLY = ("lattice",)
COLD = ("curves.minus_one_curves", "curves.fiber_classes")

# a per-call quantity recorded on the span, summed into <name>.<quantity>
QUANTITIES = {
    "curves.disjoint_sets": ("sets_returned", lambda args, result: len(result)),
    "ratlp.solve": ("columns", lambda args, result: len(args[0].objective)),
    "alphabound.certificate": ("components", lambda args, result: len(result.divisor)),
}


class Tracer:
    def __init__(self, package, modules):
        self.spans = []
        self.counts = Counter()
        self.cold_ms = {}
        self.op = None
        self.recording = False
        self._stack = []
        self._bindings = []
        home = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == mod.__name__:
                    home[fn] = f"{layer}.{name}"
        wrappers = {fn: self._wrap(fn, span) for fn, span in home.items()}
        for mod in (package,) + tuple(modules):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, name, obj, wrappers[obj], home[obj] in COLD))

    def _wrap(self, fn, name):
        counts = self.counts
        if name.split(".", 1)[0] in COUNTER_ONLY:

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        spans = self.spans
        stack = self._stack
        measure = QUANTITIES.get(name, (None, None))[1]
        cold = name in COLD

        def spanned(*args, **kwargs):
            if not self.recording:  # paused: only COLD wrappers are installed
                start = perf_counter()
                result = fn(*args, **kwargs)
                self.cold_ms.setdefault(f"{name}.cold_ms.d{args[0].degree}", (perf_counter() - start) * 1e3)
                return result
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                amount = None if measure is None or result is None else measure(args, result)
                spans[index] = (name, start, end, parent, self.op, amount)
            if cold:
                self.cold_ms.setdefault(f"{name}.cold_ms.d{args[0].degree}", (end - start) * 1e3)
            return result

        return spanned

    def install(self):
        self.recording = True
        for mod, name, _, wrapper, _ in self._bindings:
            setattr(mod, name, wrapper)

    def pause(self):
        self.recording = False
        for mod, name, original, _, keep in self._bindings:
            if not keep:
                setattr(mod, name, original)

    def uninstall(self):
        self.recording = False
        for mod, name, original, _, _ in self._bindings:
            setattr(mod, name, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarize(spans, ops):
    """Per-name calls, total ms, self ms and summed quantity over the spans
    whose op is in `ops`.  Self time is the span's duration minus the time
    its direct children cover; calls nest, so children of one span never
    overlap."""
    child_time = defaultdict(float)
    for name, start, end, parent, op, amount in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    total = Counter()
    own = Counter()
    amounts = Counter()
    for index, (name, start, end, parent, op, amount) in enumerate(spans):
        if op not in ops:
            continue
        calls[name] += 1
        total[name] += (end - start) * 1e3
        own[name] += (end - start - child_time[index]) * 1e3
        if amount is not None:
            amounts[name] += amount
    return calls, total, own, amounts

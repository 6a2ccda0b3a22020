"""One benchmark worker: a fresh process that imports kstab, warms up and,
unless --setup-only, measures one workload for a fixed time.

Single process, one closed-loop client: each op starts when the previous
one has finished.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

# fixed per workload, so runs compare at the same percentile; chosen so
# that at least ten samples lie beyond it in a run (the count is reported)
# and it falls inside one kind of op, not on the edge between two: the
# degree-3 checks on check-stream, the alpha-bound requests on
# normalize-sweep, the degree-4 conic bundles on grid-sweep, where p99
# would read scheduler and collector pauses instead
TAIL_PERCENTILE = {"check-stream": 95, "normalize-sweep": 99, "grid-sweep": 90}


class Library:
    """The kstab modules; ops call through module attributes so the tracer's
    wrappers, when installed, see every call."""

    def __init__(self, src: str):
        sys.path.insert(0, src)
        self.package = importlib.import_module("kstab")
        self.modules = [importlib.import_module(f"kstab.{name}") for name in tracing.LAYERS]
        for name, mod in zip(tracing.LAYERS, self.modules):
            setattr(self, name, mod)


_text = W.rational_text


def _components(cert) -> list:
    return [((cls.h,) + cls.e, coeff) for cls, coeff in cert.divisor]


def _render_certificate(cert) -> str:
    parts = " ".join(f"{_text(c)}*{cls}" for cls, c in cert.divisor)
    return f"{parts} bound={_text(cert.bound)} witness={cert.witness_index}"


class CheckStream:
    """`kstab check --json` on a stream of documents."""

    def warmup(self) -> list:
        rng = random.Random(W.DEFAULT_SEED)
        return W.check_round(rng, 0) + W.check_round(rng, 1)

    def round(self, rng, index: int) -> list:
        return W.check_round(rng, index)

    def op(self, lib: Library, text: str) -> str:
        s, l = lib.cli.parse_input(text)
        return lib.cli.render_report(lib.stability.verdict(s, l), "json")

    def verify(self, text: str, out: str):
        return out, checks.report(json.loads(text), out)

    def after_round(self, lib: Library, q: int):
        return None


class NormalizeSweep:
    """`mu` requests, and mu -> face_decompose -> certificate -> comparison."""

    def warmup(self) -> list:
        return W.normalize_round(random.Random(W.DEFAULT_SEED))

    def round(self, rng, index: int) -> list:
        return W.normalize_round(rng)

    def op(self, lib: Library, item):
        kind, degree, mults = item
        s = lib.lattice.SurfaceModel(degree)
        l = lib.lattice.div(mults[0], [-x for x in mults[1:]])
        value = lib.cones.mu(l, s)
        if kind == "mu":
            return value, None, None, None
        cd = lib.cones.face_decompose(value * l, s)
        cert = lib.alphabound.certificate(s, cd)
        return value, cd, cert, lib.alphabound.compare_with_slope(s, cd, cert)

    def verify(self, item, result):
        kind, degree, mults = item
        value, cd, cert, flags = result
        l = (mults[0],) + tuple(-x for x in mults[1:])
        err = checks.mu(degree, l, value)
        text = f"{kind} {degree} mu={_text(value)}"
        if cert is not None:
            text += f" {cd.kind} delta={_text(cd.delta)} {_render_certificate(cert)} {flags}"
            reason, _, limit = checks.certificate(degree, l, _components(cert), cert.bound, value)
            err = err or reason or checks.comparison(flags, cert.bound, limit)
        return text, err

    def after_round(self, lib: Library, q: int):
        return None


class GridSweep:
    """Certificates on the synthetic contraction grid, then the appendix
    inequality grid."""

    def __init__(self):
        self.items = list(W.grid_items())

    def warmup(self) -> list:
        first = {}
        for item in self.items:
            first.setdefault(item[:2], item)
        return list(first.values())

    def round(self, rng, index: int) -> list:
        return W.grid_round(rng, self.items)

    def op(self, lib: Library, item):
        degree, kind, delta, a = item
        lattice, cones, alphabound = lib.lattice, lib.cones, lib.alphabound
        s = lattice.SurfaceModel(degree)
        es, c = W.grid_curves(degree, kind)
        cd = cones.ContractionData(
            kind, delta, a, tuple(lattice.div(x[0], x[1:]) for x in es), None if c is None else lattice.div(c[0], c[1:])
        )
        cert = alphabound.certificate(s, cd)
        return cert, alphabound.compare_with_slope(s, cd, cert)

    def verify(self, item, result):
        degree, kind, delta, a = item
        cert, flags = result
        es, c = W.grid_curves(degree, kind)
        terms = [(checks.anticanonical(degree), Fraction(1))] + list(zip(es, a))
        if c is not None:
            terms.append((c, delta))
        l = checks.combine(terms, 9 - degree)
        reason, _, limit = checks.certificate(degree, l, _components(cert), cert.bound, Fraction(1))
        text = f"{degree} {kind} {_text(delta)} {[_text(x) for x in a]} {_render_certificate(cert)} {flags}"
        return text, reason or checks.comparison(flags, cert.bound, limit)

    def after_round(self, lib: Library, q: int):
        """Run grid_oracle(q); returns (points, seconds, rendered, error)."""
        start = perf_counter()
        rep = lib.appendix.grid_oracle(q)
        elapsed = perf_counter() - start
        text = f"appendix q={q} total={rep.total} equality={len(rep.equality_points)}"
        return rep.total, elapsed, text, checks.appendix(rep.total, rep.failures, W.appendix_total(q, q))


WORKLOADS = {"check-stream": CheckStream, "normalize-sweep": NormalizeSweep, "grid-sweep": GridSweep}


def percentile(ordered: list, p: int):
    """Nearest-rank percentile of sorted samples, with the count beyond it."""
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[rank - 1], len(ordered) - rank


def _run_op(workload, lib, item, errors):
    """Time one op, then check its output; returns (seconds, text, ok)."""
    start = perf_counter()
    try:
        result = workload.op(lib, item)
    except Exception as exc:  # a failed op is counted, not fatal
        elapsed = perf_counter() - start
        errors.append(f"{type(exc).__name__}: {exc}")
        return elapsed, "", False
    elapsed = perf_counter() - start
    try:
        text, reason = workload.verify(item, result)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:  # malformed output
        text, reason = "", f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is not None:
        errors.append(reason)
    return elapsed, text, reason is None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    # set-up is timed in spans, between which the speed meter runs
    setup = speed.SpeedMeter()
    with setup.span():
        lib = Library(args.src)
        tracer = tracing.Tracer(lib.package, lib.modules) if args.trace_out else None
        if tracer is not None:
            tracer.install()
            tracer.op = "warmup"
    errors = []
    digest = hashlib.sha256()
    warm_ok = True
    for item in workload.warmup():
        with setup.span():
            _, text, ok = _run_op(workload, lib, item, errors)
        warm_ok &= ok
        digest.update(text.encode() + b"\n")
    with setup.span():
        extra = workload.after_round(lib, W.WARMUP_APPENDIX_Q)
    if extra is not None:
        warm_ok &= extra[3] is None
        digest.update(extra[2].encode() + b"\n")
    out = {
        "setup_s": sum(setup.scaled()),
        "setup_raw_s": sum(setup.raw),
        "digest": digest.hexdigest(),
        "warmup_ok": warm_ok,
        "kstab_threads_unset": "KSTAB_THREADS" not in os.environ,
    }
    if args.setup_only:
        out["errors"] = errors
        print(json.dumps(out))
        return 0

    rng = random.Random(f"{args.workload}:{args.seed}")
    meter = speed.SpeedMeter()
    traced_flags = []
    traced_ops = set()
    appendix_points = {True: 0, False: 0}
    appendix_seconds = {True: 0.0, False: 0.0}
    attempted = failed = 0
    op_id = 0
    index = 0
    began = perf_counter()
    while True:
        items = workload.round(rng, index)
        # trace pairs of rounds, so both halves of an alternating mix are seen
        traced = tracer is not None and (index // 2) % 2 == 0
        if tracer is not None:
            # recorded spans would otherwise make later collections slower
            gc.freeze()
            tracer.install() if traced else tracer.pause()
        for item in items:
            op_id += 1
            if traced:
                tracer.op = op_id
                traced_ops.add(op_id)
            elapsed, _, ok = _run_op(workload, lib, item, errors)
            meter.add(elapsed)
            traced_flags.append(traced)
            attempted += 1
            failed += not ok
        if traced:
            op_id += 1
            tracer.op = op_id
            traced_ops.add(op_id)
        extra = workload.after_round(lib, W.APPENDIX_Q)
        if extra is not None:
            points, seconds, _, reason = extra
            appendix_points[traced] += points
            appendix_seconds[traced] += seconds
            attempted += 1
            if reason is not None:
                failed += 1
                errors.append(reason)
        index += 1
        # a traced run needs two traced and two untraced rounds
        if perf_counter() - began >= args.seconds and (tracer is None or index >= 4):
            break
    if tracer is not None:
        tracer.uninstall()

    latencies = meter.scaled()
    ordered = sorted(latencies)
    raw = sorted(meter.raw)
    p = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(ordered, p)
    out.update(
        {
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:20],
            "rounds": index,
            "measured_s": perf_counter() - began,
            "ops": len(latencies),
            "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_ms": percentile(ordered, 50)[0] * 1e3,
            "latency_tail_ms": tail * 1e3,
            "tail_percentile": p,
            "tail_samples_beyond": beyond,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "raw": {
                "throughput_ops_s": len(raw) / sum(raw),
                "latency_p50_ms": percentile(raw, 50)[0] * 1e3,
                "latency_tail_ms": percentile(raw, p)[0] * 1e3,
            },
            "reference_ms": [x * 1e3 for x in meter.references],
            "latencies_ms": [x * 1e3 for x in latencies],
            "appendix_points_per_s": appendix_points[False] / appendix_seconds[False] if appendix_seconds[False] else None,
        }
    )
    if tracer is not None:
        tracer.write(args.trace_out)
        out["per_layer"] = per_layer(tracer, traced_ops, traced_flags, meter, out["appendix_points_per_s"])
    print(json.dumps(out))
    return 0


PER_LAYER_SPANS = {
    "curves.disjoint_sets": ("calls", "time_ms", "self_ms", "sets_returned"),
    "ratlp.solve": ("calls", "time_ms", "self_ms", "columns"),
    "ratlp.cone_member": ("calls", "time_ms"),
    "cones.mu": ("calls", "calls_per_op", "time_ms"),
    "cones.face_decompose": ("calls", "time_ms", "self_ms"),
    "cones.ample_violation": ("calls_per_op",),
    "cones.is_nef": ("calls", "time_ms"),
    "alphabound.certificate": ("calls", "time_ms", "components"),
    "alphabound.compare_with_slope": ("time_ms",),
    "appendix.grid_oracle": ("time_ms",),
    "appendix.prop_a1": ("calls",),
    "stability.verdict": ("self_ms",),
    "cli.parse_input": ("time_ms",),
    "cli.render_report": ("time_ms",),
}
COLD_DEGREES = {"curves.minus_one_curves": range(1, 9), "curves.fiber_classes": range(4, 8)}


def per_layer(tracer, traced_ops, traced_flags, meter, appendix_points_per_s) -> dict:
    """Per-layer metrics over the traced rounds, with units, plus the
    tracing overhead: the drop from untraced to traced throughput, both at
    the reference speed."""
    calls, total, own, amounts = tracing.summarize(tracer.spans, traced_ops)
    ops = sum(traced_flags)
    metrics = {}
    for name, quantities in PER_LAYER_SPANS.items():
        for quantity in quantities:
            metrics[f"{name}.{quantity}"] = {
                "calls": (calls[name], "count"),
                "time_ms": (total[name], "ms"),
                "self_ms": (own[name], "ms"),
                "calls_per_op": (calls[name] / ops, "count/op"),
            }.get(quantity, (amounts[name], "count"))
    for name, degrees in COLD_DEGREES.items():
        for d in degrees:
            key = f"{name}.cold_ms.d{d}"
            metrics[key] = (tracer.cold_ms.get(key, 0.0), "ms")
    metrics["lattice.intersect.calls"] = (tracer.counts["lattice.intersect"], "count")
    metrics["appendix.grid_oracle.points_per_s"] = (appendix_points_per_s or 0.0, "1/s")
    op_ms = sum(x for x, flag in zip(meter.raw, traced_flags) if flag) * 1e3
    metrics["curves.disjoint_sets.share_pct"] = (100 * total["curves.disjoint_sets"] / op_ms, "%")
    metrics["ratlp.solve.share_pct"] = (100 * total["ratlp.solve"] / op_ms, "%")
    busy = {True: 0.0, False: 0.0}
    for x, flag in zip(meter.scaled(), traced_flags):
        busy[flag] += x
    traced = ops / busy[True]
    untraced = (len(traced_flags) - ops) / busy[False]
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.throughput_traced_ops_s"] = (traced, "1/s")
    metrics["trace.throughput_untraced_ops_s"] = (untraced, "1/s")
    metrics["trace.overhead_pct"] = (100 * (untraced - traced) / untraced, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())

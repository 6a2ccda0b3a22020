"""kstab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload check-stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics from a traced run.  A run
record (interpreter, cpu count, git SHA, seed, sample counts, errors) and
any span file go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("check-stream", "normalize-sweep", "grid-sweep")
# set-up is timed in fresh workers, at least SETUP_RUNS of them and for at
# least SETUP_SECONDS, so cheap set-ups get more samples; the last worker
# goes on to the measured loop, and the median is reported
SETUP_RUNS = 4
SETUP_SECONDS = 3.0
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def run_worker(args, env, deadline, *extra):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--src", str(SRC),
        *extra,
    ]
    # subprocess.run kills and reaps the worker if it outlives the deadline
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - perf_counter())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (SRC / "kstab" / "__init__.py").is_file():
        print(f"error: no kstab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # byte-compile the library as an install would, so set-up never includes
    # compiling it, whether or not the environment lets workers write bytecode
    compileall.compile_dir(str(SRC / "kstab"), quiet=1)
    env = {k: v for k, v in os.environ.items() if k != "KSTAB_THREADS"}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    try:
        if args.trace:
            final = run_worker(args, env, deadline, "--trace-out", str(OUT / f"{tag}.spans.jsonl"))
        else:
            began = perf_counter()
            while len(setups) < SETUP_RUNS - 1 or perf_counter() - began < SETUP_SECONDS:
                setups.append(run_worker(args, env, deadline, "--setup-only"))
            final = run_worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    workers = setups + [final]

    expected = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    digests = {w["digest"] for w in workers}
    correct = (
        final["failed"] == 0
        and all(w["warmup_ok"] and w["kstab_threads_unset"] for w in workers)
        and digests == {expected}
    )
    if args.trace:
        metrics = final["per_layer"]
    else:
        values = dict(final, setup_s=statistics.median(w["setup_s"] for w in workers))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "kstab_threads_unset": all(w["kstab_threads_unset"] for w in workers),
        "setup_s_samples": [w["setup_s"] for w in workers],
        "setup_raw_s_samples": [w["setup_raw_s"] for w in workers],
        "digest": sorted(digests),
        "digest_expected": expected,
        "error_rate": final["failed"] / final["attempted"],
        **{k: final[k] for k in ("attempted", "failed", "errors", "rounds", "ops", "measured_s")},
        "latency_samples": final["ops"],
        "tail_percentile": final["tail_percentile"],
        "tail_samples_beyond": final["tail_samples_beyond"],
        "appendix_points_per_s": final["appendix_points_per_s"],
        "metrics": metrics,
        "raw_metrics": final["raw"],
        "reference_ms": final["reference_ms"],
        "latencies_ms": final["latencies_ms"],
    }
    (OUT / f"{tag}.record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"{args.workload} seed={args.seed}: {final['ops']} ops, p{final['tail_percentile']} has "
        f"{final['tail_samples_beyond']} samples beyond, {final['failed']} failed, record in {OUT.name}/{tag}.record.json",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": final["attempted"], "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

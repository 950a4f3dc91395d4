"""dequelab benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload grid --seed 1 --seconds 30 --trace 0

The run imports dequelab from ./src, builds the workload's inputs from the
seed, then repeats whole rounds of the workload's operations until
--seconds have passed, checks the outputs of the program and prints one
JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics wall_s (mean seconds per round),
setup_s (median of several set-ups) and peak_rss_mb; both times are scaled
to a reference machine speed measured by reference_kernel().  --trace 1 alternates
untraced and traced rounds, reports the per-layer metrics of the traced
rounds and the tracing overhead, and writes its spans to
benchmarks/out/trace-<workload>-seed<seed>.json.  The exit code is 0 when
every check passed, 1 when a check failed and 2 when the program or the
functions the benchmark wraps are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("grid", "transient", "heavy")
# The import of numpy and scipy dominates set-up and varies from process to
# process, so set-up is measured in this many processes and the median kept.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# Time of reference_kernel() at the reference speed.  Timings are scaled by
# KERNEL_REF_S / (kernel time measured next to them); see README.md.
KERNEL_REF_S = 0.050
SEGMENT_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit (used for the setup_s samples)")
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, work_dir: Path):
    """Import dequelab with numpy and scipy and build the inputs; (seconds, package, workload)."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import dequelab
    import workloads

    instance = workloads.WORKLOADS[workload](seed, work_dir)
    return time.perf_counter() - start, dequelab, instance


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work that gauges the machine's current speed.

    The machine this benchmark was tuned on changes speed by up to 1.5x for
    minutes at a time, and the program's code slows with it.  The kernel
    mixes what the workloads spend their time on: a heap-driven event loop
    in pure Python and small-vector numpy updates.  It is part of the
    benchmark, so it stays the same on both sides of a comparison.
    """
    import heapq
    import random

    import numpy as np

    start = time.perf_counter()
    rng = random.Random(5)
    heap, table, x = [], {}, 0
    for i in range(60000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 20:
            table[heapq.heappop(heap)[1] & 1023] = x
        x += 1 if rng.random() < 0.5 else -1
    p = np.zeros(201)
    p[100] = 1.0
    rate = np.linspace(0.5, 1.5, 201)
    for _ in range(1500):
        dp = -rate * p
        dp[1:] += rate[:-1] * p[:-1]
        p = p + 0.001 * dp
    return time.perf_counter() - start


def setup_sample(args) -> tuple[float, float]:
    """(set-up seconds, kernel seconds) measured in a fresh interpreter running --setup-only.

    The kernel time is the mean of a run here just before the interpreter
    starts and one in the interpreter just after its set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    kernel = reference_kernel()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["setup_s"], 0.5 * (kernel + sample["kernel_s"])


def timed_round(instance):
    """Run one round; (seconds, seconds scaled to the reference speed, attempted, failed, segments).

    The round is cut into segments of at least SEGMENT_S at operation
    boundaries.  reference_kernel() runs between segments, outside the timed
    time, and each segment is scaled by KERNEL_REF_S over the mean kernel time
    on its two sides.  segments holds (segment start time, factor).
    """
    seconds = scaled = 0.0
    attempted = failed = 0
    segments = []
    kernel_before = reference_kernel()
    start = time.perf_counter()
    operations = instance.run_round()
    while True:
        step = next(operations, None)
        now = time.perf_counter()
        if step is not None:
            attempted += step[0]
            failed += step[1]
            if now - start < SEGMENT_S:
                continue
        kernel_after = reference_kernel()
        factor = KERNEL_REF_S / (0.5 * (kernel_before + kernel_after))
        segments.append((start, factor))
        seconds += now - start
        scaled += (now - start) * factor
        if step is None:
            return seconds, scaled, attempted, failed, segments
        kernel_before = kernel_after
        start = time.perf_counter()


def run_rounds(instance, seconds: float, tracer):
    """Whole rounds for about `seconds`; with a tracer every second round is traced.

    A round starts only if a round of mean length still ends in time, so a
    run overruns `seconds` only when its first rounds do.  Returns per-round
    (seconds, scaled seconds, traced, first span, end span), attempted, failed.
    """
    rounds = []
    attempted = failed = 0
    min_rounds = 2 if tracer else 1
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        first = tracer.mark() if traced else 0
        if traced:
            tracer.install()
        try:
            elapsed, scaled_s, a, f, segments = timed_round(instance)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.rescale(first, segments)
        rounds.append((elapsed, scaled_s, traced, first, tracer.mark() if traced else 0))
        attempted += a
        failed += f
        spent = time.perf_counter() - begin
        if len(rounds) >= min_rounds and spent + spent / len(rounds) > seconds:
            return rounds, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dequelab" / "__init__.py").is_file():
        print(f"error: no dequelab package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work_dir = OUT_DIR / f"{args.workload}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        setup_s, package, instance = set_up(args.workload, args.seed, work_dir)
        setup = (setup_s, reference_kernel())
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "kernel_s": setup[1]}))
            return 0
        return measure(args, setup, package, instance)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, setup: tuple[float, float], package, instance) -> int:
    import tracing

    try:
        tracer = tracing.Tracer(package) if args.trace else None
    except tracing.MissingFunctionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rounds, attempted, failed = run_rounds(instance, args.seconds, tracer)
    untraced = [r for r in rounds if not r[2]]

    if args.trace:
        traced = [r for r in rounds if r[2]]
        metrics = tracing.summarize(tracer, [(lo, hi) for *_, lo, hi in traced])
        metrics["trace.overhead_s"] = statistics.fmean(r[1] for r in traced) - statistics.fmean(r[1] for r in untraced)
        units = dict(tracing.PER_LAYER_METRICS)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed,
                                  "rounds": [{"seconds": r[0], "scaled_s": r[1], "traced": r[2]} for r in rounds]})
        missing = tracing.missing_calls(tracer, instance.expected_calls)
        if missing:
            print(f"error: {args.workload} recorded no span for {', '.join(missing)}; "
                  "benchmarks/README.md says this workload calls them", file=sys.stderr)
            return 2
    else:
        setups = [setup] + [setup_sample(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = {
            "wall_s": statistics.fmean(r[1] for r in untraced),
            "setup_s": statistics.median(t * KERNEL_REF_S / kernel for t, kernel in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"{args.workload} unscaled wall_s {statistics.fmean(r[0] for r in untraced):.6g} s "
              f"setup_s {statistics.median(s[0] for s in setups):.6g} s")

    problems = instance.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} rounds {len(rounds)} attempted {attempted} failed {failed}")
    print(f"{args.workload} round_s " + " ".join(f"{r[0]:.3f}/{r[1]:.3f}" for r in rounds), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

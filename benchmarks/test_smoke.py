"""Smoke test of the benchmark: every workload at the smallest budget.

Run from the repository root with

    python -m pytest benchmarks/test_smoke.py

It is not part of the tier-1 suite, whose testpaths name only tests/.  With
--seconds 0 a traced run does exactly two rounds, one untraced and one traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Operations per round, and failed operations per round from the known fault:
# gamma_moment_summary overflows at 11 points of the heavy workload's sweep.
PER_ROUND = {"grid": (36, 0), "transient": (21, 0), "heavy": (62, 11)}


def declared_metrics(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares under `kind`."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


def reported_metrics(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def run_benchmark(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(PER_ROUND))
def test_traced_workload_passes_its_checks(workload):
    result = run_benchmark(workload, trace=1)
    per_round, fails_per_round = PER_ROUND[workload]
    assert result["correct"]
    assert result["attempted"] == 2 * per_round
    assert result["failed"] == 2 * fails_per_round
    assert reported_metrics(result) == declared_metrics("per_layer")


def test_untraced_run_reports_end_to_end_metrics():
    result = run_benchmark("grid", trace=0)
    assert result["correct"]
    assert reported_metrics(result) == declared_metrics("end_to_end")
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


def test_every_wrapped_function_exists():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import dequelab
    import tracing

    tracing.Tracer(dequelab)  # raises MissingFunctionError naming the first missing one

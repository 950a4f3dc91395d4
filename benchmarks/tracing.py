"""In-memory span recording around the public functions of dequelab.

The benchmark wraps the public functions of des, poisson_ctmc, diffusion,
fluid and harness from here, so the package itself carries no tracing.  A
span records its name, start, end, the span that was open when it started
(its parent), the exception it ended with, and a few counts taken from the
call's arguments or result.  Wrappers are installed only for traced rounds
and removed again, so untraced rounds run the original functions.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Every function the benchmark wraps, as "module.attr" or "module.Class.method".
# A name missing from the package is an error: a layer whose function was
# renamed away would otherwise read as zero busy time.
WRAPPED = (
    "des.run_replication",
    "des.estimate",
    "des.scaled_stationary_histogram",
    "poisson_ctmc.stationary_distribution",
    "poisson_ctmc.gamma_moment_summary",
    "poisson_ctmc.poisson_moment_estimates",
    "poisson_ctmc.transient_moments",
    "poisson_ctmc.second_moment_lower_bound",
    "poisson_ctmc.limiting_expectation",
    "poisson_ctmc.asymptotic_moment_approximations",
    "diffusion.psi_density",
    "diffusion.psi_moments",
    "diffusion.PsiDensity.pdf",
    "diffusion.PsiDensity.cdf",
    "diffusion.model_one",
    "diffusion.model_two",
    "diffusion.ou_closed_form_moments",
    "diffusion.simulate_sde_path",
    "diffusion.stationary_samples",
    "fluid.fluid_limit",
    "fluid.zero_hitting_time",
    "fluid.fluid_closed_form",
    "fluid.fluid_closed_form_path",
    "fluid.fluid_integrate",
    "harness.run_comparison",
    "harness.export_density_comparison",
    "harness.heavy_traffic_density",
    "harness.psi_density_grid",
    "harness.comparison_to_csv",
    "harness.comparison_to_json",
    "harness.run_compare_command",
)

# Layer -> the wrapped functions whose spans make up its busy time.
LAYERS = {
    "des": ("des.run_replication", "des.estimate", "des.scaled_stationary_histogram"),
    "poisson_ctmc.transient": ("poisson_ctmc.transient_moments",),
    "poisson_ctmc.stationary": ("poisson_ctmc.stationary_distribution",),
    "poisson_ctmc.gamma": ("poisson_ctmc.gamma_moment_summary",),
    "diffusion.sde": ("diffusion.stationary_samples", "diffusion.simulate_sde_path"),
    "diffusion.psi": ("diffusion.PsiDensity.pdf", "diffusion.PsiDensity.cdf"),
    "diffusion.models": ("diffusion.model_one", "diffusion.model_two"),
    "diffusion.ou_transient": ("diffusion.ou_closed_form_moments",),
    "fluid": (
        "fluid.fluid_limit",
        "fluid.zero_hitting_time",
        "fluid.fluid_closed_form",
        "fluid.fluid_closed_form_path",
        "fluid.fluid_integrate",
    ),
}

HARNESS_SELF = ("harness.run_compare_command", "harness.export_density_comparison")

PER_LAYER_METRICS = (
    ("des.busy_s", "s"),
    ("des.calls", "count"),
    ("des.arrivals_per_s", "1/s"),
    ("poisson_ctmc.transient.busy_s", "s"),
    ("poisson_ctmc.transient.calls", "count"),
    ("poisson_ctmc.transient.support_states", "count"),
    ("poisson_ctmc.stationary.busy_s", "s"),
    ("poisson_ctmc.stationary.calls", "count"),
    ("poisson_ctmc.stationary.support_states", "count"),
    ("poisson_ctmc.gamma.busy_s", "s"),
    ("poisson_ctmc.gamma.calls", "count"),
    ("poisson_ctmc.gamma.failed", "count"),
    ("diffusion.sde.busy_s", "s"),
    ("diffusion.sde.path_steps_per_s", "1/s"),
    ("diffusion.psi.busy_s", "s"),
    ("diffusion.psi.cdf_points_per_s", "1/s"),
    ("diffusion.models.busy_s", "s"),
    ("diffusion.ou_transient.busy_s", "s"),
    ("fluid.busy_s", "s"),
    ("harness.self_s", "s"),
    ("harness.bytes_written", "B"),
    ("trace.overhead_s", "s"),
)


class MissingFunctionError(RuntimeError):
    """A function the benchmark wraps no longer exists in the package."""


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _estimate_counts(fn, args, kwargs, result) -> dict:
    scenario = _bound(fn, args, kwargs)["scenario"]
    rates = scenario.seller_model.rate + scenario.buyer_model.rate
    return {"arrivals": rates * scenario.horizon * scenario.replications}


def _support_counts(fn, args, kwargs, result) -> dict:
    return {"support_states": 2 * int(result.support_bound) + 1}


def _sde_counts(fn, args, kwargs, result) -> dict:
    call = _bound(fn, args, kwargs)
    steps = int(round(call["horizon"] / call["step"]))
    return {"path_steps": steps * int(call.get("n_paths", 1))}


def _cdf_counts(fn, args, kwargs, result) -> dict:
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["x"]))}


def _written_counts(fn, args, kwargs, result) -> dict:
    return {"bytes": sum(os.path.getsize(path) for path in result)}


# Counts recorded on a span, computed from the inputs or the result so they
# do not depend on the sample path a simulator draws.
_COUNTS = {
    "des.estimate": _estimate_counts,
    "poisson_ctmc.transient_moments": _support_counts,
    "poisson_ctmc.stationary_distribution": _support_counts,
    "diffusion.stationary_samples": _sde_counts,
    "diffusion.simulate_sde_path": _sde_counts,
    "diffusion.PsiDensity.cdf": _cdf_counts,
    "harness.run_compare_command": _written_counts,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)
    # factor to the reference speed of the segment the span ran in (run.py)
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * self.scale


def _resolve(package, dotted: str):
    """(owner, attribute, function) for "module.attr" or "module.Class.method"."""
    parts = dotted.split(".")
    owner = importlib.import_module(f"{package.__name__}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    if not callable(fn):
        raise MissingFunctionError(f"{package.__name__}.{dotted} does not exist; update benchmarks/tracing.py")
    return owner, parts[-1], fn


class Tracer:
    """Span recorder; install() swaps wrappers in, uninstall() restores originals."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._targets = [(dotted, *_resolve(package, dotted)) for dotted in WRAPPED]
        self._wrapped = [(owner, attr, self._wrap(dotted, fn)) for dotted, owner, attr, fn in self._targets]

    def _wrap(self, name: str, fn):
        counts = _COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, wrapped in self._wrapped:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for _, owner, attr, fn in self._targets:
            setattr(owner, attr, fn)

    def mark(self) -> int:
        return len(self.spans)

    def rescale(self, first: int, segments: list[tuple[float, float]]) -> None:
        """Give spans from index `first` on the factor of the segment they started in.

        segments holds (segment start time, factor) in time order.
        """
        starts = [start for start, _ in segments]
        for span in self.spans[first:]:
            span.scale = segments[bisect.bisect_right(starts, span.start) - 1][1]

    def write(self, path, header: dict) -> None:
        payload = dict(header)
        payload["spans"] = [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "error": s.error, "counts": s.counts, "scale": s.scale}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _union_busy(spans: list[Span], all_spans: list[Span], names: set[str]) -> tuple[float, list[Span]]:
    """Busy time of a layer: spans with no ancestor in the same layer.

    Nested spans of one layer lie inside their outermost one, so summing the
    outermost spans gives the time the layer was busy, counted once.  A
    span's id is its index in all_spans.
    """
    outer = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and all_spans[parent].name not in names:
            parent = all_spans[parent].parent
        if parent is None:
            outer.append(span)
    return sum(s.seconds for s in outer), outer


def _self_time(spans: list[Span], names: set[str]) -> float:
    """Summed duration of the named spans minus the time their child spans cover."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
    return sum(s.seconds - child_time.get(s.id, 0.0) for s in spans if s.name in names)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0.0 else 0.0


def round_metrics(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round, from the spans it recorded."""
    out: dict[str, float] = {}
    layer_spans = {}
    for layer, names in LAYERS.items():
        busy, outer = _union_busy(spans, all_spans, set(names))
        out[f"{layer}.busy_s"] = busy
        layer_spans[layer] = [s for s in spans if s.name in names]
        out[f"{layer}.calls"] = float(len(outer))

    des_arrivals = sum(s.counts.get("arrivals", 0.0) for s in spans if s.name == "des.estimate")
    out["des.arrivals_per_s"] = _ratio(des_arrivals, out["des.busy_s"])
    for layer in ("poisson_ctmc.transient", "poisson_ctmc.stationary"):
        out[f"{layer}.support_states"] = float(
            sum(s.counts.get("support_states", 0) for s in layer_spans[layer])
        )
    out["poisson_ctmc.gamma.failed"] = float(
        sum(1 for s in layer_spans["poisson_ctmc.gamma"] if s.error == "NumericalOverflowError")
    )
    steps = sum(s.counts.get("path_steps", 0) for s in layer_spans["diffusion.sde"])
    out["diffusion.sde.path_steps_per_s"] = _ratio(steps, out["diffusion.sde.busy_s"])
    cdf_spans = [s for s in spans if s.name == "diffusion.PsiDensity.cdf"]
    out["diffusion.psi.cdf_points_per_s"] = _ratio(
        sum(s.counts["points"] for s in cdf_spans), sum(s.seconds for s in cdf_spans)
    )
    out["harness.self_s"] = _self_time(spans, set(HARNESS_SELF))
    out["harness.bytes_written"] = float(sum(s.counts.get("bytes", 0) for s in spans))
    return {name: out[name] for name, _ in PER_LAYER_METRICS if name in out}


def summarize(tracer: Tracer, round_marks: list[tuple[int, int]]) -> dict[str, float]:
    """Median over traced rounds of each per-layer metric.

    round_marks holds (first span index, end span index) for each traced round.
    """
    per_round = [round_metrics(tracer.spans[lo:hi], tracer.spans) for lo, hi in round_marks]
    return {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}


def missing_calls(tracer: Tracer, expected: tuple[str, ...]) -> list[str]:
    seen = {s.name for s in tracer.spans}
    return [name for name in expected if name not in seen]

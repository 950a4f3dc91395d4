"""The benchmark's three workloads: inputs, one round of operations, checks.

Each workload builds its inputs from the seed in its constructor (timed as
set-up), runs one fixed round of operations per run_round() call (timed), and
checks the outputs of its last round in check() (not timed).  run_round() is
a generator that yields (attempted, failed) after each operation or group of
operations, so the caller can gauge the machine's speed between them.  Every check
compares against a computation made apart from the code under test, or
against a property the method must have.  See README.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

from dequelab import NumericalOverflowError, QueueParams, RandomStream, cli, des, diffusion, fluid, poisson_ctmc

# CSV header of comparison.csv as documented in the package README.
DOCUMENTED_CSV_HEADER = (
    "dist,alpha,beta,theta,gamma,"
    "L1_s,L1_s_ci,L1_p,L1_p_err,L1_d1,L1_d1_err,L1_d2,L1_d2_err,"
    "L2_s,L2_s_ci,L2_p,L2_p_err,L2_d1,L2_d1_err,L2_d2,L2_d2_err"
)

# Interarrival sd times the rate, per family, under the diffusion tables'
# nominal convention documented in the package README (exponential: 1/sqrt(rate)
# instead of 1/rate, so that family is handled in nominal_a_sq).
_SD_TIMES_RATE = {
    "uniform": 1.0 / math.sqrt(3.0),
    "erlang": 1.0 / math.sqrt(2.0),
    "hyperexponential": math.sqrt(2.0),
}

# A simulated moment may sit this many 90% CI half-widths from its target.
CI_WIDTHS = 5.0


def nominal_a_sq(family: str, alpha: float, beta: float) -> float:
    """a^2 = alpha^3 sigma^2 + beta^3 varsigma^2 with the README's nominal sds."""
    if family == "exponential":
        return alpha**2 + beta**2
    k = _SD_TIMES_RATE[family] ** 2
    return k * (alpha + beta)


def fluid_fixed_point(alpha: float, beta: float, theta: float, gamma: float) -> float:
    return (alpha - beta) / theta if alpha >= beta else (alpha - beta) / gamma


def _close(value: float, target: float, rel: float, scale: float | None = None) -> bool:
    return abs(value - target) <= rel * max(abs(target), scale or 0.0, 1e-300)


class Grid:
    """`dequelab compare` on the default 36-cell grid, through cli.main.

    One operation is one grid cell.
    """

    name = "grid"
    families = ("exponential", "uniform", "erlang", "hyperexponential")
    rate_pairs = ((1.0, 1.0), (1.0, 1.5), (1.0, 2.0))
    multipliers = (1.0, 0.1, 0.01)
    budget = {"replications": 10, "warmup": 200.0, "horizon": 700.0}
    # Largest total-variation distance between the simulated pmf and the chain
    # pmf of an exponential cell at this budget, per reneging multiplier.  Over
    # ten seeds the largest seen were 0.026, 0.061 and 0.17; slow reneging
    # mixes slowly, so its pmf is the noisiest.
    tv_max = {1.0: 0.05, 0.1: 0.12, 0.01: 0.3}
    expected_calls = (
        "des.estimate",
        "poisson_ctmc.stationary_distribution",
        "poisson_ctmc.gamma_moment_summary",
        "diffusion.model_one",
        "diffusion.model_two",
        "diffusion.PsiDensity.pdf",
        "diffusion.PsiDensity.cdf",
        "harness.run_compare_command",
        "harness.export_density_comparison",
    )

    def __init__(self, seed: int, work_dir: Path):
        self.out = work_dir / "compare"
        config = work_dir / "grid-config.json"
        config.write_text(json.dumps({
            "families": ["exp", "uniform", "erlang2", "hyperexp"],
            "rate_pairs": [list(p) for p in self.rate_pairs],
            "reneging_multipliers": list(self.multipliers),
            "budget": self.budget,
            "histogram_bound": 1000,
        }), encoding="utf-8")
        self.argv = ["compare", "--config", str(config), "--seed", str(seed), "--out", str(self.out)]
        self.cells = len(self.families) * len(self.rate_pairs) * len(self.multipliers)
        self.exit_codes: list[int] = []

    def run_round(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        self.exit_codes.append(code)
        yield self.cells, 0 if code == 0 else self.cells

    def check(self) -> list[str]:
        problems = []
        if any(code != 0 for code in self.exit_codes):
            return [f"compare exited with {sorted(set(self.exit_codes))}"]
        header = (self.out / "comparison.csv").read_text(encoding="utf-8").splitlines()[0]
        if header != DOCUMENTED_CSV_HEADER:
            problems.append(f"CSV header differs from README: {header}")
        rows = json.loads((self.out / "comparison.json").read_text(encoding="utf-8"))
        densities = sorted(p.name for p in (self.out / "density").glob("*.csv"))
        expected_files = []
        expected_cells = []
        for family in self.families:
            for alpha, beta in self.rate_pairs:
                for mult in self.multipliers:
                    expected_cells.append((family, alpha, beta, mult * alpha, mult * beta))
                    expected_files.append(f"{family}_a{alpha:g}_b{beta:g}_m{mult:g}.csv")
        if densities != sorted(expected_files):
            problems.append(f"density files: {len(densities)} written, {len(expected_files)} expected")
        got_cells = [(r["family"], r["alpha"], r["beta"], r["theta"], r["gamma"]) for r in rows]
        if got_cells != expected_cells:
            return problems + ["comparison.json cells differ from the configured grid"]
        for row, name in zip(rows, expected_files):
            problems += self._check_row(row, name)
        return problems

    def _check_row(self, r: dict, density_file: str) -> list[str]:
        fam, alpha, beta, theta, gamma = r["family"], r["alpha"], r["beta"], r["theta"], r["gamma"]
        cell = f"{fam} ({alpha:g},{beta:g},{theta:g},{gamma:g})"
        problems = []
        if not _close(r["L1_d2"], fluid_fixed_point(alpha, beta, theta, gamma), 1e-12, 1.0):
            problems.append(f"{cell}: L1_d2={r['L1_d2']} is not the fluid fixed point")
        if alpha == beta:
            target = nominal_a_sq(fam, alpha, beta) / (2.0 * theta)
            if not _close(r["L2_d1"], target, 1e-9):
                problems.append(f"{cell}: L2_d1={r['L2_d1']} != a^2/(2 theta)={target}")
            if abs(r["L1_s"]) > CI_WIDTHS * r["L1_s_ci"]:
                problems.append(f"{cell}: L1_s={r['L1_s']} not within {CI_WIDTHS} CI of 0 (ci {r['L1_s_ci']})")
        if fam != "exponential":
            return problems
        pmf = poisson_ctmc.stationary_distribution(QueueParams(alpha, beta, theta, gamma), 1e-12)
        mean, second = pmf.mean(), pmf.second_moment()
        if not _close(r["L1_p"], mean, 1e-9, math.sqrt(second)):
            problems.append(f"{cell}: L1_p={r['L1_p']} vs summed pmf {mean}")
        if not _close(r["L2_p"], second, 1e-9):
            problems.append(f"{cell}: L2_p={r['L2_p']} vs summed pmf {second}")
        if abs(r["L1_s"] - mean) > CI_WIDTHS * r["L1_s_ci"]:
            problems.append(f"{cell}: L1_s={r['L1_s']} not within {CI_WIDTHS} CI of {mean} (ci {r['L1_s_ci']})")
        with open(self.out / "density" / density_file, newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        states = np.array([int(t["x"]) for t in table])
        sim = np.array([float(t["pi_sim"]) for t in table])
        chain = np.array([pmf.prob(int(s)) for s in states])
        tv = 0.5 * float(np.abs(sim - chain).sum()) + 0.5 * abs(sim.sum() - chain.sum())
        tv_max = self.tv_max[theta / alpha]
        if tv > tv_max:
            problems.append(f"{cell}: TV(simulated, chain)={tv:.4f} > {tv_max}")
        return problems


class Transient:
    """Time-dependent moments of the chain, the O-U formulas and the fluid path.

    One operation is one call.  The seed moves the interior time points.
    """

    name = "transient"
    # (label, (alpha, beta, theta, gamma), start, t_end, leak_tol, converged)
    # start is an integer point mass or "stationary"; converged cases run long
    # enough for the last point to sit within 1e-4 of the limiting moments.
    cases = (
        ("balanced, theta=gamma, from 0", (1.0, 1.0, 0.5, 0.5), 0, 14.0, 1e-8, True),
        ("unbalanced, theta=gamma, far side", (1.0, 1.5, 0.5, 0.5), 3, 8.0, 1e-8, False),
        ("unbalanced, theta!=gamma, stationary", (1.0, 1.5, 0.1, 0.15), "stationary", 10.0, 1e-8, True),
        ("unbalanced, theta!=gamma, from 0", (2.0, 1.0, 1.0, 0.5), 0, 12.0, 1e-8, True),
        # the tight leak tolerance makes the automatic box double once
        ("small reneging, growing box", (1.0, 1.0, 0.02, 0.02), 0, 30.0, 1e-30, False),
    )
    fractions = (0.05, 0.1, 0.2, 0.4, 0.7)
    expected_calls = (
        "poisson_ctmc.transient_moments",
        "poisson_ctmc.second_moment_lower_bound",
        "diffusion.ou_closed_form_moments",
        "fluid.fluid_closed_form_path",
        "fluid.fluid_integrate",
    )

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(seed)
        self.inputs = []
        for label, rates, start, t_end, leak_tol, converged in self.cases:
            params = QueueParams(*rates)
            if start == "stationary":
                initial = poisson_ctmc.stationary_distribution(params, 1e-12)
                m0, s0 = initial.mean(), initial.second_moment()
            else:
                initial = {start: 1.0}
                m0, s0 = float(start), float(start) ** 2
            grid = [0.0] + [t_end * f * rng.uniform(0.9, 1.1) for f in self.fractions] + [t_end]
            theta, gamma = rates[2], rates[3]
            self.inputs.append({
                "label": label, "params": params, "initial": initial, "m0": m0, "s0": s0,
                "grid": np.array(grid), "leak_tol": leak_tol, "converged": converged,
                "ou_params": QueueParams.for_family("exponential", *rates),
                "ou_grid": np.array(grid[1:] + [40.0 / theta]),
                "fluid_step": 0.01 / max(theta, gamma), "fluid_horizon": 10.0 / min(theta, gamma),
            })
        self.outputs: list[dict] = []

    def run_round(self):
        self.outputs = []
        for case in self.inputs:
            p = case["params"]
            out = {"tm": poisson_ctmc.transient_moments(p, case["initial"], case["grid"], leak_tol=case["leak_tol"])}
            self.outputs.append(out)
            yield 1, 0
            if p.theta == p.gamma:
                out["lower"] = poisson_ctmc.second_moment_lower_bound(p, case["m0"], case["s0"], case["grid"])
                yield 1, 0
                out["ou"] = diffusion.ou_closed_form_moments(
                    case["ou_params"], 0.0, 0.0, p.alpha - p.beta, case["ou_grid"], x0=case["m0"]
                )
                yield 1, 0
            out["closed"] = fluid.fluid_closed_form_path(p, case["m0"], case["fluid_step"], case["fluid_horizon"])
            yield 1, 0
            out["rk4"] = fluid.fluid_integrate(p, case["m0"], case["fluid_step"], case["fluid_horizon"])
            yield 1, 0

    def check(self) -> list[str]:
        problems = []
        for case, out in zip(self.inputs, self.outputs):
            problems += [f"{case['label']}: {msg}" for msg in self._check_case(case, out)]
        return problems

    @staticmethod
    def _check_case(case: dict, out: dict) -> list[str]:
        p, tm, grid = case["params"], out["tm"], case["grid"]
        problems = []
        if not tm.max_boundary_mass <= case["leak_tol"]:
            problems.append(f"max_boundary_mass {tm.max_boundary_mass:.3e} > leak_tol {case['leak_tol']:.0e}")
        if p.theta == p.gamma:
            limit = (p.alpha - p.beta) / p.theta
            closed = limit + (case["m0"] - limit) * np.exp(-p.theta * grid)
            err = float(np.abs(tm.m - closed).max())
            if err > 1e-6:
                problems.append(f"|m - closed form| = {err:.2e} > 1e-6")
            if not np.all(tm.s >= out["lower"] - 1e-9):
                problems.append("s(t) falls below second_moment_lower_bound")
            a_sq = case["ou_params"].diffusion_coeff_sq
            z_limit = (a_sq + abs(p.alpha - p.beta)) / (2.0 * p.theta)
            if not _close(float(out["ou"].z_second[-1]), z_limit, 1e-6):
                problems.append(f"O-U z_second -> {out['ou'].z_second[-1]}, expected {z_limit}")
        if isinstance(case["initial"], poisson_ctmc.StationaryPmf):
            scale = math.sqrt(case["s0"])
            if not (np.all(np.abs(tm.m - case["m0"]) <= 1e-6 * max(abs(case["m0"]), scale))
                    and np.all(np.abs(tm.s - case["s0"]) <= 1e-6 * case["s0"])):
                problems.append("moments drift away from the stationary start")
        if case["converged"]:
            limit = poisson_ctmc.gamma_moment_summary(p)
            if not (_close(float(tm.m[-1]), limit.first_moment, 1e-4, math.sqrt(limit.second_moment))
                    and _close(float(tm.s[-1]), limit.second_moment, 1e-4)):
                problems.append(
                    f"last point (m, s) = ({tm.m[-1]}, {tm.s[-1]}) vs limit "
                    f"({limit.first_moment}, {limit.second_moment})"
                )
        closed, rk4 = out["closed"], out["rk4"]
        scale = max(1.0, float(np.abs(closed.x).max()))
        gap = float(np.abs(closed.x - rk4.x).max())
        if len(closed.x) != len(rk4.x) or gap > 1e-6 * scale:
            problems.append(f"fluid RK4 oracle differs from the closed form by {gap:.2e}")
        return problems


class Heavy:
    """The heavy-traffic regime: long simulated paths, SDE sampling, psi, closed-form sweep.

    One operation is one scaled histogram with its distance to psi, one SDE
    run, one psi dense-grid evaluation or one sweep point.  Sweep points where
    gamma_moment_summary raises NumericalOverflowError are counted as failed.
    """

    name = "heavy"
    # (n, horizon in diffusion time, replications, histograms); warmup 10.
    # The variance check at the largest n pools its histograms: it needs about
    # 2e6 simulated arrivals there, because the finite-n bias is 5% and the
    # sampling sd of the pooled variance about 1.1%.  Splitting them into
    # one-path calls keeps every operation under a second.
    scales = ((4, 2010.0, 2, 1), (16, 1010.0, 2, 1), (64, 1010.0, 1, 16))
    sweep_pairs = ((2.0, 1.0), (1.0, 1.5), (1.0, 1.0))
    sweep_thetas = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 5e-4, 4e-4, 3e-4, 2e-4, 1e-4, 5e-5, 3e-5, 1e-5)
    grid_points = 20001
    expected_calls = (
        "des.scaled_stationary_histogram",
        "des.estimate",
        "diffusion.stationary_samples",
        "diffusion.PsiDensity.pdf",
        "diffusion.PsiDensity.cdf",
        "poisson_ctmc.gamma_moment_summary",
        "poisson_ctmc.stationary_distribution",
    )

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        base = des.ScaledTemplate(
            family="exponential", alpha=1.0, beta=1.0, c=0.0, theta=1.0, gamma=1.0,
            horizon=1.0, warmup=10.0, replications=1,
        )
        self.histograms = [
            (n, replace(base, horizon=horizon, replications=reps), (n << 40) + (k << 32))
            for n, horizon, reps, count in self.scales
            for k in range(count)
        ]
        a = math.sqrt(nominal_a_sq("exponential", base.alpha, base.beta))
        self.hist_psi = diffusion.psi_density(base.c**2 / a**2, base.c, a, base.theta, base.gamma)
        # with theta == gamma psi is one Gaussian of variance a^2/(2 theta)
        self.hist_var = a**2 / (2.0 * base.theta)

        # constant coefficient, as in acceptance criterion 8
        const_ou = diffusion.PiecewiseOUParams(theta=1.0, gamma=2.0, drift_offset=0.0, diffusion=1.0)
        const_psi = diffusion.psi_density(0.0, 0.0, 1.0, 1.0, 2.0)
        # fluid-modulated coefficient around the fixed point of (2, 1, 1, 2)
        modulated = QueueParams.for_family("exponential", 2.0, 1.0, 1.0, 2.0)
        step, horizon = 0.005, 60.0
        path = fluid.fluid_closed_form_path(modulated, 0.0, step, horizon)
        tv_coeff = diffusion.TimeVaryingDiffusion(modulated.diffusion_coeff_sq, 1.0, 2.0, path)
        mod_ou = diffusion.PiecewiseOUParams(theta=1.0, gamma=2.0, drift_offset=0.0, diffusion=tv_coeff)
        mod_psi = diffusion.psi_density(0.0, 0.0, math.sqrt(modulated.heavy_traffic_coeff_sq), 1.0, 2.0)
        self.sde_runs = [
            ("constant", const_ou, const_psi, 0),
            ("fluid-modulated", mod_ou, mod_psi, 1),
        ]
        self.sde_args = {"x0": 0.0, "step": step, "horizon": horizon, "warmup": 10.0, "n_paths": 1024, "thin": 100}
        self.densities = [self.hist_psi, const_psi, mod_psi]
        self.grids = [self._dense_grid(d) for d in self.densities]
        self.sweep = [QueueParams(a_, b_, th, th) for a_, b_ in self.sweep_pairs for th in self.sweep_thetas]

    def _dense_grid(self, density) -> tuple[np.ndarray, int]:
        """Grid over mean +- 9 sd with 0 as a grid point; returns (x, index of 0)."""
        mean = density.mean()
        sd = math.sqrt(density.second_moment() - mean**2)
        lo, hi = mean - 9.0 * sd, mean + 9.0 * sd
        h = (hi - lo) / (self.grid_points - 1)
        k_lo, k_hi = math.floor(lo / h), math.ceil(hi / h)
        return h * np.arange(k_lo, k_hi + 1), -k_lo

    def run_round(self):
        self.hists = []
        for n, template, stream_base in self.histograms:
            hist = des.scaled_stationary_histogram(template, n, self.seed, stream_base)
            self.hists.append((n, hist, hist.tv_distance_to(self.hist_psi)))
            yield 1, 0
        self.samples = []
        for _, ou, _, stream_id in self.sde_runs:
            stream = RandomStream(self.seed, stream_id)
            self.samples.append(diffusion.stationary_samples(ou, stream=stream, **self.sde_args))
            yield 1, 0
        self.evaluated = []
        for density, (x, _) in zip(self.densities, self.grids):
            self.evaluated.append((density.pdf(x), density.cdf(x)))
            yield 1, 0
        self.sweep_out = []
        for params in self.sweep:
            try:
                summary = poisson_ctmc.gamma_moment_summary(params)
            except NumericalOverflowError:
                summary = None
            self.sweep_out.append((summary, poisson_ctmc.stationary_distribution(params, 1e-12)))
            yield 1, 0 if summary is not None else 1

    def check(self) -> list[str]:
        problems = []
        n = self.scales[-1][0]
        pooled = [hist for m, hist, _ in self.hists if m == n]
        pmf = np.mean([hist.pmf for hist in pooled], axis=0)
        lattice = np.arange(-pooled[0].bound, pooled[0].bound + 1) / math.sqrt(n)
        var = float(lattice**2 @ pmf) - float(lattice @ pmf) ** 2
        if not _close(var, self.hist_var, 0.10):
            problems.append(f"scaled histogram variance at n={n} is {var:.4f}, psi variance {self.hist_var:.4f}")
        problems += [f"TV to psi at n={n} is {tv}" for n, _, tv in self.hists if not 0.0 <= tv <= 1.0]
        for (label, _, density, _), samples in zip(self.sde_runs, self.samples):
            tv = self._sample_tv(samples, density)
            if not (tv < 0.03 and len(samples) >= 100_000):
                problems.append(f"SDE {label}: TV {tv:.4f} over {len(samples)} samples, need < 0.03 over >= 1e5")
        for density, (x, zero), (pdf, cdf) in zip(self.densities, self.grids, self.evaluated):
            problems += self._check_psi(x, zero, pdf, cdf)
        for params, (summary, pmf) in zip(self.sweep, self.sweep_out):
            if summary is None:
                continue
            mean, second = pmf.mean(), pmf.second_moment()
            if not (_close(summary.first_moment, mean, 1e-9, math.sqrt(second))
                    and _close(summary.second_moment, second, 1e-9)):
                problems.append(
                    f"gamma_moment_summary at ({params.alpha:g},{params.beta:g},{params.theta:g}) gives "
                    f"({summary.first_moment}, {summary.second_moment}), truncated pmf ({mean}, {second})"
                )
        return problems

    @staticmethod
    def _sample_tv(samples: np.ndarray, density) -> float:
        mean = density.mean()
        sd = math.sqrt(density.second_moment() - mean**2)
        edges = np.linspace(mean - 5.0 * sd, mean + 5.0 * sd, 61)
        counts, _ = np.histogram(samples, bins=edges)
        emp = counts / len(samples)
        cells = np.diff(np.array([Heavy._normal_mix_cdf(density, e) for e in edges]))
        return 0.5 * float(np.abs(emp - cells).sum()) + 0.5 * abs(emp.sum() - cells.sum())

    @staticmethod
    def _normal_mix_cdf(density, x: float) -> float:
        """cdf of the glued-Gaussian law from math.erfc, apart from PsiDensity.cdf."""
        def sf(z):
            return 0.5 * math.erfc(z / math.sqrt(2.0))
        m2, s2 = density.mu / density.gamma, density.sigma / math.sqrt(2.0 * density.gamma)
        m1, s1 = density.mu / density.theta, density.sigma / math.sqrt(2.0 * density.theta)
        if x < 0.0:
            return density.d2 * sf((m2 - x) / s2) / sf(m2 / s2)
        return 1.0 - density.d1 * sf((x - m1) / s1) / sf(-m1 / s1)

    @staticmethod
    def _check_psi(x: np.ndarray, zero: int, pdf: np.ndarray, cdf: np.ndarray) -> list[str]:
        problems = []
        if np.any(np.diff(cdf) < 0.0):
            problems.append("psi cdf decreases somewhere on the dense grid")
        if not (cdf[0] < 1e-6 and cdf[-1] > 1.0 - 1e-6):
            problems.append(f"psi cdf runs from {cdf[0]:.3e} to {cdf[-1]:.9f}, not ~0 to ~1")
        # Simpson over blocks of 100 intervals aligned on 0, where the pdf has a kink
        h = x[1] - x[0]
        marks = np.arange(zero % 100, len(x), 100)
        weights = np.ones(101)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        worst = 0.0
        for lo, hi in zip(marks[:-1], marks[1:]):
            integral = h / 3.0 * float(weights @ pdf[lo:hi + 1])
            worst = max(worst, abs(integral - (cdf[hi] - cdf[lo])))
        if worst > 1e-9:
            problems.append(f"pdf integral differs from cdf differences by {worst:.2e}")
        return problems


WORKLOADS = {w.name: w for w in (Grid, Transient, Heavy)}

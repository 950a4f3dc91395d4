"""Scenario grids, comparison tables, and density-comparison exports.

Drives the three analytic engines (Poisson chain, the two diffusion models)
and the simulator over a grid of interarrival families, arrival-rate pairs,
and reneging multipliers, and renders the results as CSV / JSON tables with
relative errors against the simulation column.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import des, diffusion, fluid, poisson_ctmc
from .errors import ConfigError, finite, finite_result, positive, time_window, whole_number
from .numerics import FAMILIES, _on_box, canonical_family
from .params import QueueParams

__all__ = [
    "BUDGETS",
    "ComparisonConfig",
    "ComparisonRow",
    "DensityComparison",
    "relative_error_pct",
    "run_comparison",
    "export_density_comparison",
    "psi_density_grid",
    "csv_lines",
    "array_rows",
    "comparison_to_csv",
    "comparison_to_json",
    "run_compare_command",
]

BUDGETS = {
    "desk": {"replications": 50, "warmup": 250.0, "horizon": 1000.0},
    "paper": {"replications": 400, "warmup": 1000.0, "horizon": 4000.0},
}


def _listed(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    if not value:
        raise ConfigError(f"{name} must not be empty")
    return tuple(value)


def _positive_floats(values, axis: str, name: str) -> tuple[float, ...]:
    return tuple(float(positive(v, name, ConfigError)) for v in _listed(values, axis))


def _rate_pair(pair) -> tuple[float, float]:
    pair = _positive_floats(pair, "rate pair", "arrival rate")
    if len(pair) != 2:
        raise ConfigError(f"rate pair must be two numbers, got {pair}")
    return pair


@dataclass(frozen=True)
class ComparisonConfig:
    """Axes of the comparison grid plus the simulation budget.

    Every field is checked here and stored as floats, ints and canonical family
    names: a number must be an int or a float (not a string or a bool), an
    axis a list or a tuple.
    """

    families: tuple[str, ...] = FAMILIES
    rate_pairs: tuple[tuple[float, float], ...] = ((1.0, 1.0), (1.0, 1.5), (1.0, 2.0))
    reneging_multipliers: tuple[float, ...] = (1.0, 0.1, 0.01)
    replications: int = BUDGETS["desk"]["replications"]
    warmup: float = BUDGETS["desk"]["warmup"]
    horizon: float = BUDGETS["desk"]["horizon"]
    histogram_bound: int = 1000

    def __post_init__(self):
        checked = {
            "families": tuple(canonical_family(f, ConfigError) for f in _listed(self.families, "families")),
            "rate_pairs": tuple(map(_rate_pair, _listed(self.rate_pairs, "rate_pairs"))),
            "reneging_multipliers": _positive_floats(self.reneging_multipliers, "reneging_multipliers",
                                                     "reneging multiplier"),
        }
        time_window(self.warmup, self.horizon, ConfigError)
        checked.update(warmup=float(self.warmup), horizon=float(self.horizon))
        for name, ceiling in (("replications", des.MAX_REPLICATIONS), ("histogram_bound", des.MAX_HISTOGRAM_BOUND)):
            checked[name] = whole_number(getattr(self, name), name, 1, ConfigError, ceiling)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, raw: dict, budget_override: str | None = None) -> "ComparisonConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        budget = raw.pop("budget", "desk")
        if budget_override is not None:
            budget = budget_override
        if isinstance(budget, str):
            if budget not in BUDGETS:
                raise ConfigError(f"unknown budget {budget!r}; valid: {sorted(BUDGETS)} or an object")
            budget = BUDGETS[budget]
        if not isinstance(budget, dict) or budget.keys() != {"replications", "warmup", "horizon"}:
            raise ConfigError(f"budget object needs exactly replications, warmup and horizon, got {budget!r}")
        unknown = raw.keys() - {"families", "rate_pairs", "reneging_multipliers", "histogram_bound"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw, **budget)

    @classmethod
    def from_file(cls, path: str | Path, budget_override: str | None = None) -> "ComparisonConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw, budget_override)


@dataclass(frozen=True)
class ComparisonRow:
    """One scenario cell: simulation estimates, the three analytic estimates,
    and percentage errors of each analytic column against the simulation.

    Fields are declared in table column order.  An error is None (rendered
    NA) when the simulated value's confidence interval covers zero, where the
    relative error is meaningless.
    """

    family: str
    alpha: float
    beta: float
    theta: float
    gamma: float
    L1_s: float
    L1_s_ci: float | None
    L1_p: float
    L1_p_err: float | None = field(init=False)
    L1_d1: float
    L1_d1_err: float | None = field(init=False)
    L1_d2: float
    L1_d2_err: float | None = field(init=False)
    L2_s: float
    L2_s_ci: float | None
    L2_p: float
    L2_p_err: float | None = field(init=False)
    L2_d1: float
    L2_d1_err: float | None = field(init=False)
    L2_d2: float
    L2_d2_err: float | None = field(init=False)

    def __post_init__(self):
        # each *_err column measures the column before it against the latest
        # simulated column and its CI
        for prev, name in zip(_COLUMNS, _COLUMNS[1:]):
            if name.endswith("_s_ci"):
                sim, ci = getattr(self, prev), getattr(self, name)
            elif name.endswith("_err"):
                object.__setattr__(self, name, relative_error_pct(getattr(self, prev), sim, ci))


_COLUMNS = tuple(f.name for f in fields(ComparisonRow))
_CSV_HEADER = ",".join("dist" if name == "family" else name for name in _COLUMNS)


def relative_error_pct(analytic: float, simulated: float, ci_halfwidth: float | None) -> float | None:
    """|analytic - simulated| / |simulated| * 100, None when the CI covers zero."""
    if ci_halfwidth is not None and abs(simulated) <= ci_halfwidth:
        return None
    if simulated == 0.0:
        return None
    return abs(analytic - simulated) / abs(simulated) * 100.0


def _cells(config: ComparisonConfig):
    cell = 0
    for family in config.families:
        for alpha, beta in config.rate_pairs:
            for mult in config.reneging_multipliers:
                yield cell, family, alpha, beta, mult * alpha, mult * beta
                cell += 1


def _simulate_grid(config: ComparisonConfig, base_seed: int):
    """(rows, scenarios, estimates) of every cell, in config order.

    The analytic columns come first, so a cell they cannot answer fails
    before any simulation.  The Poisson chain depends on the rates alone, so
    cells with the same (alpha, beta, theta, gamma), one per family, share
    one chain, solved at the first of them.  All cells' replications are
    then simulated in one batch; cell c reads the streams from c << 32 on,
    so cells stay independent and each estimate equals a des.estimate call
    of its own.
    """
    cells = list(_cells(config))
    chains = {}
    analytic = []
    for _, family, *rates in cells:
        rates = tuple(rates)
        if rates not in chains:
            chains[rates] = poisson_ctmc.poisson_moment_estimates(QueueParams(*rates))
        diffused = QueueParams.for_family(family, *rates)
        analytic.append((*chains[rates], diffusion.model_one(diffused), diffusion.model_two(diffused)))
    scenarios = [
        des.Scenario.for_family(
            family,
            alpha,
            beta,
            theta,
            gamma,
            horizon=config.horizon,
            warmup=config.warmup,
            replications=config.replications,
            histogram_bound=config.histogram_bound,
        )
        for _, family, alpha, beta, theta, gamma in cells
    ]
    sims = des.estimate_many(scenarios, base_seed, [cell << 32 for cell, *_ in cells])
    rows = [
        ComparisonRow(
            family=family,
            alpha=alpha,
            beta=beta,
            theta=theta,
            gamma=gamma,
            L1_s=sim.L1,
            L1_s_ci=sim.ci_halfwidth_L1,
            L1_p=l1_p,
            L1_d1=m1.L1,
            L1_d2=m2.L1,
            L2_s=sim.L2,
            L2_s_ci=sim.ci_halfwidth_L2,
            L2_p=l2_p,
            L2_d1=m1.L2,
            L2_d2=m2.L2,
        )
        for (_, family, alpha, beta, theta, gamma), (l1_p, l2_p, m1, m2), sim in zip(cells, analytic, sims)
    ]
    return rows, scenarios, sims


def run_comparison(config: ComparisonConfig, base_seed: int = 0) -> list[ComparisonRow]:
    """All grid cells, in config order; cell randomness is independent by construction."""
    return _simulate_grid(config, base_seed)[0]


def csv_lines(header: str, rows: Iterable[Sequence]) -> Iterator[str]:
    """A CSV table line by line, each line ending in a newline.

    Numbers are written .10g, None as NA and strings as they are.  Rows are
    read lazily, so a long table streams.  A tuple of numbers goes through one
    %-template for the whole row, any other row cell by cell; array tables pass
    their rows through array_rows, since numpy scalars format more slowly.
    """
    numbers = ",".join(["%.10g"] * (header.count(",") + 1)) + "\n"
    yield header + "\n"
    for row in rows:
        try:
            yield numbers % row
        except TypeError:
            yield ",".join([v if isinstance(v, str) else "NA" if v is None else "%.10g" % v for v in row]) + "\n"


def array_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length arrays as tuples of Python numbers, converted 2^16 rows at a time."""
    for lo in range(0, len(columns[0]), 2**16):
        yield from zip(*(column[lo:lo + 2**16].tolist() for column in columns))


def comparison_to_csv(rows: list[ComparisonRow]) -> str:
    return "".join(csv_lines(_CSV_HEADER, ([getattr(r, name) for name in _COLUMNS] for r in rows)))


def comparison_to_json(rows: list[ComparisonRow]) -> str:
    payload = [{name: getattr(r, name) for name in _COLUMNS} for r in rows]
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


@dataclass(frozen=True)
class DensityComparison:
    """Integer-lattice comparison of the heavy-traffic density against pmfs.

    With unit lattice spacing a pmf value is already a density sample; the
    cell-integrated density column is the alternative convention (mass of the
    unit cell around each state), so plots can be regenerated either way.
    """

    states: np.ndarray
    psi: np.ndarray
    psi_cell_mass: np.ndarray
    poisson_pmf: np.ndarray
    simulated_pmf: np.ndarray

    def to_csv(self) -> str:
        columns = (self.states, self.psi, self.psi_cell_mass, self.poisson_pmf, self.simulated_pmf)
        return "".join(csv_lines("x,psi,psi_cell_mass,pi_poisson,pi_sim", array_rows(*columns)))


def heavy_traffic_density(family: str, alpha: float, beta: float, theta: float, gamma: float):
    """Stationary density of the constant-coefficient diffusion model."""
    return diffusion.model_one_density(QueueParams.for_family(family, alpha, beta, theta, gamma))


def export_density_comparison(
    scenario: des.Scenario, simulated: des.SimulationEstimate, *, _chains: dict | None = None
) -> DensityComparison:
    """Tabulate psi, the Poisson pmf, and the simulated pmf on the integer lattice of the chain's mean +- 6 sd.

    The chain's law depends on the rates alone.  run_compare_command passes
    _chains, one dict for all its cells, which holds the law of each rate
    tuple solved so far; a call solves the law only when its rates are not
    in it yet, and adds it.
    """
    alpha = scenario.seller_model.rate
    beta = scenario.buyer_model.rate
    family = scenario.seller_model.family
    params = QueueParams(alpha, beta, scenario.theta, scenario.gamma)
    chains = {} if _chains is None else _chains
    if params not in chains:
        chains[params] = poisson_ctmc.stationary_distribution(params, 1e-10)
    pmf = chains[params]
    sd = math.sqrt(max(pmf.variance(), 1.0))
    span = int(math.ceil(abs(pmf.mean()) + 6.0 * sd))
    states = np.arange(-span, span + 1)

    density = heavy_traffic_density(family, alpha, beta, scenario.theta, scenario.gamma)
    return DensityComparison(
        states=states,
        psi=density.pdf(states.astype(float)),
        psi_cell_mass=density.cell_masses(np.arange(-span, span + 2) - 0.5),
        poisson_pmf=_on_box(pmf.probs, span),
        simulated_pmf=_on_box(simulated.probs, span),
    )


def psi_density_grid(
    density: diffusion.PsiDensity,
    lo: float | None = None,
    hi: float | None = None,
    count: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """(x, psi(x)) on a uniform grid; defaults to mean +- 6 sd with 1024 points."""
    if lo is None or hi is None:
        mean = finite(density.mean(), "the psi mean")
        variance = finite_result(lambda: density.second_moment() - mean**2, "the psi variance")
        sd = math.sqrt(max(variance, 1e-300))
        lo = mean - 6.0 * sd if lo is None else lo
        hi = mean + 6.0 * sd if hi is None else hi
    finite(lo, "grid end lo", ConfigError)
    finite(hi, "grid end hi", ConfigError)
    if not hi > lo:
        raise ConfigError(f"need hi > lo, got [{lo}, {hi}]")
    finite(hi - lo, "the grid width hi - lo", ConfigError)
    count = whole_number(count, "grid point count", 2, ConfigError, fluid.MAX_GRID_POINTS)
    x = np.linspace(lo, hi, count)
    return x, density.pdf(x)


def run_compare_command(config: ComparisonConfig, base_seed: int, out_dir: str | Path) -> list[Path]:
    """Produce comparison tables and per-cell density grids under out_dir.

    Each piece of set-up runs once per thing it depends on: the chain of a
    density table once per distinct (alpha, beta, theta, gamma), shared by
    the cells of every family (export_density_comparison's _chains), and the
    simulation's state lattice once per scenario (des._reduce).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    density_dir = out / "density"
    density_dir.mkdir(exist_ok=True)

    rows, scenarios, sims = _simulate_grid(config, base_seed)
    written = []
    chains = {}
    for row, scenario, sim in zip(rows, scenarios, sims):
        comparison = export_density_comparison(scenario, sim, _chains=chains)
        mult = row.theta / row.alpha
        name = f"{row.family}_a{row.alpha:g}_b{row.beta:g}_m{mult:g}.csv"
        path = density_dir / name
        path.write_text(comparison.to_csv(), encoding="utf-8")
        written.append(path)

    table_csv = out / "comparison.csv"
    table_csv.write_text(comparison_to_csv(rows), encoding="utf-8")
    table_json = out / "comparison.json"
    table_json.write_text(comparison_to_json(rows), encoding="utf-8")
    return [table_csv, table_json] + written

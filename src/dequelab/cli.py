"""Command-line interface.

Subcommands:
  analytic    closed-form Poisson-chain moments as JSON
  fluid       fluid trajectory as CSV (closed form or RK4)
  diffusion   model1 / model2 moment estimates as JSON, or a density grid as CSV
  simulate    discrete-event simulation estimates as JSON
  compare     full comparison tables + density grids written to a directory

Exit codes: 0 success, 2 configuration/usage error, 3 numerical or resource error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator

from . import des, diffusion, fluid, harness, poisson_ctmc
from .errors import ConfigError, DequeLabError
from .numerics import FAMILY_ALIASES
from .params import QueueParams

_DIST_CHOICES = sorted(FAMILY_ALIASES)


def _add_rates(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True, help="seller arrival rate")
    parser.add_argument("--beta", type=float, required=True, help="buyer arrival rate")
    parser.add_argument("--theta", type=float, required=True, help="seller reneging rate")
    parser.add_argument("--gamma", type=float, required=True, help="buyer reneging rate")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dequelab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="Poisson-chain closed-form moments")
    _add_rates(p_an)

    p_fl = sub.add_parser("fluid", help="fluid trajectory as CSV (t,x)")
    _add_rates(p_fl)
    p_fl.add_argument("--x0", type=float, default=0.0)
    p_fl.add_argument("--horizon", type=float, required=True)
    p_fl.add_argument("--step", type=float, required=True)
    mode = p_fl.add_mutually_exclusive_group()
    mode.add_argument("--closed-form", action="store_true", dest="closed_form")
    mode.add_argument("--integrate", action="store_true")

    p_df = sub.add_parser("diffusion", help="diffusion-model estimates or density grid")
    p_df.add_argument("mode", choices=("model1", "model2", "density"))
    _add_rates(p_df)
    p_df.add_argument("--dist", type=str.lower, choices=_DIST_CHOICES, default="exp",
                      help="interarrival family supplying nominal sds (default exp)")
    p_df.add_argument("--sigma", type=float, default=None, help="override seller interarrival sd")
    p_df.add_argument("--varsigma", type=float, default=None, help="override buyer interarrival sd")
    p_df.add_argument("--grid", default=None, metavar="LO:HI:N",
                      help="density grid (defaults to mean +- 6 sd with 1024 points)")

    p_sim = sub.add_parser("simulate", help="discrete-event simulation estimate")
    p_sim.add_argument("--dist", type=str.lower, choices=_DIST_CHOICES, required=True)
    _add_rates(p_sim)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--horizon", type=float, required=True)
    p_sim.add_argument("--warmup", type=float, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--x0", type=int, default=0, help="initial signed state")
    p_sim.add_argument("--bound", type=int, default=1000, help="histogram support bound")

    p_cmp = sub.add_parser("compare", help="comparison tables and density grids")
    p_cmp.add_argument("--config", required=True, help="JSON config file; see README for the schema")
    p_cmp.add_argument("--budget", choices=tuple(harness.BUDGETS), default=None,
                       help="override the config's simulation budget")
    p_cmp.add_argument("--seed", type=int, required=True)
    p_cmp.add_argument("--out", required=True, help="output directory")

    return parser


def _params_from_args(args) -> QueueParams:
    nominal = QueueParams.for_family(args.dist, args.alpha, args.beta, args.theta, args.gamma)
    sigma = nominal.sigma if args.sigma is None else args.sigma
    varsigma = nominal.varsigma if args.varsigma is None else args.varsigma
    return QueueParams(args.alpha, args.beta, args.theta, args.gamma, sigma, varsigma)


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError(f"grid must look like LO:HI:N, got {text!r}") from exc


# Each handler returns its output for main to print: a dict, written as JSON,
# or the lines of a CSV table or a file list.


def _cmd_analytic(args) -> dict:
    params = QueueParams(args.alpha, args.beta, args.theta, args.gamma)
    summary = poisson_ctmc.gamma_moment_summary(params)
    return {
        "p1": summary.p1,
        "p2": summary.p2,
        "pi0": summary.pi0,
        "L1_p": summary.first_moment,
        "L2_p": summary.second_moment,
    }


def _cmd_fluid(args) -> Iterator[str]:
    params = QueueParams(args.alpha, args.beta, args.theta, args.gamma)
    if args.integrate:
        path = fluid.fluid_integrate(params, args.x0, args.step, args.horizon)
    else:
        path = fluid.fluid_closed_form_path(params, args.x0, args.step, args.horizon)
    return harness.csv_lines("t,x", harness.array_rows(path.t, path.x))


def _cmd_diffusion(args) -> dict | Iterator[str]:
    params = _params_from_args(args)
    if args.mode == "model1":
        result = diffusion.model_one(params)
        return {"L1_d1": result.L1, "L2_d1": result.L2}
    if args.mode == "model2":
        result = diffusion.model_two(params)
        return {"L1_d2": result.L1, "L2_d2": result.L2}
    density = diffusion.model_one_density(params)
    grid = () if args.grid is None else _parse_grid(args.grid)
    return harness.csv_lines("x,psi", harness.array_rows(*harness.psi_density_grid(density, *grid)))


def _cmd_simulate(args) -> dict:
    scenario = des.Scenario.for_family(
        args.dist,
        args.alpha,
        args.beta,
        args.theta,
        args.gamma,
        horizon=args.horizon,
        warmup=args.warmup,
        replications=args.reps,
        initial_state=args.x0,
        histogram_bound=args.bound,
    )
    result = des.estimate(scenario, args.seed)
    return {
        "L1_s": result.L1,
        "L2_s": result.L2,
        "ci_halfwidth_L1": result.ci_halfwidth_L1,
        "ci_halfwidth_L2": result.ci_halfwidth_L2,
        "replication_count": result.replication_count,
        "seed": result.seed,
        "overflow": result.overflow,
        "pmf": {str(state): p for state, p in zip(result.states.tolist(), result.pmf.tolist()) if p > 0.0},
    }


def _cmd_compare(args) -> list[str]:
    config = harness.ComparisonConfig.from_file(args.config, budget_override=args.budget)
    return [f"{path}\n" for path in harness.run_compare_command(config, args.seed, args.out)]


_HANDLERS = {
    "analytic": _cmd_analytic,
    "fluid": _cmd_fluid,
    "diffusion": _cmd_diffusion,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        output = _HANDLERS[args.command](args)
        sys.stdout.writelines([json.dumps(output, indent=2) + "\n"] if isinstance(output, dict) else output)
        return 0
    except (DequeLabError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, FileNotFoundError)) else 3


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import json
import math

import numpy as np
import pytest

from dequelab import des
from dequelab.des import Scenario, estimate
from dequelab.diffusion import model_one, model_two, psi_density
from dequelab.errors import ConfigError, DomainError
from dequelab.harness import (
    ComparisonConfig,
    array_rows,
    comparison_to_csv,
    comparison_to_json,
    csv_lines,
    export_density_comparison,
    heavy_traffic_density,
    psi_density_grid,
    relative_error_pct,
    run_comparison,
    run_compare_command,
)
from dequelab.numerics import InterarrivalModel
from dequelab.params import QueueParams
from dequelab.poisson_ctmc import poisson_moment_estimates

TINY_BUDGET = {"replications": 2, "warmup": 10.0, "horizon": 60.0}


class TestConfig:
    def test_family_aliases(self):
        cfg = ComparisonConfig(families=["exp", "erlang2", "HYPEREXP", "Uniform"])
        assert cfg.families == ("exponential", "erlang", "hyperexponential", "uniform")
        assert ComparisonConfig().families == ("exponential", "uniform", "erlang", "hyperexponential")

    def test_unknown_family_lists_valid_names(self):
        message = r"unknown distribution 'weibull'; valid names: \['erlang', 'erlang2', 'exp',"
        with pytest.raises(ConfigError, match=message):
            ComparisonConfig(families=["weibull"])
        with pytest.raises(DomainError, match=message):
            InterarrivalModel("weibull", 1.0)

    def test_from_dict_budgets(self):
        cfg = ComparisonConfig.from_dict({"families": ["exp"], "budget": "desk"})
        assert cfg.replications == 50 and cfg.horizon == 1000.0
        cfg = ComparisonConfig.from_dict({"families": ["exp"], "budget": "paper"})
        assert cfg.replications == 400 and cfg.horizon == 4000.0
        cfg = ComparisonConfig.from_dict({"families": ["exp"], "budget": TINY_BUDGET})
        assert cfg.replications == 2

    def test_budget_override(self):
        cfg = ComparisonConfig.from_dict({"budget": "desk"}, budget_override="paper")
        assert cfg.replications == 400

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            ComparisonConfig.from_dict({"budget": "weekend"})
        with pytest.raises(ConfigError):
            ComparisonConfig.from_dict({"frobnicate": 1})
        with pytest.raises(ConfigError):
            ComparisonConfig.from_dict({"rate_pairs": [[1.0, -2.0]]})
        with pytest.raises(ConfigError):
            ComparisonConfig.from_dict({"reneging_multipliers": [0.0]})

    @pytest.mark.parametrize(
        "text",
        [
            '{"budget": {"replications": 1, "warmup": 0, "horizon": Infinity}}',
            '{"rate_pairs": [[Infinity, 1]]}',
            '{"rate_pairs": [[1, NaN]]}',
            '{"reneging_multipliers": [Infinity]}',
            '{"reneging_multipliers": [NaN]}',
        ],
        ids=["horizon-inf", "rate-inf", "rate-nan", "multiplier-inf", "multiplier-nan"],
    )
    def test_non_finite_values(self, text):
        # json.loads accepts these tokens; an infinite horizon would never end the simulation
        with pytest.raises(ConfigError):
            ComparisonConfig.from_dict(json.loads(text))

    @pytest.mark.parametrize(
        "fields",
        [
            {"replications": 2.5},
            {"replications": "2"},
            {"histogram_bound": math.inf},
            {"histogram_bound": None},
            {"warmup": "0"},
            {"rate_pairs": ((1.0, "2"),)},
            {"reneging_multipliers": (None,)},
        ],
        ids=["replications-fraction", "replications-string", "bound-inf", "bound-none", "warmup-string",
             "rate-string", "multiplier-none"],
    )
    def test_values_outside_the_input_rules(self, fields):
        # a non-real value fails the rule too, rather than raising a bare TypeError
        with pytest.raises(ConfigError):
            ComparisonConfig(**fields)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"rate_pairs": [[1, "2"]]}, "arrival rate must be"),
            ({"reneging_multipliers": ["0.5"]}, "reneging multiplier must be"),
            ({"budget": {"replications": 2, "warmup": "0", "horizon": 50}}, "need 0 <= warmup < horizon"),
            ({"budget": {"replications": 2, "warmup": 0, "horizon": "50"}}, "need 0 <= warmup < horizon"),
            ({"rate_pairs": [[True, 1]]}, "arrival rate must be"),
            ({"reneging_multipliers": [True]}, "reneging multiplier must be"),
            ({"budget": {"replications": True, "warmup": 0, "horizon": 50}}, "replications must be an integer"),
            ({"budget": {"replications": 2, "warmup": False, "horizon": 50}}, "need 0 <= warmup < horizon"),
            ({"histogram_bound": True}, "histogram_bound must be an integer"),
            ({"budget": {"replications": 2, "warmup": 0, "horizon": 50, "seed": 9}}, "exactly replications"),
            ({"families": "exp"}, "families must be a list"),
            ({"rate_pairs": [1, 2]}, "rate pair must be a list"),
            ({"reneging_multipliers": 0.1}, "reneging_multipliers must be a list"),
            ({"rate_pairs": [[10**400, 1]]}, "arrival rate must be"),
            ({"reneging_multipliers": [10**400]}, "reneging multiplier must be"),
            ({"budget": {"replications": 2, "warmup": 0, "horizon": 10**400}}, "need 0 <= warmup < horizon"),
            ({"budget": {"replications": 10**400, "warmup": 0, "horizon": 50}},
             r"replications must be an integer in \[1, 1000000\]"),
        ],
        ids=["rate-string", "multiplier-string", "warmup-string", "horizon-string", "rate-true",
             "multiplier-true", "replications-true", "warmup-false", "bound-true", "budget-extra-key",
             "families-string", "rate-pairs-flat", "multipliers-number", "rate-past-float-range",
             "multiplier-past-float-range", "horizon-past-float-range", "replications-past-cap"],
    )
    def test_from_dict_takes_json_numbers_and_lists_only(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            ComparisonConfig.from_dict(raw)

    @pytest.mark.parametrize("rate_pairs", [5, "ab", (1.0, 2.0), None], ids=["number", "string", "flat", "none"])
    def test_rate_pairs_not_a_list_of_pairs(self, rate_pairs):
        with pytest.raises(ConfigError, match="must be a list"):
            ComparisonConfig(rate_pairs=rate_pairs)

    def test_whole_numbers_are_stored_as_floats(self):
        cfg = ComparisonConfig.from_dict({"rate_pairs": [[1, 2]], "reneging_multipliers": [1],
                                          "budget": {"replications": 2.0, "warmup": 0, "horizon": 50}})
        assert cfg.rate_pairs == ((1.0, 2.0),) and cfg.reneging_multipliers == (1.0,)
        assert (cfg.warmup, cfg.horizon, cfg.replications) == (0.0, 50.0, 2)
        stored = [*cfg.rate_pairs[0], *cfg.reneging_multipliers, cfg.warmup, cfg.horizon]
        assert all(type(v) is float for v in stored) and type(cfg.replications) is int

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"families": ["uniform"], "budget": TINY_BUDGET}))
        cfg = ComparisonConfig.from_file(path)
        assert cfg.families == ("uniform",)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            ComparisonConfig.from_file(bad)


class TestRelativeError:
    def test_basic(self):
        assert relative_error_pct(-3.2532, -3.248, 0.02) == pytest.approx(
            abs(-3.2532 + 3.248) / 3.248 * 100.0
        )

    def test_na_when_ci_covers_zero(self):
        assert relative_error_pct(0.0, 0.001, 0.01) is None
        assert relative_error_pct(0.5, 0.0, None) is None


class TestRunComparison:
    def test_rows_and_analytic_columns(self):
        cfg = ComparisonConfig.from_dict(
            {
                "families": ["exp", "hyperexp"],
                "rate_pairs": [[1.0, 1.5]],
                "reneging_multipliers": [1.0, 0.1],
                "budget": TINY_BUDGET,
            }
        )
        rows = run_comparison(cfg, base_seed=123)
        assert len(rows) == 4
        row = rows[1]  # exponential, multiplier 0.1
        assert row.family == "exponential"
        assert row.theta == pytest.approx(0.1) and row.gamma == pytest.approx(0.15)
        l1_p, l2_p = poisson_moment_estimates(QueueParams(1.0, 1.5, row.theta, row.gamma))
        assert row.L1_p == l1_p and row.L2_p == l2_p
        diffused = QueueParams.for_family("exponential", 1.0, 1.5, row.theta, row.gamma)
        assert row.L1_d1 == model_one(diffused).L1
        assert row.L2_d2 == model_two(diffused).L2

    def test_error_columns(self):
        cfg = ComparisonConfig.from_dict(
            {"families": ["exp"], "rate_pairs": [[1.0, 2.0]], "reneging_multipliers": [0.1],
             "budget": {"replications": 8, "warmup": 50.0, "horizon": 300.0}}
        )
        row = run_comparison(cfg, base_seed=5)[0]
        assert row.L1_p_err == pytest.approx(abs(row.L1_p - row.L1_s) / abs(row.L1_s) * 100.0)

    def test_na_for_symmetric_cell(self):
        cfg = ComparisonConfig.from_dict(
            {"families": ["exp"], "rate_pairs": [[1.0, 1.0]], "reneging_multipliers": [1.0],
             "budget": {"replications": 20, "warmup": 100.0, "horizon": 500.0}}
        )
        row = run_comparison(cfg, base_seed=7)[0]
        # the analytic mean is exactly zero and the simulated CI covers zero
        assert row.L1_p == 0.0
        assert row.L1_p_err is None

    def test_rows_equal_per_cell_estimates(self, monkeypatch):
        # 8 cells of 10 replications: one lockstep batch, against one scalar estimate per cell
        monkeypatch.setattr(des, "_LOCKSTEP_MIN_LANES", 64)
        config = ComparisonConfig.from_dict(
            {
                "families": ["uniform", "hyperexp"],
                "rate_pairs": [[1.0, 1.0], [1.0, 2.0]],
                "reneging_multipliers": [1.0, 0.1],
                "budget": {"replications": 10, "warmup": 5.0, "horizon": 40.0},
            }
        )
        assert 8 * config.replications >= des._LOCKSTEP_MIN_LANES > config.replications
        rows = run_comparison(config, base_seed=6)
        for cell, row in enumerate(rows):
            sc = Scenario.for_family(
                row.family, row.alpha, row.beta, row.theta, row.gamma, horizon=config.horizon,
                warmup=config.warmup, replications=config.replications, histogram_bound=config.histogram_bound,
            )
            sim = estimate(sc, 6, stream_base=cell << 32)
            # replace recomputes the error columns from the per-cell estimate
            assert row == dataclasses.replace(
                row, L1_s=sim.L1, L1_s_ci=sim.ci_halfwidth_L1, L2_s=sim.L2, L2_s_ci=sim.ci_halfwidth_L2
            )

    def test_table_anchor_rows(self):
        cfg = ComparisonConfig.from_dict(
            {
                "families": ["exp", "hyperexp", "erlang2"],
                "rate_pairs": [[1.0, 1.0], [1.0, 1.5], [1.0, 2.0]],
                "reneging_multipliers": [1.0, 0.1, 0.01],
                "budget": TINY_BUDGET,
            }
        )
        rows = {(r.family, r.alpha, r.beta, round(r.theta / r.alpha, 6)): r for r in run_comparison(cfg, 1)}
        heavy = rows[("exponential", 1.0, 2.0, 0.01)]
        assert round(heavy.L1_p, 4) == -50.0
        assert round(heavy.L1_d1, 4) == -50.0
        assert round(heavy.L1_d2, 4) == -50.0
        hyper = rows[("hyperexponential", 1.0, 1.5, 1.0)]
        assert round(hyper.L1_d1, 4) == -0.1735
        erl = rows[("erlang", 1.0, 1.0, 0.1)]
        assert round(erl.L2_d1, 4) == 5.0


class TestOutputs:
    def _rows(self):
        cfg = ComparisonConfig.from_dict(
            {"families": ["exp"], "rate_pairs": [[1.0, 1.5]], "reneging_multipliers": [1.0],
             "budget": TINY_BUDGET}
        )
        return run_comparison(cfg, base_seed=77)

    def test_csv_structure(self):
        text = comparison_to_csv(self._rows())
        lines = text.strip().split("\n")
        assert lines[0].startswith("dist,alpha,beta,theta,gamma,L1_s,L1_s_ci,L1_p")
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "exponential"

    def test_byte_stability(self):
        a = comparison_to_csv(self._rows())
        b = comparison_to_csv(self._rows())
        assert a == b
        assert comparison_to_json(self._rows()) == comparison_to_json(self._rows())

    def test_compare_command_writes_files(self, tmp_path):
        cfg = ComparisonConfig.from_dict(
            {"families": ["exp"], "rate_pairs": [[1.0, 1.0]], "reneging_multipliers": [1.0],
             "budget": TINY_BUDGET}
        )
        written = run_compare_command(cfg, 3, tmp_path / "out")
        names = {p.name for p in written}
        assert "comparison.csv" in names and "comparison.json" in names
        assert any(p.parent.name == "density" for p in written)
        for p in written:
            assert p.exists() and p.stat().st_size > 0


def test_csv_lines_cells():
    # a tuple of numbers takes the row template, a row with a name or a None the cell rule
    rows = [(1, 0.5, 1e-300), ["exp", None, 2.0], (np.float64(1.0) / 3.0, -0.0, math.inf), ("x", 1)]
    lines = list(csv_lines("a,b,c", rows))
    assert lines == ["a,b,c\n", "1,0.5,1e-300\n", "exp,NA,2\n", "0.3333333333,-0,inf\n", "x,1\n"]


def test_array_rows_are_python_numbers_across_chunks():
    x = np.arange(2**16 + 3) / 7.0
    rows = list(array_rows(x, np.arange(x.size)))
    assert rows == list(zip(x.tolist(), range(x.size)))
    assert type(rows[-1][0]) is float and type(rows[-1][1]) is int


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)])
def test_density_grid_needs_finite_ends(lo, hi):
    with pytest.raises(ConfigError):
        psi_density_grid(psi_density(0.0, 0.0, 1.0, 1.0, 1.0), lo, hi, 3)


class TestDensityComparison:
    def test_symmetric_curves(self):
        sc = Scenario.for_family(
            "exponential", 1.0, 1.0, 1.0, 1.0,
            horizon=200.0, warmup=50.0, replications=4,
        )
        comp = export_density_comparison(sc, estimate(sc, 9))
        mid = len(comp.states) // 2
        assert np.abs(comp.psi - comp.psi[::-1]).max() <= 1e-9
        assert np.abs(comp.poisson_pmf - comp.poisson_pmf[::-1]).max() <= 1e-9
        assert comp.states[mid] == 0

    def test_unit_variance_gaussian_curve(self):
        # exponential at (1,1,1,1): psi is the standard normal density
        sc = Scenario.for_family(
            "exponential", 1.0, 1.0, 1.0, 1.0,
            horizon=60.0, warmup=10.0, replications=1,
        )
        comp = export_density_comparison(sc, estimate(sc, 9))
        from dequelab.numerics import normal_pdf

        for x, value in zip(comp.states, comp.psi):
            assert value == pytest.approx(normal_pdf(float(x)), rel=1e-9)

    def test_analytic_columns_total_mass(self):
        sc = Scenario.for_family(
            "exponential", 1.0, 1.5, 0.1, 0.15,
            horizon=60.0, warmup=10.0, replications=1,
        )
        comp = export_density_comparison(sc, estimate(sc, 4))
        assert comp.psi_cell_mass.sum() == pytest.approx(1.0, abs=1e-6)
        assert comp.poisson_pmf.sum() == pytest.approx(1.0, abs=1e-6)
        assert comp.simulated_pmf.sum() == pytest.approx(1.0, abs=1e-6)

    def test_csv_render(self):
        sc = Scenario.for_family(
            "uniform", 1.0, 1.0, 1.0, 1.0, horizon=50.0, warmup=5.0, replications=1,
        )
        text = export_density_comparison(sc, estimate(sc, 2)).to_csv()
        assert text.splitlines()[0] == "x,psi,psi_cell_mass,pi_poisson,pi_sim"

    def test_reuses_provided_estimate(self):
        sc = Scenario.for_family(
            "exponential", 1.0, 1.0, 0.5, 0.5, horizon=80.0, warmup=10.0, replications=2,
        )
        est = estimate(sc, 5)
        comp = export_density_comparison(sc, est)
        mid = comp.states.tolist().index(0)
        assert comp.simulated_pmf[mid] == est.pmf[est.bound]


@pytest.mark.slow
def test_full_grid_desk_run(tmp_path):
    # the complete 36-cell grid at desk budget: structure and sane relative
    # errors where reneging is slow
    import csv

    cfg = ComparisonConfig.from_dict({"budget": "desk"})
    written = run_compare_command(cfg, 2024, tmp_path)
    assert len([p for p in written if p.parent.name == "density"]) == 36
    with open(tmp_path / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 36
    for row in rows:
        if float(row["theta"]) / float(row["alpha"]) == 0.01 and float(row["beta"]) > float(row["alpha"]):
            # slow reneging, imbalanced rates: every analytic mean is accurate
            for key in ("L1_p_err", "L1_d1_err", "L1_d2_err"):
                assert row[key] != "NA" and float(row[key]) < 5.0
        assert float(row["L2_s"]) > 0.0


class TestPsiGrid:
    def test_trapezoid_mass(self):
        density = heavy_traffic_density("uniform", 1.0, 1.0, 1.0, 1.0)
        xs, ys = psi_density_grid(density)
        assert len(xs) == 1024
        assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=1e-6)

    def test_explicit_grid(self):
        density = psi_density(0.0, 0.0, 1.0, 1.0, 2.0)
        xs, ys = psi_density_grid(density, -3.0, 3.0, 301)
        assert xs[0] == -3.0 and xs[-1] == 3.0 and len(xs) == 301

    def test_grid_validation(self):
        density = psi_density(0.0, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ConfigError):
            psi_density_grid(density, 2.0, -2.0, 100)
        with pytest.raises(ConfigError):
            psi_density_grid(density, -1.0, 1.0, 1)

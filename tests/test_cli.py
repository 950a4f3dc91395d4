import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dequelab
from dequelab.cli import main


RATES = ["--alpha", "1", "--beta", "1", "--theta", "1", "--gamma", "1"]
TINY_BUDGET = {"replications": 1, "warmup": 0.0, "horizon": 5.0}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--alpha", "1", "--beta", "1", "--theta", "inf", "--gamma", "1"],
        ["fluid", *RATES, "--horizon", "inf", "--step", "0.1"],
        ["fluid", *RATES, "--horizon", "1", "--step", "nan", "--integrate"],
        ["diffusion", "model1", *RATES, "--sigma", "inf"],
        ["fluid", *RATES, "--x0", "inf", "--horizon", "0.2", "--step", "0.1"],
        ["fluid", *RATES, "--x0", "nan", "--horizon", "0.2", "--step", "0.1"],
        ["fluid", *RATES, "--x0", "nan", "--horizon", "0.2", "--step", "0.01", "--integrate"],
    ],
    ids=["analytic-theta-inf", "fluid-horizon-inf", "fluid-step-nan", "model1-sigma-inf",
         "fluid-x0-inf", "fluid-x0-nan", "fluid-integrate-x0-nan"],
)
def test_non_finite_argument_is_a_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("sigma", ["1e-200", "1e-160"], ids=["coefficient-underflows", "tilt-overflows"])
def test_density_with_vanishing_coefficient_is_a_domain_error(capsys, sigma):
    code, out, err = run_cli(capsys, "diffusion", "density", "--alpha", "1", "--beta", "1.5", "--theta", "0.1",
                             "--gamma", "0.15", "--sigma", sigma, "--varsigma", sigma)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("grid", ["0:inf:3", "-inf:0:3", "-inf:inf:3"])
def test_non_finite_grid_end_is_a_config_error(capsys, grid):
    code, out, err = run_cli(capsys, "diffusion", "density", *RATES, f"--grid={grid}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_import_leaves_out_scipy_integrate():
    # a fresh interpreter: this test process may have imported scipy.integrate itself
    src = str(Path(dequelab.__file__).resolve().parents[1])
    code = "import sys, dequelab.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestAnalytic:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--alpha", "1", "--beta", "1.5", "--theta", "0.1", "--gamma", "0.15"
        )
        assert code == 0
        data = json.loads(out)
        assert data["L1_p"] == pytest.approx(-3.2532, abs=5e-4)
        assert data["L2_p"] == pytest.approx(21.2498, abs=5e-4)
        assert data["pi0"] == pytest.approx(1.0 / (1.0 + data["p1"] + data["p2"]))

    def test_numerical_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "analytic", "--alpha", "1", "--beta", "2", "--theta", "1e-4", "--gamma", "2e-4"
        )
        assert code == 3
        assert "error" in err


class TestFluid:
    def test_closed_form_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "fluid", "--alpha", "2", "--beta", "1", "--theta", "1", "--gamma", "1",
            "--x0", "-1", "--horizon", "2", "--step", "0.01", "--closed-form",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x"
        assert len(lines) == 202
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == -1.0

    def test_integrate_agrees(self, capsys):
        args = ["--alpha", "1", "--beta", "1.5", "--theta", "0.2", "--gamma", "0.3",
                "--x0", "2", "--horizon", "5", "--step", "0.01"]
        _, closed, _ = run_cli(capsys, "fluid", *args, "--closed-form")
        _, integ, _ = run_cli(capsys, "fluid", *args, "--integrate")
        for a, b in zip(closed.strip().split("\n")[1:], integ.strip().split("\n")[1:]):
            xa = float(a.split(",")[1])
            xb = float(b.split(",")[1])
            assert xa == pytest.approx(xb, abs=1e-6)


class TestDiffusion:
    def test_model1(self, capsys):
        code, out, _ = run_cli(
            capsys, "diffusion", "model1", "--alpha", "1", "--beta", "2",
            "--theta", "0.01", "--gamma", "0.02", "--dist", "exp",
        )
        assert code == 0
        data = json.loads(out)
        assert data["L2_d1"] == pytest.approx(2625.0, abs=5e-4)

    def test_long_family_names_accepted(self, capsys):
        args = ["diffusion", "model1", "--alpha", "1", "--beta", "2", "--theta", "0.01", "--gamma", "0.02"]
        _, short, _ = run_cli(capsys, *args, "--dist", "hyperexp")
        code, long, _ = run_cli(capsys, *args, "--dist", "hyperexponential")
        assert code == 0
        assert long == short

    def test_family_name_case_insensitive(self, capsys):
        args = ["diffusion", "model1", "--alpha", "1", "--beta", "2", "--theta", "0.01", "--gamma", "0.02"]
        _, lower, _ = run_cli(capsys, *args, "--dist", "exp")
        code, upper, _ = run_cli(capsys, *args, "--dist", "EXP")
        assert code == 0
        assert upper == lower

    def test_model2(self, capsys):
        code, out, _ = run_cli(
            capsys, "diffusion", "model2", "--alpha", "1", "--beta", "1.5",
            "--theta", "0.1", "--gamma", "0.15", "--dist", "exp",
        )
        data = json.loads(out)
        assert data["L1_d2"] == pytest.approx(-3.3333, abs=5e-5)
        assert data["L2_d2"] == pytest.approx(27.0518, abs=5e-4)

    def test_sigma_override(self, capsys):
        # explicit sds beat the family's nominal values
        _, out, _ = run_cli(
            capsys, "diffusion", "model1", "--alpha", "1", "--beta", "1",
            "--theta", "1", "--gamma", "1", "--sigma", "1", "--varsigma", "1",
        )
        assert json.loads(out)["L2_d1"] == pytest.approx(1.0, rel=1e-12)

    def test_density_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "diffusion", "density", "--alpha", "1", "--beta", "1",
            "--theta", "1", "--gamma", "1", "--dist", "exp", "--grid=-3:3:61",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,psi"
        assert len(lines) == 62
        mid = lines[31].split(",")
        assert float(mid[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(mid[1]) == pytest.approx(0.3989423, abs=1e-6)

    def test_bad_grid_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "diffusion", "density", "--alpha", "1", "--beta", "1",
            "--theta", "1", "--gamma", "1", "--grid", "oops",
        )
        assert code == 2
        assert "error" in err


class TestSimulate:
    def test_json_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", "exp", "--alpha", "1", "--beta", "1",
            "--theta", "1", "--gamma", "1", "--reps", "3", "--horizon", "120",
            "--warmup", "20", "--seed", "42",
        )
        assert code == 0
        data = json.loads(out)
        assert data["replication_count"] == 3
        assert data["seed"] == 42
        total = sum(data["pmf"].values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert abs(data["L1_s"]) < 1.0

    def test_family_name_case_insensitive(self, capsys):
        args = ["--alpha", "1", "--beta", "1", "--theta", "1", "--gamma", "1", "--reps", "2",
                "--horizon", "40", "--warmup", "10", "--seed", "5"]
        _, lower, _ = run_cli(capsys, "simulate", "--dist", "exp", *args)
        code, upper, _ = run_cli(capsys, "simulate", "--dist", "Exp", *args)
        assert code == 0
        assert upper == lower

    def test_deterministic(self, capsys):
        args = ["simulate", "--dist", "uniform", "--alpha", "1", "--beta", "1.5",
                "--theta", "0.5", "--gamma", "0.75", "--reps", "2", "--horizon", "80",
                "--warmup", "10", "--seed", "7"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestCompare:
    def test_end_to_end(self, capsys, tmp_path):
        config = {
            "families": ["exp"],
            "rate_pairs": [[1.0, 1.5]],
            "reneging_multipliers": [1.0],
            "budget": {"replications": 2, "warmup": 10.0, "horizon": 50.0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "compare", "--config", str(cfg_path), "--seed", "3", "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "comparison.csv").exists()
        assert (out_dir / "comparison.json").exists()
        header = (out_dir / "comparison.csv").read_text().splitlines()[0]
        assert header.split(",")[:7] == ["dist", "alpha", "beta", "theta", "gamma", "L1_s", "L1_s_ci"]

    def test_config_error_exit_code(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"families": ["weibull"]}))
        code, _, err = run_cli(
            capsys, "compare", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert "valid names" in err

    @pytest.mark.parametrize(
        "config",
        [
            {"budget": {"replications": 2}},
            {"budget": {"replications": "ten", "warmup": 10.0, "horizon": 50.0}},
            {"rate_pairs": [[1, "x"]]},
            [1, 2],
            {"histogram_bound": 0},
            {"families": [5]},
            {"budget": {"replications": 2.7, "warmup": 10.0, "horizon": 50.0}},
            {"histogram_bound": 10.9},
            {"families": ["exp"], "reneging_multipliers": [math.inf], "budget": TINY_BUDGET},
            {"families": ["exp"], "rate_pairs": [[math.inf, 1.0]], "budget": TINY_BUDGET},
        ],
        ids=["budget-missing-keys", "replications-not-a-number", "rate-not-a-number", "not-an-object",
             "histogram-bound-zero", "family-not-a-string", "replications-not-whole", "histogram-bound-not-whole",
             "multiplier-infinite", "rate-infinite"],
    )
    def test_malformed_config_exit_code(self, capsys, tmp_path, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_cli(
            capsys, "compare", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "compare", "--config", str(tmp_path / "nope.json"), "--seed", "1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2

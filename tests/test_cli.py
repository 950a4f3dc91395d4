import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dequelab
from dequelab import des, fluid
from dequelab.cli import _HANDLERS, main


RATES = ["--alpha", "1", "--beta", "1", "--theta", "1", "--gamma", "1"]
TINY_BUDGET = {"replications": 1, "warmup": 0.0, "horizon": 5.0}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_redirected(argv):
    """main(argv) with its output captured, for tests that cannot take the capsys fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_failure(code, out, err, codes=(2, 3)):
    assert code in codes
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
        # a^2 = alpha^3 sigma^2 + beta^3 varsigma^2 leaves the float range: alpha^3 overflows,
        # or at alpha = 5e-324 the nominal sd 1/sqrt(alpha) squares past it
        ["diffusion", "model1", "--alpha", "1e150", "--beta", "1", "--theta", "1", "--gamma", "1"],
        ["diffusion", "density", "--alpha", "1e150", "--beta", "1", "--theta", "1", "--gamma", "1"],
        ["diffusion", "model1", "--alpha", "5e-324", "--beta", "1", "--theta", "1", "--gamma", "1"],
        ["diffusion", "density", "--alpha", "5e-324", "--beta", "1", "--theta", "1", "--gamma", "1"],
        # the fluid level (alpha - beta)/gamma squares past the float range
        ["diffusion", "model2", "--alpha", "1", "--beta", "1.5", "--theta", "0.5", "--gamma", "1e-200"],
        # the branch variance sigma^2/(2 theta) is inf
        ["diffusion", "model1", "--alpha", "1", "--beta", "1", "--theta", "5e-324", "--gamma", "1"],
        ["diffusion", "density", "--alpha", "1", "--beta", "1", "--theta", "5e-324", "--gamma", "1"],
    ],
    ids=["analytic-theta-inf", "fluid-horizon-inf", "fluid-step-nan", "model1-sigma-inf",
         "fluid-x0-inf", "fluid-x0-nan", "fluid-integrate-x0-nan", "model1-coefficient-overflows",
         "density-coefficient-overflows", "model1-nominal-sd-overflows", "density-nominal-sd-overflows",
         "model2-level-overflows", "model1-variance-overflows", "density-variance-overflows"],
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


def modules_loaded_by_import(package: str) -> str:
    """The modules of package that importing dequelab.cli loads, listed by a fresh interpreter.

    A fresh one, because this test process imports scipy itself, for its oracles.
    """
    src = str(Path(dequelab.__file__).resolve().parents[1])
    code = f"import sys, dequelab.cli; print(sorted(m for m in sys.modules if m.startswith({package!r})))"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_scipy_module():
    assert modules_loaded_by_import("scipy") == "[]"


def test_import_loads_no_numpy_random_module():
    # RandomStream imports numpy.random when it first builds a generator, which keeps 10-15 ms out of every import
    assert modules_loaded_by_import("numpy.random") == "[]"


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

    def test_slow_reneging_on_one_side(self, capsys):
        # the series of p1 nearly cancels in the closed form here; the pmf sum does not
        code, out, _ = run_cli(
            capsys, "analytic", "--alpha", "1", "--beta", "1.5", "--theta", "1e-6", "--gamma", "0.5"
        )
        assert code == 0
        assert json.loads(out)["L2_p"] == pytest.approx(8.30514, abs=5e-6)

    def test_law_past_the_support_cap_names_the_rates(self, capsys):
        code, out, err = run_cli(
            capsys, "analytic", "--alpha", "1", "--beta", "1", "--theta", "1e-11", "--gamma", "1e-11"
        )
        assert_clean_failure(code, out, err, codes=(3,))
        assert "more than 1000000 states a side" in err
        assert "alpha=1, beta=1, theta=1e-11, gamma=1e-11" in err
        assert "tolerance" not in err

    def test_numerical_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "analytic", "--alpha", "1", "--beta", "2", "--theta", "1e-4", "--gamma", "2e-4"
        )
        assert code == 3
        assert "error" in err


RATE_FLAGS = ("--alpha", "--beta", "--theta", "--gamma")
EXTREME_RATES = ("5e-324", "1e-300", "1e-200", "1e-8", "1", "2.5", "1e150", "1e300")


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    flags=st.sampled_from(list(itertools.combinations(RATE_FLAGS, 2))),
    values=st.tuples(st.sampled_from(EXTREME_RATES), st.sampled_from(EXTREME_RATES)),
)
def test_analytic_answers_or_fails_cleanly_at_extreme_rates(flags, values):
    # two of the four rates of (1, 1.5, 0.1, 0.15) set to extreme values
    rates = dict(zip(RATE_FLAGS, ("1", "1.5", "0.1", "0.15")))
    rates.update(zip(flags, values))
    code, out, err = run_redirected(["analytic", *itertools.chain.from_iterable(rates.items())])
    if code == 0:
        assert err == ""
        assert all(math.isfinite(v) for v in json.loads(out).values())
    else:
        assert_clean_failure(code, out, err, codes=(3,))


# the extremes of the input rules; each flag also draws one ordinary value, so that some calls answer
EXTREME_FLUID_VALUES = ("0", "-1", "5e-324", "1e300", "inf", "nan")


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    rates=st.sampled_from([("2", "1", "1", "1"), ("1", "1.5", "0.2", "0.3")]),
    x0=st.sampled_from(EXTREME_FLUID_VALUES + ("2.5",)),
    step=st.sampled_from(EXTREME_FLUID_VALUES + ("0.01",)),
    horizon=st.sampled_from(EXTREME_FLUID_VALUES + ("10",)),
    mode=st.sampled_from([[], ["--closed-form"], ["--integrate"]]),
)
def test_fluid_answers_or_fails_cleanly_at_extreme_inputs(rates, x0, step, horizon, mode):
    # a grid that can succeed has at most horizon/step + 1 = 1001 points
    argv = ["fluid", *itertools.chain.from_iterable(zip(RATE_FLAGS, rates)),
            "--x0", x0, "--step", step, "--horizon", horizon, *mode]
    code, out, err = run_redirected(argv)
    if code == 0:
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "t,x" and len(lines) > 1
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))
    else:
        assert_clean_failure(code, out, err)


EXTREME_VALUES = EXTREME_RATES + ("0", "-1", "inf", "nan")
# small point counts only: test_grid_point_count_is_capped takes the cap
EXTREME_GRIDS = ("-3:3:5", "0:1:1", "nan:1:3", "-inf:1:3", "0:1e300:3", "-1e308:1e308:3", "1:0:3", "0:1:2.5",
                 "-5e-324:5e-324:3")


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    mode=st.sampled_from(["model1", "model2", "density"]),
    flags=st.sampled_from(list(itertools.combinations(RATE_FLAGS, 2))),
    values=st.tuples(st.sampled_from(EXTREME_VALUES), st.sampled_from(EXTREME_VALUES)),
    sds=st.tuples(*[st.sampled_from((None,) + EXTREME_VALUES)] * 2),
    grid=st.sampled_from((None,) + EXTREME_GRIDS),
)
def test_diffusion_answers_or_fails_cleanly_at_extreme_inputs(mode, flags, values, sds, grid):
    rates = dict(zip(RATE_FLAGS, ("1", "1.5", "0.1", "0.15")))
    rates.update(zip(flags, values))
    argv = ["diffusion", mode, *itertools.chain.from_iterable(rates.items())]
    argv += [f"{flag}={value}" for flag, value in zip(("--sigma", "--varsigma"), sds) if value is not None]
    if mode == "density" and grid is not None:
        argv.append(f"--grid={grid}")
    code, out, err = run_redirected(argv)
    if code == 0:
        assert err == ""
        if mode == "density":
            lines = out.splitlines()
            assert lines[0] == "x,psi" and len(lines) > 1
            assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))
        else:
            assert all(math.isfinite(v) for v in json.loads(out).values())
    else:
        assert_clean_failure(code, out, err)


def assert_finite_json(value):
    """Every number in a JSON value is finite; None stands for a CI of one replication."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            assert_finite_json(item)
    elif isinstance(value, float):
        assert math.isfinite(value)
    else:
        # an int, such as the seed echoed back, is exact; strings name the family
        assert value is None or isinstance(value, (int, str))


# an integer past the float range, as the CLI and a JSON config take it
HUGE = 10**400
# a call sets up to three flags of a short valid run to other values: ordinary ones, the
# extremes of the input rules and integers past the float range.  Every valid value keeps the
# run short: rates and horizons small, few replications, small |x0|.
SIMULATE_ARGS = {"--alpha": "1", "--beta": "1.5", "--theta": "0.5", "--gamma": "0.75", "--reps": "2",
                 "--horizon": "20", "--warmup": "2", "--seed": "7", "--x0": "0", "--bound": "40"}
SIMULATE_VALUES = [(flag, value) for flag, values in {
    "--alpha": ("2", "5e-324", "0", "-1", "nan", "1e400", str(HUGE)),
    "--beta": ("0.5", "5e-324", "inf", str(HUGE)),
    "--theta": ("1e300", "5e-324", "0", "nan", str(HUGE)),
    "--gamma": ("1e300", "-1", "inf"),
    "--reps": ("1", "3", "0", "-1", "1000001", str(HUGE)),
    "--horizon": ("5", "5e-324", "0", "1e300", "inf", "nan", str(HUGE)),
    "--warmup": ("0", "20", "-1", "nan", str(HUGE)),
    "--seed": ("0", "-1", str(HUGE)),
    "--x0": ("4", "-4", str(2**63), str(des.MAX_START_STATE + 1), str(-des.MAX_START_STATE - 1), str(HUGE),
             str(-HUGE)),
    "--bound": ("1", "0", str(HUGE)),
}.items() for value in values]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    dist=st.sampled_from(["exp", "uniform", "erlang2", "hyperexp"]),
    changes=st.lists(st.sampled_from(SIMULATE_VALUES), max_size=3),
)
def test_simulate_answers_or_fails_cleanly_at_extreme_inputs(dist, changes):
    args = {**SIMULATE_ARGS, **dict(changes)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_redirected(["simulate", "--dist", dist, *itertools.chain.from_iterable(args.items())])
    # the one warning a run may give: time outside the histogram box
    assert all(str(w.message).startswith("overflow share") for w in caught)
    if code == 0:
        assert err == ""
        assert_finite_json(json.loads(out))
    else:
        assert_clean_failure(code, out, err)


# one cell: alpha, beta, multiplier, budget and histogram_bound of a short valid run, and the seed
COMPARE_FIELDS = {"alpha": 1, "beta": 1.5, "multiplier": 0.5, "replications": 2, "warmup": 2.0, "horizon": 20,
                  "histogram_bound": 40, "seed": "3"}
COMPARE_VALUES = [(key, value) for key, values in {
    "alpha": (2.0, 0, -1, HUGE, math.inf),
    "beta": (1, 5e-324, HUGE, math.nan),
    "multiplier": (1, 0, -0.5, HUGE, math.nan),
    "replications": (1, 3, 0, 10**6 + 1, HUGE),
    "warmup": (0, 20, -1, HUGE),
    "horizon": (5.0, 0, 1e12, HUGE, math.inf),
    "histogram_bound": (1, 0, HUGE),
    "seed": ("-1", str(HUGE)),
}.items() for value in values]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    family=st.sampled_from(["exp", "uniform", "erlang2", "hyperexp"]),
    changes=st.lists(st.sampled_from(COMPARE_VALUES), max_size=3),
)
def test_compare_answers_or_fails_cleanly_at_extreme_configs(family, changes):
    fields = {**COMPARE_FIELDS, **dict(changes)}
    config = {
        "families": [family],
        "rate_pairs": [[fields["alpha"], fields["beta"]]],
        "reneging_multipliers": [fields["multiplier"]],
        "budget": {key: fields[key] for key in ("replications", "warmup", "horizon")},
        "histogram_bound": fields["histogram_bound"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = Path(tmp) / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_redirected(["compare", "--config", str(cfg_path), "--seed", fields["seed"],
                                             "--out", str(out_dir)])
        assert all(str(w.message).startswith("overflow share") for w in caught)
        if code == 0:
            assert err == ""
            assert_finite_json(json.loads((out_dir / "comparison.json").read_text()))
        else:
            assert_clean_failure(code, out, err)


@pytest.mark.parametrize("mode", [[], ["--integrate"]], ids=["closed-form", "integrate"])
@pytest.mark.parametrize("horizon", ["1e9", "1e300"])
def test_fluid_grid_past_the_cap_is_a_resource_limit(capsys, mode, horizon):
    code, out, err = run_cli(capsys, "fluid", "--alpha", "2", "--beta", "1", "--theta", "1", "--gamma", "1",
                             "--x0", "-1", "--step", "0.01", "--horizon", horizon, *mode)
    assert_clean_failure(code, out, err, codes=(3,))
    assert f"step 0.01 up to horizon {float(horizon):g}" in err and "10000000 points" in err


def test_grid_point_count_is_capped(capsys, monkeypatch):
    # the density grid shares the fluid path's cap, read where the count is checked; a small cap stands in
    monkeypatch.setattr(fluid, "MAX_GRID_POINTS", 100)
    code, out, err = run_cli(capsys, "diffusion", "density", *RATES, "--grid", "0:1:101")
    assert_clean_failure(code, out, err, codes=(2,))
    assert "grid point count must be an integer in [2, 100]" in err
    code, out, _ = run_cli(capsys, "diffusion", "density", *RATES, "--grid", "0:1:100")
    assert code == 0 and len(out.splitlines()) == 101


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of every dequelab command in README's "Command line" block."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```bash\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dequelab ")]


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == set(_HANDLERS)


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: "-".join(a for a in argv[:2] if a[0] != "-"))
def test_readme_command_runs(capsys, monkeypatch, tmp_path, argv):
    # run from the repository root, as the README's relative config path assumes, writing under tmp_path
    monkeypatch.chdir(README.parent)
    argv = [str(tmp_path / "out") if prev == "--out" else arg for prev, arg in zip([None, *argv], argv)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


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

    def test_work_past_the_cap_fails_before_drawing(self, capsys):
        # 5e12 expected arrivals would run for weeks; the scenario fails before the first draw
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", "--dist", "exp", "--alpha", "1", "--beta", "1.5",
                                 "--theta", "0.5", "--gamma", "0.75", "--reps", "2", "--horizon", "1e12",
                                 "--warmup", "0", "--seed", "7")
        assert time.perf_counter() - start < 1.0
        assert_clean_failure(code, out, err, codes=(3,))
        assert "5e+12 expected arrivals" in err and "cap of 1000000000" in err

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
            {"families": ["exp"], "rate_pairs": [[1, "2"]], "budget": TINY_BUDGET},
            {"families": ["exp"], "budget": {"replications": 1, "warmup": "0", "horizon": 5}},
            {"families": ["exp"], "reneging_multipliers": [True], "budget": TINY_BUDGET},
            {"families": ["exp"], "budget": {"replications": True, "warmup": 0, "horizon": 5}},
            {"families": ["exp"], "budget": {**TINY_BUDGET, "seed": 9}},
            {"families": "exp", "budget": TINY_BUDGET},
            {"families": ["exp"], "rate_pairs": [[10**400, 1.0]], "budget": TINY_BUDGET},
            {"families": ["exp"], "budget": {"replications": 10**400, "warmup": 0, "horizon": 5}},
        ],
        ids=["budget-missing-keys", "replications-not-a-number", "rate-not-a-number", "not-an-object",
             "histogram-bound-zero", "family-not-a-string", "replications-not-whole", "histogram-bound-not-whole",
             "multiplier-infinite", "rate-infinite", "rate-numeric-string", "warmup-numeric-string",
             "multiplier-true", "replications-true", "budget-extra-key", "families-not-a-list",
             "rate-past-float-range", "replications-past-cap"],
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

    def test_config_that_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "compare", "--config", str(tmp_path), "--seed", "1",
                                 "--out", str(tmp_path / "o"))
        assert_clean_failure(code, out, err, codes=(2,))
        assert "Is a directory" in err

    def test_config_that_is_not_utf8(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"families": ["exp\xff"]}')
        code, out, err = run_cli(capsys, "compare", "--config", str(cfg_path), "--seed", "1",
                                 "--out", str(tmp_path / "o"))
        assert_clean_failure(code, out, err, codes=(2,))
        assert f"config file {cfg_path} is not valid JSON" in err and "utf-8" in err

    def test_output_that_is_a_file(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"families": ["exp"], "budget": TINY_BUDGET}))
        out_path = tmp_path / "out"
        out_path.write_text("kept")
        code, out, err = run_cli(capsys, "compare", "--config", str(cfg_path), "--seed", "1",
                                 "--out", str(out_path))
        assert_clean_failure(code, out, err, codes=(2,))
        assert "File exists" in err and out_path.read_text() == "kept"


# sha256 of the stdout of valid calls: any change to an output byte shows here
PINNED_ARGV = {
    "analytic": ["analytic", "--alpha", "1", "--beta", "1.5", "--theta", "0.1", "--gamma", "0.15"],
    "fluid-closed-form": ["fluid", "--alpha", "1", "--beta", "1.5", "--theta", "0.2", "--gamma", "0.3",
        "--x0", "2", "--horizon", "5", "--step", "0.01"],
    "fluid-integrate": ["fluid", "--alpha", "1", "--beta", "1.5", "--theta", "0.2", "--gamma", "0.3",
        "--x0", "2", "--horizon", "5", "--step", "0.01", "--integrate"],
    "model1": ["diffusion", "model1", "--alpha", "1", "--beta", "2", "--theta", "0.01", "--gamma", "0.02",
        "--dist", "erlang2"],
    "model2": ["diffusion", "model2", "--alpha", "1", "--beta", "1.5", "--theta", "0.1", "--gamma", "0.15",
        "--dist", "hyperexp"],
    "density-default-grid": ["diffusion", "density", "--alpha", "1", "--beta", "1.5", "--theta", "0.1",
        "--gamma", "0.15", "--dist", "uniform"],
    "density-explicit-grid": ["diffusion", "density", *RATES, "--dist", "exp", "--grid=-3:3:61"],
    "density-sd-override": ["diffusion", "density", *RATES, "--sigma", "0.5", "--varsigma", "2"],
    "simulate": ["simulate", "--dist", "hyperexp", "--alpha", "1", "--beta", "1.5", "--theta", "0.5",
        "--gamma", "0.75", "--reps", "2", "--horizon", "80", "--warmup", "10", "--seed", "7",
        "--x0", "-2", "--bound", "40"],
}
PINNED_STDOUT = {
    "analytic": "3763e6d00469668eac320cc1453273fd0c41b3d4dcb47fc2dda906e897b99f72",
    "fluid-closed-form": "01c474c885629d50894373a3259317ad0d91419f1ea152a74c3d5b4cbaab2eec",
    "fluid-integrate": "52cedba4c8de52063094664fc9c0f2b5ba369bbf88c2cfcf4e1f465918d80af8",
    "model1": "b14f94d69afed2231742d8d6239c84dbe49e1b4bce1fe7d850c9da947fcf0842",
    "model2": "1084705809ff7dce51ed0716877e639031165e88fc414a50fe7f232ae0981b41",
    "density-default-grid": "14961c23944952111756f38822b7fc6b1f38769e6ec6215b43fe78b94f8eab53",
    "density-explicit-grid": "247032b1da9b22bee8b7b90912feb7446913b28b6116dc3172a5e5063c0c5c32",
    "density-sd-override": "3189cc263cc9e8da62556d01d44c77843dbe0c17100e1ba9a31e67cd20e99168",
    "simulate": "f981608cdf5e63019ee245f753f1fc9b1872de22a30fdcd3bd33e22b2c8b8469",
}
# every family by an alias, whole numbers where floats are meant; compare writes each file named below
PINNED_COMPARE_CONFIG = {
    "families": ["exp", "uniform", "erlang2", "HyperExp"],
    "rate_pairs": [[1, 1.5]],
    "reneging_multipliers": [1, 0.1],
    "budget": {"replications": 2, "warmup": 10, "horizon": 60},
    "histogram_bound": 200,
}
# the density files' psi_cell_mass digits in the upper tail were re-recorded
# when cell masses came from each side's own tails: the old digits there were
# rounding noise of cdf differences near 1, the new ones round mpmath's values
PINNED_COMPARE_FILES = {
    "stdout": "58825c493e6ae563e1bc807c5f4012734803fefb2fea4c94c36179fa7231489e",
    "comparison.csv": "a8f485d668572a8bd8025529d4fd01bc1404ec6bd84bcef114f47e007b69079c",
    "comparison.json": "08d88953edbba8f32e67a5dc244349ff9ea6aa8692d1ffcbbafd5ad7bda8bbfa",
    "density/exponential_a1_b1.5_m1.csv": "8af03459935b1d5f28a5d4802d7c081cf67532b180c0d32745bfa399f74c4ed1",
    "density/exponential_a1_b1.5_m0.1.csv": "6ea41288c9e71f78076a263d9c68c4caa744723e0946d6b9a1844398b1236d0d",
    "density/uniform_a1_b1.5_m1.csv": "91ad5cf6c33fde4088ccf8c540632620b47eaa0affc6aedeebea91653b88bac3",
    "density/uniform_a1_b1.5_m0.1.csv": "1bba13c93e1d5bbb37e57383ef69b911ef3243a65b99e08914ff6299de011fbd",
    "density/erlang_a1_b1.5_m1.csv": "b65ef50c8dd2e238503345fd9ae33c1175365b40a084f09361b03ef7925a3190",
    "density/erlang_a1_b1.5_m0.1.csv": "49c91b388bca7f9256ac802b679dc0b6dd862113585db10ae5441a61c0c88408",
    "density/hyperexponential_a1_b1.5_m1.csv": "842e10333629d5f5d23df314a614d2ec0f2fbda96f899fa2136d49eac715bee7",
    "density/hyperexponential_a1_b1.5_m0.1.csv": "949b3d9cabf0c2b5370eab18a1d26a78c02c71852dede5f65cdab79d31f5ffed",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("name", list(PINNED_ARGV))
    def test_stdout_bytes(self, capsys, name):
        code, out, err = run_cli(capsys, *PINNED_ARGV[name])
        assert (code, err) == (0, "")
        assert sha256(out) == PINNED_STDOUT[name]

    def test_compare_files_bytes(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PINNED_COMPARE_CONFIG))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "compare", "--config", str(cfg_path), "--seed", "5", "--out", str(out_dir))
        assert (code, err) == (0, "")
        files = [p for p in out_dir.rglob("*") if p.is_file()]
        digests = {p.relative_to(out_dir).as_posix(): sha256(p.read_text(encoding="utf-8")) for p in files}
        digests["stdout"] = sha256(out.replace(str(out_dir), "<out>"))
        assert digests == PINNED_COMPARE_FILES

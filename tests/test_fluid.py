import math

import numpy as np
import pytest

from dequelab.errors import DomainError
from dequelab.fluid import (
    discounted_source_integral,
    fluid_closed_form,
    fluid_closed_form_path,
    fluid_integrate,
    fluid_limit,
    zero_hitting_time,
)
from dequelab.params import QueueParams


def case_params(rng):
    """Random parameters hitting all four start/drift sign combinations."""
    cases = []
    for alpha_ge_beta in (True, False):
        for x0_positive in (True, False):
            for _ in range(4):
                lo, hi = (1.0, 2.0) if alpha_ge_beta else (0.5, 1.0)
                alpha = float(rng.uniform(lo, hi))
                beta = float(rng.uniform(0.5, 1.0)) if alpha_ge_beta else float(rng.uniform(1.2, 2.0))
                theta = float(rng.uniform(0.1, 1.0))
                gamma = float(rng.uniform(0.1, 1.0))
                x0 = float(rng.uniform(0.2, 4.0)) * (1.0 if x0_positive else -1.0)
                cases.append((QueueParams(alpha, beta, theta, gamma), x0))
    return cases


class TestFluidLimit:
    def test_balanced(self):
        assert fluid_limit(QueueParams(1, 1, 0.7, 0.2)) == 0.0

    def test_table_anchor(self):
        assert fluid_limit(QueueParams(1, 1.5, 0.1, 0.15)) == pytest.approx(-10.0 / 3.0, rel=1e-12)

    def test_surplus_side(self):
        assert fluid_limit(QueueParams(2, 1, 0.5, 0.1)) == pytest.approx(2.0)


class TestClosedForm:
    def test_fixed_point_is_constant(self):
        params = QueueParams(2, 1, 0.5, 0.3)
        level = fluid_limit(params)
        ts = np.linspace(0.0, 30.0, 50)
        assert np.allclose(fluid_closed_form(params, level, ts), level, atol=1e-14)

    def test_hitting_time_log_formula(self):
        params = QueueParams(2, 1, 1, 1)
        t1 = zero_hitting_time(params, -1.0)
        assert t1 == pytest.approx(math.log(2.0), rel=1e-14)
        assert abs(fluid_closed_form(params, -1.0, t1)) <= 1e-12

    def test_long_run_anchor(self):
        params = QueueParams(1, 1.5, 0.1, 0.15)
        assert fluid_closed_form(params, 0.0, 400.0) == pytest.approx(-10.0 / 3.0, rel=1e-9)

    def test_balanced_from_zero_stays_zero(self):
        params = QueueParams(1.3, 1.3, 0.5, 0.7)
        ts = np.linspace(0.0, 20.0, 21)
        assert np.all(fluid_closed_form(params, 0.0, ts) == 0.0)

    def test_balanced_decay_no_case_switch(self):
        params = QueueParams(1, 1, 0.5, 0.25)
        assert zero_hitting_time(params, -2.0) is None
        assert fluid_closed_form(params, -2.0, 4.0) == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-12)
        assert fluid_closed_form(params, 2.0, 4.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_continuity_at_hitting_time(self):
        for params, x0 in [
            (QueueParams(2, 1, 1, 1), -1.0),
            (QueueParams(1, 1.5, 0.3, 0.45), 4.0),
        ]:
            t_hit = zero_hitting_time(params, x0)
            delta = params.alpha - params.beta
            if x0 < 0.0:
                left = (x0 - delta / params.gamma) * math.exp(-params.gamma * t_hit) + delta / params.gamma
            else:
                left = (x0 - delta / params.theta) * math.exp(-params.theta * t_hit) + delta / params.theta
            assert abs(left - 0.0) <= 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            fluid_closed_form(QueueParams(1, 1, 1, 1), 0.0, -1.0)

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_rejected(self, x0):
        params = QueueParams(2, 1, 1, 1)
        with pytest.raises(DomainError):
            fluid_closed_form(params, x0, 0.1)
        with pytest.raises(DomainError):
            fluid_closed_form_path(params, x0, 0.1, 0.2)
        with pytest.raises(DomainError):
            fluid_integrate(params, x0, 0.01, 0.2)


    @pytest.mark.parametrize(
        "x0, t, const, slope",
        [
            (math.inf, 1.0, 1.0, 0.0),
            (math.nan, 1.0, 1.0, 0.0),
            (0.0, math.inf, 1.0, 0.0),
            (0.0, [0.5, math.nan], 1.0, 0.0),
            (0.0, 1.0, math.nan, 0.0),
            (0.0, 1.0, 1.0, math.inf),
        ],
        ids=["x0-inf", "x0-nan", "t-inf", "t-nan", "const-nan", "slope-inf"],
    )
    def test_discounted_source_integral_rejects_non_finite_input(self, x0, t, const, slope):
        with pytest.raises(DomainError):
            discounted_source_integral(QueueParams(1, 2, 1, 1), x0, t, const, slope)


class TestIntegratorOracle:
    def test_all_cases_match_closed_form(self):
        rng = np.random.default_rng(7)
        for params, x0 in case_params(rng):
            step = 0.01 / max(params.theta, params.gamma)
            horizon = 10.0 / min(params.theta, params.gamma)
            path = fluid_integrate(params, x0, step, horizon)
            closed = fluid_closed_form(params, x0, path.t)
            assert np.abs(path.x - closed).max() <= 1e-6

    def test_hitting_time_detection(self):
        params = QueueParams(2, 1, 1, 1)
        path = fluid_integrate(params, -1.0, 0.01, 5.0)
        assert path.hitting_time == pytest.approx(math.log(2.0), abs=1e-7)

    def test_fixed_point_constant(self):
        params = QueueParams(1, 2, 0.2, 0.4)
        level = fluid_limit(params)
        path = fluid_integrate(params, level, 0.02, 10.0)
        assert np.allclose(path.x, level, atol=1e-12)

    def test_step_guard(self):
        with pytest.raises(DomainError):
            fluid_integrate(QueueParams(1, 1, 1, 1), 0.0, 0.5, 5.0)

    def test_monotone_approach_after_hit(self):
        params = QueueParams(2, 1, 0.8, 0.4)
        path = fluid_integrate(params, -2.0, 0.0125, 20.0)
        level = fluid_limit(params)
        gaps = np.abs(path.x[path.t > path.hitting_time] - level)
        assert np.all(np.diff(gaps) < 0.0)

    def test_sign_matches_drift_after_hit(self):
        rng = np.random.default_rng(21)
        for params, x0 in case_params(rng)[:8]:
            path = fluid_integrate(
                params, x0, 0.01 / max(params.theta, params.gamma), 12.0 / min(params.theta, params.gamma)
            )
            if path.hitting_time is None:
                continue
            after = path.x[path.t > path.hitting_time]
            sign = math.copysign(1.0, params.alpha - params.beta)
            assert np.all(sign * after >= -1e-9)


class TestPathHelpers:
    def test_closed_form_path_grid(self):
        params = QueueParams(1, 1.5, 0.2, 0.3)
        path = fluid_closed_form_path(params, -1.0, 0.1, 5.0)
        assert path.t[0] == 0.0
        assert path.t[-1] == pytest.approx(5.0)
        assert path.x[0] == -1.0

    def test_value_at_lookup(self):
        params = QueueParams(1, 1.5, 0.2, 0.3)
        path = fluid_closed_form_path(params, 2.0, 0.5, 5.0)
        assert path.value_at(-1.0) == path.x[0]
        assert path.value_at(0.74) == path.x[1]
        assert path.value_at(99.0) == path.x[-1]

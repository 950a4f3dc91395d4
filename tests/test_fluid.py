import hashlib
import math
import struct

import numpy as np
import pytest

from dequelab.errors import DomainError, ResourceLimitError
from dequelab.fluid import (
    _rk4_step,
    discounted_source_integral,
    fluid_closed_form,
    fluid_closed_form_path,
    fluid_integrate,
    fluid_limit,
    zero_hitting_time,
)
from dequelab.params import QueueParams
from dequelab.poisson_ctmc import second_moment_lower_bound, transient_moments


# (rates, x0, step, horizon) of fluid_integrate calls whose bits are pinned; the
# workload cases are the transient benchmark's five, the stationary start's
# mean written out
PINNED_CASES = {
    "balanced-from-zero": ((1.0, 1.0, 0.5, 0.25), 0.0, 0.02, 10.0),
    "balanced-from-plus-two": ((1.0, 1.0, 0.5, 0.25), 2.0, 0.02, 10.0),
    "balanced-from-minus-two": ((1.0, 1.0, 0.5, 0.25), -2.0, 0.02, 10.0),
    "crossing-from-below": ((2.0, 1.0, 1.0, 1.0), -1.0, 0.01, 5.0),
    "crossing-from-above": ((1.0, 1.5, 0.3, 0.45), 4.0, 0.01 / 0.45, 20.0),
    "on-fixed-point": ((1.0, 2.0, 0.2, 0.4), -2.5, 0.02, 10.0),
    "theta-ne-gamma": ((2.0, 1.0, 0.8, 0.4), 3.0, 0.0125, 20.0),
    "workload-balanced": ((1.0, 1.0, 0.5, 0.5), 0.0, 0.02, 20.0),
    "workload-far-side": ((1.0, 1.5, 0.5, 0.5), 3.0, 0.02, 20.0),
    "workload-stationary": ((1.0, 1.5, 0.1, 0.15), -3.253249148526459, 0.01 / 0.15, 100.0),
    "workload-from-zero": ((2.0, 1.0, 1.0, 0.5), 0.0, 0.01, 20.0),
    "workload-small-reneging": ((1.0, 1.0, 0.02, 0.02), 0.0, 0.5, 500.0),
}
# sha256 of x.tobytes() + repr(hitting_time), recorded from the integrator
# whose stages called a drift function on the params; the three crossing
# cases re-recorded when the hitting time became a Python float (repr
# '0.693...' in place of 'np.float64(0.693...)'), with x.tobytes() unchanged
PINNED_DIGESTS = {
    "balanced-from-zero": "5baf8af7443a61cd31bee92cc724bd65af15cf7453a4bc1abf2d95980ab2a715",
    "balanced-from-plus-two": "c020fbca78ee4fdf530f6b0b29d9ba7529802923e5daa6632289f4b2c09116f7",
    "balanced-from-minus-two": "a0bb74d0bcf2300dcab7912bcfb8ada74a4d07eae6891327bd5c56c321082f01",
    "crossing-from-below": "d32897f04ac50e95fd36b4370946a43ce8194ba5acb8f5e8c5239f9bb60206e2",
    "crossing-from-above": "9afaaeebc21223075fb249221fa6d74c971e63cfe26832e96959ba6e1a1c07c4",
    "on-fixed-point": "cc06e508bcf01d09b990e127703bee97c1d42cb440f5fc10427bc65ae9341807",
    "theta-ne-gamma": "b7a47aae7f8eb10d4624f3b26212b6ddb6851d1329ae7f5959d2d721d06bb329",
    "workload-balanced": "6ba205ded303ea9ad662a67276bb9c203ba52f5c1d085448c5abd2e781b2a91f",
    "workload-far-side": "f236e291d5248950d56b898ae6de1f149bb2123ed4de47ce80c6eef9251bef7a",
    "workload-stationary": "0f77cebfa2b4aae80c543e904f2a9c061f5c61f8ec950394ac2ec7109ed395d5",
    "workload-from-zero": "3dbe31009544d67fa876d933b2afd38439e517e15d6d3870a5411db1ad27b058",
    "workload-small-reneging": "6ba205ded303ea9ad662a67276bb9c203ba52f5c1d085448c5abd2e781b2a91f",
}


def full_drift(delta, theta, gamma, y):
    """delta - theta y^+ + gamma y^- with both sides written out, the oracle's stage formula."""
    return delta - theta * (y if y > 0.0 else 0.0) + gamma * (-y if -y > 0.0 else 0.0)


def oracle_rk4_step(delta, theta, gamma, x, h):
    """One RK4 step whose stages each evaluate the full drift."""
    k1 = full_drift(delta, theta, gamma, x)
    k2 = full_drift(delta, theta, gamma, x + 0.5 * h * k1)
    k3 = full_drift(delta, theta, gamma, x + 0.5 * h * k2)
    k4 = full_drift(delta, theta, gamma, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def oracle_integrate(params, x0, step, horizon):
    """fluid_integrate's path and hitting time on oracle_rk4_step, stored in a preallocated array."""
    delta, theta, gamma = params.alpha - params.beta, params.theta, params.gamma
    t_grid = np.arange(0.0, horizon + 0.5 * step, step)
    xs = np.empty_like(t_grid)
    xs[0] = x = x0
    hitting = None
    for k in range(1, len(t_grid)):
        x_new = oracle_rk4_step(delta, theta, gamma, x, step)
        if (x_new < 0.0 < x or x < 0.0 < x_new) and hitting is None:
            lo, hi = 0.0, step
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                y = oracle_rk4_step(delta, theta, gamma, x, mid)
                if (y > 0.0) if x > 0.0 else (y < 0.0):
                    lo = mid
                else:
                    hi = mid
            h_cross = 0.5 * (lo + hi)
            hitting = float(t_grid[k - 1]) + h_cross
            x_new = oracle_rk4_step(delta, theta, gamma, 0.0, step - h_cross)
        x = x_new
        xs[k] = x
    return xs, hitting


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, [0.5, math.nan]], ids=["nan", "inf", "nan-in-array"])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError):
            fluid_closed_form(QueueParams(2, 1, 1, 1), 0.0, t)

    @pytest.mark.parametrize(
        "t",
        [True, False, np.True_, [True], [0.5, True], (0.5, np.True_), np.array([True, False]), np.array(True),
         np.array([0.5, True], dtype=object)],
        ids=["True", "False", "np.True_", "list", "mixed-list", "mixed-tuple", "bool-array", "bool-0d", "object-array"],
    )
    def test_truth_value_time_rejected(self, t):
        # np.asarray(True, dtype=float) is 1.0; a truth value is no time
        params = QueueParams(1, 1.5, 0.5, 0.5)
        for call in (
            lambda: transient_moments(params, {0: 1.0}, t),
            lambda: fluid_closed_form(params, 1.0, t),
            lambda: second_moment_lower_bound(params, 0.0, 0.0, t),
        ):
            with pytest.raises(DomainError, match="finite times"):
                call()

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_rejected(self, x0):
        params = QueueParams(2, 1, 1, 1)
        with pytest.raises(DomainError):
            fluid_closed_form(params, x0, 0.1)
        with pytest.raises(DomainError):
            fluid_closed_form_path(params, x0, 0.1, 0.2)
        with pytest.raises(DomainError):
            fluid_integrate(params, x0, 0.01, 0.2)
        with pytest.raises(DomainError, match="x0 must be finite"):
            zero_hitting_time(params, x0)


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

    @pytest.mark.parametrize("name", list(PINNED_CASES))
    def test_pinned_bits(self, name):
        rates, x0, step, horizon = PINNED_CASES[name]
        path = fluid_integrate(QueueParams(*rates), x0, step, horizon)
        digest = hashlib.sha256(path.x.tobytes() + repr(path.hitting_time).encode()).hexdigest()
        assert digest == PINNED_DIGESTS[name]

    def test_step_has_the_bits_of_the_full_drift(self):
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(12_000):
            delta = rng.choice([0.0, float(rng.uniform(-3.0, 3.0))])
            theta, gamma = (float(v) for v in 10.0 ** rng.uniform(-3.0, 0.5, 2))
            h = float(10.0 ** rng.uniform(-4.0, 0.3))
            kind = rng.integers(4)
            if kind == 0:
                x = float(rng.choice([0.0, -0.0]))
            elif kind == 1:
                # a subnormal x: k times the smallest one, k < 2^52
                x = float(rng.integers(1, 2**52)) * 5e-324 * rng.choice([1.0, -1.0])
            elif kind == 2:
                # within a step of zero, on the side the drift leaves: the stages cross zero
                x = -math.copysign(float(rng.uniform(0.0, 1.0)) * h * max(abs(delta), 1e-3), delta or 1.0)
            else:
                x = float(rng.uniform(-5.0, 5.0))
            cases.append((delta, theta, gamma, x, h))
        crossing = sum(
            (x + 0.5 * h * full_drift(delta, theta, gamma, x) > 0.0) != (x > 0.0)
            for delta, theta, gamma, x, h in cases
        )
        assert crossing >= 2_000
        assert sum(x == 0.0 for _, _, _, x, _ in cases) >= 2_000
        assert sum(0.0 < abs(x) < 2.2250738585072014e-308 for _, _, _, x, _ in cases) >= 2_000
        mismatched = [case for case in cases if bits(_rk4_step(*case)) != bits(oracle_rk4_step(*case))]
        assert mismatched == []

    def test_paths_have_the_bits_of_the_full_drift(self):
        rng = np.random.default_rng(2025)
        crossed = 0
        for i in range(2_000):
            alpha = float(rng.uniform(0.5, 2.0))
            beta = alpha if i % 10 == 0 else float(rng.uniform(0.5, 2.0))
            params = QueueParams(alpha, beta, *(float(v) for v in rng.uniform(0.05, 1.5, 2)))
            delta = alpha - beta
            step = 0.01 / max(params.theta, params.gamma)
            horizon = float(rng.integers(5, 30)) * step
            if i % 3 == 0:
                # on the side the drift leaves and close enough to reach zero before the horizon
                x0 = -math.copysign(float(rng.uniform(0.0, 1.0)) * abs(delta) * horizon, delta or 1.0)
            elif i % 3 == 1:
                x0 = float(rng.choice([0.0, -0.0, 5e-324, -5e-324, float(rng.uniform(-1e-300, 1e-300))]))
            else:
                x0 = float(rng.uniform(-3.0, 3.0))
            path = fluid_integrate(params, x0, step, horizon)
            xs, hitting = oracle_integrate(params, x0, step, horizon)
            assert path.x.tobytes() == xs.tobytes()
            assert repr(path.hitting_time) == repr(hitting)
            crossed += hitting is not None
        assert crossed >= 500

    @pytest.mark.parametrize("x0", [5e-324, 1e-300], ids=["subnormal", "tiny"])
    def test_crossing_next_to_zero_is_found(self, x0):
        # x * x_new underflows to zero here, so only a sign test sees the crossing
        params = QueueParams(1, 1.5, 0.2, 0.3)
        path = fluid_integrate(params, x0, 0.01, 1.0)
        assert type(path.hitting_time) is float
        assert abs(path.hitting_time - zero_hitting_time(params, x0)) <= 1e-12

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

    def test_grid_one_point_past_the_cap_is_a_resource_limit(self):
        # 0, step, ..., horizon is 10^7 + 1 points
        params = QueueParams(2, 1, 1, 1)
        with pytest.raises(ResourceLimitError, match="step 1 up to horizon 1e"):
            fluid_closed_form_path(params, -1.0, 1.0, 1e7)
        with pytest.raises(ResourceLimitError, match="step 0.01 up to horizon 100000"):
            fluid_integrate(params, -1.0, 0.01, 1e5)

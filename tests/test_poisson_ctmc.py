import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import pdtrc

from dequelab import poisson_ctmc
from dequelab.errors import (
    DomainError,
    NumericalOverflowError,
    ResourceLimitError,
    TruncationError,
    UnsupportedCaseError,
)
from dequelab.fluid import zero_hitting_time
from dequelab.params import QueueParams
from dequelab.poisson_ctmc import (
    asymptotic_moment_approximations,
    gamma_moment_summary,
    limiting_expectation,
    poisson_moment_estimates,
    second_moment_lower_bound,
    stationary_distribution,
    transient_moments,
)


def series_summary(alpha, beta, theta, gamma, tol=1e-25):
    """Independent oracle: direct log-space summation of the balance-equation products.

    Returns (p1, p2, pi0, m_plus, m_minus, s_plus, s_minus).
    """

    def side(arr_num, arr_rate, reneg):
        log_w = 0.0
        p = m = s = 0.0
        i = 0
        while True:
            i += 1
            log_w += math.log(arr_num) - math.log(arr_rate + i * reneg)
            w = math.exp(log_w)
            p += w
            m += i * w
            s += i * i * w
            if w * i * i < tol * max(1.0, s) and i > 8:
                return p, m, s

    p1, m_pos, s_pos = side(alpha, beta, theta)
    p2, m_neg, s_neg = side(beta, alpha, gamma)
    pi0 = 1.0 / (1.0 + p1 + p2)
    return p1, p2, pi0, m_pos * pi0, m_neg * pi0, s_pos * pi0, s_neg * pi0


def ctmc_second_moment_mc(alpha, beta, theta, gamma, t_end, n_paths, seed):
    """Monte Carlo oracle: simulate the birth-death chain directly.

    Returns (mean of X(t)^2 across paths, standard error).
    """
    rng = np.random.default_rng(seed)
    x = np.zeros(n_paths, dtype=np.int64)
    t = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)
    while active.any():
        lam = alpha + np.maximum(-x, 0) * gamma
        mu = beta + np.maximum(x, 0) * theta
        total = lam + mu
        t_next = t + rng.exponential(1.0, n_paths) / total
        crossed = active & (t_next > t_end)
        active &= ~crossed
        step = active
        t[step] = t_next[step]
        up = step & (rng.random(n_paths) * total < lam)
        x[up] += 1
        x[step & ~up] -= 1
    values = x.astype(float) ** 2
    return values.mean(), values.std(ddof=1) / math.sqrt(n_paths)


class TestStationaryDistribution:
    def test_balanced_unit_case(self):
        # pi_0 = (1 + 2 sum 1/(i+1)!)^-1 = 1/(2e - 3); oracle agrees
        pmf = stationary_distribution(QueueParams(1, 1, 1, 1))
        pi0_exact = 1.0 / (2.0 * math.e - 3.0)
        _, _, pi0_series, *_ = series_summary(1, 1, 1, 1)
        assert pi0_series == pytest.approx(pi0_exact, rel=1e-14)
        assert pmf.prob(0) == pytest.approx(pi0_exact, rel=1e-12)
        assert pmf.prob(1) == pytest.approx(pi0_exact / 2.0, rel=1e-12)
        assert pmf.prob(-1) == pytest.approx(pi0_exact / 2.0, rel=1e-12)

    def test_symmetry(self):
        pmf = stationary_distribution(QueueParams(1.3, 1.3, 0.4, 0.4))
        assert np.allclose(pmf.probs, pmf.probs[::-1], rtol=1e-12, atol=0.0)

    def test_table_anchor_mean(self):
        pmf = stationary_distribution(QueueParams(1, 1.5, 0.1, 0.15))
        assert pmf.mean() == pytest.approx(-3.2532, abs=1e-3)

    def test_detailed_balance(self):
        params = QueueParams(1.0, 1.7, 0.23, 0.11)
        pmf = stationary_distribution(params)
        states = pmf.states
        for i, p in zip(states[:-1], pmf.probs[:-1]):
            lam = params.alpha + max(-i, 0) * params.gamma
            mu = params.beta + (i + 1 if i + 1 > 0 else 0) * params.theta
            flow_up = lam * p
            flow_down = mu * pmf.prob(i + 1)
            if flow_up > 0:
                assert flow_down == pytest.approx(flow_up, rel=1e-10)

    def test_mass_and_tail(self):
        pmf = stationary_distribution(QueueParams(1, 2, 0.01, 0.02), tail_tol=1e-9)
        total = pmf.probs.sum()
        assert 1.0 - pmf.tail_mass_bound <= total <= 1.0 + 1e-12
        assert pmf.tail_mass_bound < 1e-9

    def test_tail_tol_validation(self):
        with pytest.raises(DomainError):
            stationary_distribution(QueueParams(1, 1, 1, 1), tail_tol=0.5)

    def test_support_cap(self):
        with pytest.raises(ResourceLimitError):
            stationary_distribution(QueueParams(1.0, 1.0, 1e-7, 1e-7))


class TestGammaMomentSummary:
    def test_balanced_unit_case(self):
        summary = gamma_moment_summary(QueueParams(1, 1, 1, 1))
        p1_series, p2_series, *_ = series_summary(1, 1, 1, 1)
        assert summary.p1 == pytest.approx(math.e - 2.0, rel=1e-12)
        assert summary.p2 == pytest.approx(p2_series, rel=1e-12)
        assert summary.pi0 == pytest.approx(1.0 / (1.0 + summary.p1 + summary.p2), rel=1e-14)

    def test_symmetric_labels(self):
        summary = gamma_moment_summary(QueueParams(1.4, 1.4, 0.2, 0.2))
        assert summary.m_plus == pytest.approx(summary.m_minus, rel=1e-12)
        assert summary.s_plus == pytest.approx(summary.s_minus, rel=1e-12)

    def test_heavy_imbalance_anchor(self):
        summary = gamma_moment_summary(QueueParams(1, 2, 0.01, 0.02))
        assert summary.first_moment == pytest.approx(-50.0, abs=0.05)

    def test_against_series_on_grid(self):
        # ratios alpha/theta, beta/gamma up to 200
        grid = [
            (1.0, 1.0, 1.0, 1.0),
            (1.0, 1.5, 1.0, 1.5),
            (1.0, 2.0, 1.0, 2.0),
            (2.0, 1.0, 0.5, 0.25),
            (1.0, 1.0, 0.1, 0.1),
            (1.0, 1.5, 0.1, 0.15),
            (1.0, 2.0, 0.1, 0.2),
            (1.5, 1.0, 0.12, 0.08),
            (1.0, 1.0, 0.01, 0.01),
            (1.0, 1.5, 0.01, 0.015),
            (1.0, 2.0, 0.01, 0.02),
            (2.0, 2.2, 0.011, 0.013),
        ]
        for alpha, beta, theta, gamma in grid:
            summary = gamma_moment_summary(QueueParams(alpha, beta, theta, gamma))
            p1_s, p2_s, pi0_s, mp_s, mm_s, sp_s, sm_s = series_summary(alpha, beta, theta, gamma)
            assert abs(summary.p1 - p1_s) <= 1e-8 * (1.0 + p1_s)
            assert abs(summary.p2 - p2_s) <= 1e-8 * (1.0 + p2_s)
            assert summary.m_plus == pytest.approx(mp_s, rel=1e-8, abs=1e-10)
            assert summary.m_minus == pytest.approx(mm_s, rel=1e-8, abs=1e-10)
            assert summary.s_plus == pytest.approx(sp_s, rel=1e-8, abs=1e-10)
            assert summary.s_minus == pytest.approx(sm_s, rel=1e-8, abs=1e-10)

    def test_overflow_names_ratio(self):
        # strong imbalance with tiny reneging: the half-line weight exceeds 1e300
        with pytest.raises(NumericalOverflowError, match="rate ratio"):
            gamma_moment_summary(QueueParams(1.0, 2.0, 1e-4, 2e-4))


class TestPoissonMomentEstimates:
    @pytest.mark.parametrize(
        "params, expected",
        [
            ((1.0, 1.5, 0.1, 0.15), (-3.2532, 21.2498)),
            ((1.0, 1.0, 1.0, 1.0), (0.0, 1.4104)),
            ((1.0, 2.0, 0.01, 0.02), (-50.0, 2600.0)),
        ],
    )
    def test_table_anchors(self, params, expected):
        l1, l2 = poisson_moment_estimates(QueueParams(*params))
        assert l1 == pytest.approx(expected[0], abs=5e-4)
        assert l2 == pytest.approx(expected[1], abs=5e-4 * max(1.0, abs(expected[1])))

    def test_agrees_with_pmf_moments(self):
        for args in [(1, 1, 1, 1), (1, 1.5, 0.1, 0.15), (2, 1, 0.3, 0.7), (1, 2, 0.05, 0.04)]:
            params = QueueParams(*args)
            l1, l2 = poisson_moment_estimates(params)
            pmf = stationary_distribution(params, 1e-13)
            assert l1 == pytest.approx(pmf.mean(), rel=1e-8, abs=1e-10)
            assert l2 == pytest.approx(pmf.second_moment(), rel=1e-8)


class TestTransientMoments:
    def test_matches_closed_form_mean_when_rates_equal(self):
        params = QueueParams(1.0, 1.5, 0.5, 0.5)
        grid = np.linspace(0.0, 50.0, 26)
        tm = transient_moments(params, {0: 1.0}, grid)
        closed = (0.0 - (-1.0)) * np.exp(-0.5 * grid) + (-1.0)
        assert np.abs(tm.m - closed).max() <= 1e-6

    def test_symmetric_mean_stays_zero(self):
        params = QueueParams(1.2, 1.2, 0.4, 0.4)
        tm = transient_moments(params, {-1: 0.5, 1: 0.5}, np.linspace(0.5, 15.0, 8))
        assert np.abs(tm.m).max() <= 1e-9

    def test_against_ctmc_monte_carlo(self):
        params = QueueParams(1.0, 1.5, 0.5, 0.75)
        tm = transient_moments(params, {0: 1.0}, [5.0])
        mc, se = ctmc_second_moment_mc(1.0, 1.5, 0.5, 0.75, 5.0, 100_000, seed=2024)
        assert abs(tm.s[0] - mc) <= 3.0 * se

    def test_converges_to_gamma_limits(self):
        params = QueueParams(1.0, 1.5, 0.5, 0.75)
        t_end = 50.0 / min(params.theta, params.gamma)
        tm = transient_moments(params, {0: 1.0}, [t_end])
        summary = gamma_moment_summary(params)
        assert tm.m[-1] == pytest.approx(summary.first_moment, rel=1e-4)
        assert tm.s[-1] == pytest.approx(summary.second_moment, rel=1e-4)

    def test_moment_identities(self):
        params = QueueParams(1.0, 1.3, 0.6, 0.4)
        tm = transient_moments(params, {2: 1.0}, [1.0, 4.0])
        assert np.allclose(tm.m, tm.m_plus - tm.m_minus, atol=1e-12)
        assert np.allclose(tm.s, tm.s_plus + tm.s_minus, atol=1e-12)

    def test_leak_raises_for_small_box(self, monkeypatch):
        # the first box [-48, 48] leaks, and doubling it would pass the cap
        monkeypatch.setattr(poisson_ctmc, "_TRANSIENT_SUPPORT_CAP", 64)
        params = QueueParams(2.0, 1.0, 0.2, 0.2)
        with pytest.raises(TruncationError, match=r"box \[-48, 48\].*cap 64"):
            transient_moments(params, {0: 1.0}, [10.0], leak_tol=1e-300)

    @pytest.mark.parametrize(
        "params, start",
        [(QueueParams(1, 1, 1e-5, 1e-5), {0: 1.0}), (QueueParams(1, 1, 1, 1), {70000: 1.0})],
        ids=["stationary-support-above-cap", "start-above-cap"],
    )
    def test_first_box_above_cap_is_a_resource_limit(self, params, start):
        with pytest.raises(ResourceLimitError, match=r"box \[-\d+, \d+\].*cap 65536"):
            transient_moments(params, start, [1.0])

    def test_zero_mass_states_are_ignored(self):
        params = QueueParams(2.0, 1.0, 1.0, 0.5)
        plain = transient_moments(params, {1: 1.0}, [0.5, 2.0])
        padded = transient_moments(params, {-(10**6): 0.0, 1: 1.0, 10**6: 0.0}, [0.5, 2.0])
        assert padded.support_bound == plain.support_bound
        assert np.array_equal(padded.s, plain.s) and np.array_equal(padded.m, plain.m)

    def test_initial_pmf_validation(self):
        params = QueueParams(1, 1, 1, 1)
        with pytest.raises(DomainError):
            transient_moments(params, {0: 0.5}, [1.0])
        with pytest.raises(DomainError):
            transient_moments(params, {0: 1.0}, [])
        with pytest.raises(DomainError):
            transient_moments(params, {0: 1.0}, [2.0, 1.0])
        with pytest.raises(DomainError, match="integer"):
            transient_moments(params, {1.9: 1.0}, [1.0])
        with pytest.raises(DomainError, match="integer"):
            transient_moments(params, {"3": 1.0}, [1.0])
        with pytest.raises(DomainError, match="t_grid"):
            transient_moments(params, {0: 1.0}, 5.0)

    def test_integral_float_and_numpy_states_are_accepted(self):
        params = QueueParams(1, 1.5, 0.5, 0.5)
        plain = transient_moments(params, {2: 1.0}, [0.5, 2.0])
        for start in ({2.0: 1.0}, {np.int64(2): 1.0}, {np.float64(2.0): 1.0}):
            other = transient_moments(params, start, [0.5, 2.0])
            assert np.array_equal(other.m, plain.m) and np.array_equal(other.s, plain.s)

    def test_answer_does_not_depend_on_other_times(self):
        params = QueueParams(1.0, 1.5, 0.1, 0.15)
        grid = [0.0, 0.5, 3.0, 10.0, 40.0]
        together = transient_moments(params, {0: 1.0}, grid)
        for i, t in enumerate(grid):
            alone = transient_moments(params, {0: 1.0}, [t])
            assert alone.support_bound == together.support_bound
            for name in ("m", "s", "m_plus", "m_minus", "s_plus", "s_minus"):
                assert getattr(alone, name)[0] == pytest.approx(getattr(together, name)[i], rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize(
        "params, start, t_grid, leak_tol, boxes, terms",
        [
            # box [-50, 50]: the largest out-rate is alpha + beta + 49 theta = 31.7
            (QueueParams(1.0, 1.3, 0.6, 0.4), 2, [1.0, 4.0], 1e-8, [50], 222),
            # the box doubles once, and both series count
            (QueueParams(1.0, 1.0, 0.02, 0.02), 0, [30.0], 1e-30, [80, 160], 196 + 260),
        ],
        ids=["one-box", "two-boxes"],
    )
    def test_series_terms_counts_the_steps_of_every_box(self, params, start, t_grid, leak_tol, boxes, terms):
        tm = transient_moments(params, {start: 1.0}, t_grid, leak_tol)
        assert tm.support_bound == boxes[-1]
        assert tm.series_terms == terms
        expected = 0
        for bound in boxes:
            rate = max(params.alpha + bound * params.gamma, params.beta + bound * params.theta,
                       params.alpha + params.beta + (bound - 1) * max(params.theta, params.gamma))
            lam = rate * t_grid[-1]
            expected += int(np.argmax(pdtrc(np.arange(10 * int(lam) + 100), lam) <= 1e-14))
        assert tm.series_terms == expected

    @pytest.mark.parametrize(
        "start, t_grid",
        [
            ({3: 1.0}, [1.0, math.nan, 2.0]),
            ({3: 1.0}, [1.0, math.inf]),
            ({3: math.nan}, [1.0]),
            ({3: 1.0, 4: math.nan}, [1.0]),
        ],
        ids=["nan-time", "inf-time", "nan-mass", "nan-second-mass"],
    )
    def test_non_finite_input_is_a_domain_error(self, start, t_grid):
        with pytest.raises(DomainError):
            transient_moments(QueueParams(2, 1, 1, 1), start, t_grid)


def reflecting_box_pmfs(params, start, bound, times):
    """Dense reference: p(t) = p(0) expm(Q t) for the chain kept on [-bound, bound]."""
    states = np.arange(-bound, bound + 1)
    birth = params.alpha + np.maximum(-states, 0) * params.gamma
    death = params.beta + np.maximum(states, 0) * params.theta
    birth[-1] = 0.0
    death[0] = 0.0
    q = np.diag(birth[:-1], 1) + np.diag(death[1:], -1)
    q -= np.diag(q.sum(axis=1))
    p0 = np.zeros(2 * bound + 1)
    p0[start + bound] = 1.0
    return states, np.array([p0 @ expm(q * t) for t in times])


class TestUniformization:
    def test_matches_dense_expm_on_small_box(self):
        # a box small enough that reflection at its edges shapes the moments; at
        # the out-rate 5.3 the second grid's last time needs 265 steps, five
        # buffers of 64 rows
        params = QueueParams(1.0, 1.3, 0.6, 0.4)
        bound = 6
        for grid in ([0.0, 0.3, 1.0, 4.0, 12.0], np.linspace(0.0, 30.0, 41)):
            records, _, _ = poisson_ctmc._master_moments(params, [(2, 1.0)], np.array(grid), bound)
            states, pmfs = reflecting_box_pmfs(params, 2, bound, grid)
            pos, neg = states > 0, states < 0
            expected = {
                "m": pmfs @ states,
                "s": pmfs @ states**2,
                "m_plus": pmfs[:, pos] @ states[pos],
                "m_minus": -pmfs[:, neg] @ states[neg],
                "s_plus": pmfs[:, pos] @ states[pos] ** 2,
                "s_minus": pmfs[:, neg] @ states[neg] ** 2,
            }
            for column, (name, ref) in zip(np.array(records).T, expected.items()):
                assert np.allclose(column, ref, rtol=1e-12, atol=1e-12), (len(grid), name)

    def test_boundary_mass_bounds_reference_between_grid_points(self):
        # the top edge mass peaks near t = 0.25, well before the first grid point
        params = QueueParams(1.0, 2.0, 0.5, 0.5)
        bound = 5
        _, max_edge, series_tail = poisson_ctmc._master_moments(params, [(4, 1.0)], np.array([3.0, 6.0]), bound)
        _, pmfs = reflecting_box_pmfs(params, 4, bound, np.linspace(0.0, 6.0, 241))
        edges = np.maximum(pmfs[:, 0], pmfs[:, -1])
        assert max_edge >= edges.max() - series_tail - 1e-15

    def test_stationary_start_stays_put(self):
        params = QueueParams(1.0, 1.5, 0.1, 0.15)
        start = stationary_distribution(params)
        tm = transient_moments(params, start, [0.5, 5.0, 50.0])
        assert np.allclose(tm.m, start.mean(), rtol=1e-10, atol=0.0)
        assert np.allclose(tm.s, start.second_moment(), rtol=1e-10, atol=0.0)

    def test_long_interval_past_exp_underflow(self):
        # rate * t far beyond 745, where e^(-rate t) underflows to zero
        params = QueueParams(1.0, 1.5, 0.5, 0.75)
        t_end = 100.0
        tm = transient_moments(params, {0: 1.0}, [t_end])
        assert (params.beta + tm.support_bound * params.theta) * t_end > 745.0
        assert np.all(np.isfinite([tm.m, tm.s, tm.m_plus, tm.m_minus, tm.s_plus, tm.s_minus]))
        assert 0.0 < tm.series_tail_mass <= 1e-12
        summary = gamma_moment_summary(params)
        assert tm.m[-1] == pytest.approx(summary.first_moment, rel=1e-6)


class TestSecondMomentLowerBound:
    def test_balanced_limit(self):
        value = second_moment_lower_bound(QueueParams(1.5, 1.5, 0.5, 0.5), 0.0, 0.0, 1e9)
        assert value == pytest.approx(1.5 / 0.5, rel=1e-12)
        assert type(value) is float

    def test_imbalanced_limit(self):
        value = second_moment_lower_bound(QueueParams(2.0, 1.0, 1.0, 1.0), 0.0, 0.0, 1e9)
        assert value == pytest.approx(3.0, rel=1e-12)
        assert type(value) is float

    def test_is_lower_bound_of_master_equation(self):
        params = QueueParams(1.0, 1.5, 0.5, 0.5)
        grid = np.linspace(0.25, 30.0, 40)
        tm = transient_moments(params, {0: 1.0}, grid)
        bound = second_moment_lower_bound(params, 0.0, 0.0, grid)
        assert np.all(tm.s >= bound - 1e-9)

    def test_crossing_branch_continuity(self):
        # start above zero with a negative drift target so m(t) crosses zero
        params = QueueParams(1.0, 2.0, 0.5, 0.5)
        ts = np.linspace(0.0, 12.0, 400)
        vals = second_moment_lower_bound(params, 3.0, 9.0, ts)
        assert np.all(np.isfinite(vals))
        assert np.abs(np.diff(vals)).max() < 0.5  # no jump at the crossing

    def test_requires_equal_rates(self):
        with pytest.raises(UnsupportedCaseError):
            second_moment_lower_bound(QueueParams(1, 1, 0.2, 0.3), 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("s0", [math.nan, math.inf, -math.inf, -5.0], ids=["nan", "inf", "-inf", "negative"])
    def test_rejects_invalid_initial_second_moment(self, s0):
        with pytest.raises(DomainError, match="s0"):
            second_moment_lower_bound(QueueParams(1, 2, 1, 1), 0.0, s0, 1.0)

    @pytest.mark.parametrize("m0, s0", [(3.0, 0.0), (3.0, 8.99), (-3.0, 9.0 * (1.0 - 1e-6)), (0.5, 0.0)],
                             ids=["zero", "just-below", "negative-mean", "small-mean"])
    def test_rejects_second_moment_below_squared_mean(self, m0, s0):
        with pytest.raises(DomainError, match="below m0"):
            second_moment_lower_bound(QueueParams(1, 2, 1, 1), m0, s0, 1.0)

    def test_accepts_roundoff_below_squared_mean(self):
        params = QueueParams(1, 2, 1, 1)
        exact = second_moment_lower_bound(params, 3.0, 9.0, 1.0)
        assert second_moment_lower_bound(params, 3.0, 9.0 * (1.0 - 1e-14), 1.0) == pytest.approx(exact)

    # (alpha, beta, theta) with theta == gamma, m0, four times t: no crossing,
    # a crossing before and after t, m0 = 0, alpha = beta, small theta t
    @pytest.mark.parametrize("rates, m0, times", [
        ((2.0, 1.0, 1.0), 3.0, [0.1, 0.5, 1.0, 5.0]),
        ((2.0, 1.0, 1.0), -2.0, [1.5, 2.0, 3.0, 8.0]),
        ((2.0, 1.0, 1.0), -2.0, [0.05, 0.3, 0.7, 1.0]),
        ((1.0, 1.5, 0.5), 0.0, [0.1, 0.5, 2.0, 6.0]),
        ((1.0, 1.0, 0.5), 2.0, [0.1, 0.5, 2.0, 6.0]),
        ((3.0, 1.0, 1e-3), 0.0, [2e-3, 5e-3, 1e-2, 2e-2]),
    ])
    def test_matches_quadrature_of_surrogate_source(self, rates, m0, times):
        alpha, beta, theta = rates
        params = QueueParams(alpha, beta, theta, theta)
        limit = (alpha - beta) / theta
        t_hit = zero_hitting_time(params, m0)
        s0 = m0 * m0 + 0.5
        t = np.reshape(times, (2, 2))
        bound = second_moment_lower_bound(params, m0, s0, t)
        assert bound.shape == t.shape
        for tt, value in zip(times, bound.ravel()):
            def source(u):
                m = limit + (m0 - limit) * math.exp(-theta * u)
                return math.exp(-2.0 * theta * (tt - u)) * (2.0 * (alpha - beta) * m + theta * abs(m) + alpha + beta)

            integral, _ = quad(source, 0.0, tt, points=[t_hit] if t_hit is not None and t_hit < tt else None,
                               limit=200, epsabs=0.0, epsrel=1e-13)
            assert value == pytest.approx(s0 * math.exp(-2.0 * theta * tt) + integral, rel=1e-12)


class TestLimitingExpectation:
    def test_identity_on_symmetric_params(self):
        pmf = stationary_distribution(QueueParams(1, 1, 0.5, 0.5))
        value, bound = limiting_expectation(lambda i: float(i), pmf)
        assert abs(value) < 1e-12
        assert bound < 1e-10

    def test_second_moment_anchor(self):
        pmf = stationary_distribution(QueueParams(1, 1, 1, 1))
        value, _ = limiting_expectation(lambda i: float(i * i), pmf)
        assert value == pytest.approx(1.4104, abs=1e-3)

    def test_abs_against_series(self):
        alpha, beta, theta, gamma = 1.0, 1.0, 1.0, 1.0
        pmf = stationary_distribution(QueueParams(alpha, beta, theta, gamma), 1e-13)
        value, _ = limiting_expectation(lambda i: float(abs(i)), pmf)
        _, _, pi0, mp, mm, _, _ = series_summary(alpha, beta, theta, gamma)
        assert value == pytest.approx(mp + mm, rel=1e-8)


class TestAsymptoticApproximations:
    def test_balanced_mean_zero(self):
        approx = asymptotic_moment_approximations(QueueParams(1, 1, 0.3, 0.7))
        assert approx.mean == 0.0

    def test_heavy_imbalance(self):
        approx = asymptotic_moment_approximations(QueueParams(1, 2, 0.01, 0.02))
        assert approx.mean == pytest.approx(-50.0, rel=1e-12)

    def test_second_moment_vs_exact(self):
        approx = asymptotic_moment_approximations(QueueParams(1, 1.5, 0.1, 0.1))
        assert approx.second == pytest.approx(40.0, rel=1e-12)
        summary = gamma_moment_summary(QueueParams(1, 1.5, 0.1, 0.1))
        assert approx.second == pytest.approx(summary.second_moment, rel=0.05)
        assert approx.variance == pytest.approx(15.0, rel=1e-12)

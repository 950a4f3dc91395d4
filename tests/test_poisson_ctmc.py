import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import stats
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


def doubling_ladder(params, tail_tol):
    """Reference: the first doubling ladder, which builds full log weights at every rung.

    Returns (support_bound, probs, tail_mass_bound, boundary_ratio_pos, boundary_ratio_neg)."""
    alpha, beta, theta, gamma = params.alpha, params.beta, params.theta, params.gamma
    bound = 16
    while True:
        j = np.arange(1, bound + 1, dtype=float)
        log_pos = np.cumsum(math.log(alpha) - np.log(beta + j * theta))
        log_neg = np.cumsum(math.log(beta) - np.log(alpha + j * gamma))
        r_pos, r_neg = alpha / (beta + (bound + 1) * theta), beta / (alpha + (bound + 1) * gamma)
        if r_pos < 1.0 and r_neg < 1.0:
            all_logs = np.concatenate((log_neg[::-1], [0.0], log_pos))
            weights = np.exp(all_logs - all_logs.max())
            total = weights.sum()
            tail = weights[-1] * r_pos / (1.0 - r_pos) + weights[0] * r_neg / (1.0 - r_neg)
            if tail / total < tail_tol:
                return bound, weights / total, tail / total, r_pos, r_neg
        bound *= 2


# the heavy-traffic sweep: theta = gamma from 1e-1 down to 1e-5
SWEEP_THETAS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 5e-4, 4e-4, 3e-4, 2e-4, 1e-4, 5e-5, 3e-5, 1e-5)


class TestStationaryDistribution:
    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-18])
    @pytest.mark.parametrize(
        "laws",
        [
            [(2.0, 1.0, theta, theta) for theta in SWEEP_THETAS],
            [(1.0, 1.5, theta, theta) for theta in SWEEP_THETAS],
            [(1.0, 1.0, theta, theta) for theta in SWEEP_THETAS],
            [(1.0, 1.5, theta, 0.5) for theta in (1e-2, 1e-4, 1e-6, 1e-8)],
            [(1.5, 1.0, 0.5, theta) for theta in (1e-2, 1e-4, 1e-6, 1e-8)],
        ],
        ids=["sweep-2-1", "sweep-1-1.5", "sweep-1-1", "slow-positive", "slow-negative"],
    )
    def test_bit_identical_to_the_doubling_ladder(self, laws, tail_tol):
        for rates in laws:
            params = QueueParams(*rates)
            pmf = stationary_distribution(params, tail_tol)
            bound, probs, tail, r_pos, r_neg = doubling_ladder(params, tail_tol)
            assert (pmf.support_bound, pmf.tail_mass_bound, pmf.boundary_ratio_pos, pmf.boundary_ratio_neg) == (
                bound, tail, r_pos, r_neg), rates
            assert pmf.probs.tobytes() == probs.tobytes(), rates

    def test_only_a_rung_that_can_stop_builds_weights(self, monkeypatch):
        # both edge ratios stay at or above 1 up to 10^5 states, so rungs 16 .. 65 536 build nothing
        bounds = []
        log_weights = poisson_ctmc._log_weights
        monkeypatch.setattr(poisson_ctmc, "_log_weights", lambda p, bound: bounds.append(bound) or log_weights(p, bound))
        pmf = stationary_distribution(QueueParams(2.0, 1.0, 1e-5, 1e-5))
        assert bounds == [131_072] == [pmf.support_bound]

    def test_peak_memory_is_within_twice_the_pmf(self):
        params = QueueParams(2.0, 1.0, 1e-5, 1e-5)
        stationary_distribution(params)
        tracemalloc.start()
        try:
            pmf = stationary_distribution(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pmf of 2 * 131 072 + 1 states and one scratch array of half its size
        assert peak <= 2 * pmf.probs.nbytes

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
        # sd about 3e5 states: the 1e-12 tail lies past the cap of 10**6
        with pytest.raises(ResourceLimitError):
            stationary_distribution(QueueParams(1.0, 1.0, 1e-11, 1e-11))


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

    @pytest.mark.parametrize("theta", [1e-4, 1e-6])
    @pytest.mark.parametrize("mirrored", [False, True], ids=["direct", "mirrored"])
    def test_slow_reneging_on_one_side_against_series(self, theta, mirrored):
        # beta/theta is large while the weights decay geometrically at alpha/beta:
        # the closed forms' 1 + p1 nearly cancels against (alpha - beta) p1 here
        rates = (1.5, 1.0, 0.5, theta) if mirrored else (1.0, 1.5, theta, 0.5)
        summary = gamma_moment_summary(QueueParams(*rates))
        expected = series_summary(*rates)
        got = (summary.p1, summary.p2, summary.pi0, summary.m_plus, summary.m_minus, summary.s_plus, summary.s_minus)
        assert got == pytest.approx(expected, rel=1e-9)
        assert summary.tail_mass_bound < 1e-12

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

    def test_leak_raises_when_the_box_is_too_small(self, monkeypatch):
        # the measured edge mass is checked whatever box the bound picked
        monkeypatch.setattr(poisson_ctmc, "_transient_box", lambda params, items, tol: 8)
        params = QueueParams(2.0, 1.0, 0.2, 0.2)
        with pytest.raises(TruncationError, match=r"boundary mass .* exceeds leak_tol 1\.0e-08 on the box \[-8, 8\]"):
            transient_moments(params, {0: 1.0}, [10.0])

    @pytest.mark.parametrize(
        "params, start",
        [(QueueParams(1, 1, 1e-9, 1e-9), {0: 1.0}), (QueueParams(1, 1, 1, 1), {70000: 1.0})],
        ids=["stationary-support-above-cap", "start-above-cap"],
    )
    def test_first_box_above_cap_is_a_resource_limit(self, params, start):
        with pytest.raises(ResourceLimitError, match=r"box \[-\d+, \d+\].*cap 65536"):
            transient_moments(params, start, [1.0])

    @pytest.mark.parametrize(
        "params, t_last",
        [(QueueParams(1, 1, 1e300, 1e300), 1.0), (QueueParams(1, 1, 1, 1), 5e10)],
        ids=["rate-1e300", "t-5e10"],
    )
    def test_series_past_the_cap_is_a_resource_limit(self, params, t_last):
        # about rate * t steps: 1e300 and 9e11, against 2 079 for the longest tier-1 series
        message = r"rate\*t = .* steps on the box \[-\d+, \d+\], past the cap 1e\+06"
        with pytest.raises(ResourceLimitError, match=message):
            transient_moments(params, {0: 1.0}, [0.5 * t_last, t_last])

    @pytest.mark.parametrize("leak_tol", [0.0, -1e-8, math.nan, math.inf])
    def test_leak_tol_must_be_finite_and_positive(self, leak_tol):
        with pytest.raises(DomainError, match="leak_tol must be finite and > 0"):
            transient_moments(QueueParams(1, 1.5, 0.5, 0.5), {0: 1.0}, [1.0], leak_tol)

    def test_smallest_leak_tol_sizes_a_box(self):
        tm = transient_moments(QueueParams(1, 1.5, 0.5, 0.5), {0: 1.0}, [1.0], 5e-324)
        assert tm.support_bound == tail_ratio_box(QueueParams(1, 1.5, 0.5, 0.5), [(0, 1.0)], 5e-324)

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
        "params, start, t_grid, leak_tol, box",
        [
            # the negative side, whose weights fall more slowly, sets the box
            (QueueParams(1.0, 1.3, 0.6, 0.4), 2, [1.0, 4.0], 1e-8, 23),
            # the leak tolerance 1e-30, below 1e-14, sets the bound
            (QueueParams(1.0, 1.0, 0.02, 0.02), 0, [30.0], 1e-30, 103),
        ],
        ids=["near-zero", "small-reneging"],
    )
    def test_series_terms_counts_the_steps_of_one_box(self, params, start, t_grid, leak_tol, box):
        tm = transient_moments(params, {start: 1.0}, t_grid, leak_tol)
        assert box == tail_ratio_box(params, [(start, 1.0)], min(leak_tol, 1e-14))
        assert tm.support_bound == box
        rate = params.alpha + params.beta + box * max(params.theta, params.gamma)
        assert tm.series_terms == series_cut(rate * t_grid[-1])

    @pytest.mark.parametrize(
        "start, t_grid",
        [
            ({3: 1.0}, [1.0, math.nan, 2.0]),
            ({3: 1.0}, [1.0, math.inf]),
            ({3: math.nan}, [1.0]),
            ({3: 1.0, 4: math.nan}, [1.0]),
            ({0: "1.0"}, [1.0]),
            ({0: None}, [1.0]),
        ],
        ids=["nan-time", "inf-time", "nan-mass", "nan-second-mass", "string-mass", "none-mass"],
    )
    def test_non_finite_input_is_a_domain_error(self, start, t_grid):
        with pytest.raises(DomainError):
            transient_moments(QueueParams(2, 1, 1, 1), start, t_grid)


def reflecting_box_generator(params, bound):
    """States and dense generator Q of the chain kept on [-bound, bound]."""
    states = np.arange(-bound, bound + 1)
    birth = params.alpha + np.maximum(-states, 0) * params.gamma
    death = params.beta + np.maximum(states, 0) * params.theta
    birth[-1] = 0.0
    death[0] = 0.0
    q = np.diag(birth[:-1], 1) + np.diag(death[1:], -1)
    q -= np.diag(q.sum(axis=1))
    return states, q


def reflecting_box_pmfs(params, start, bound, times):
    """Dense reference: p(t) = p(0) expm(Q t) for the chain kept on [-bound, bound]."""
    states, q = reflecting_box_generator(params, bound)
    p0 = np.zeros(2 * bound + 1)
    p0[start + bound] = 1.0
    return states, np.array([p0 @ expm(q * t) for t in times])


def series_cut(lam):
    """The first K whose Poisson(lam) upper tail is at most 1e-14, scanned out to 20 standard deviations."""
    below = pdtrc(np.arange(int(lam + 20.0 * math.sqrt(lam)) + 100), lam) <= 1e-14
    assert below[-1]
    return int(np.argmax(below))


def tail_ratio_box(params, items, tol, far=2000):
    """Independent box rule: the smallest b with sum of m min(1, pi(>= b)/pi(>= s)) over both
    half lines at most tol, the tails summed term by term in log space out to far states."""

    def log_tails(birth, death, reneging):
        log_w = [0.0]
        for j in range(1, far + 1):
            log_w.append(log_w[-1] + math.log(birth) - math.log(death + j * reneging))
        tails = [log_w[-1]]
        for value in reversed(log_w[:-1]):
            top = max(value, tails[-1])
            tails.append(top + math.log(math.exp(value - top) + math.exp(tails[-1] - top)))
        return tails[::-1]

    pos = log_tails(params.alpha, params.beta, params.theta)
    neg = log_tails(params.beta, params.alpha, params.gamma)
    for b in range(far):
        total = sum(
            mass * min(1.0, math.exp(tails[b] - tails[min(max(sign * state, 0), far)]))
            for state, mass in items
            for sign, tails in ((1, pos), (-1, neg))
        )
        if total <= tol:
            return b
    raise AssertionError("no box within the far states")


class TestTransientBox:
    # templates (alpha, beta, theta, gamma) run at (alpha, beta, theta/n, gamma/n)
    # from 0 and from n x0, read at n t, the scaling of the paper's limit
    @pytest.mark.parametrize("template, x0", [((2.0, 1.0, 1.0, 1.0), -1.0), ((1.0, 1.5, 0.5, 0.75), 2.0)],
                             ids=["theta-eq-gamma", "theta-ne-gamma"])
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("from_zero", [True, False], ids=["from-zero", "from-n-x0"])
    def test_scaled_chain_box_holds_its_bound(self, template, x0, n, from_zero):
        alpha, beta, theta, gamma = template
        params = QueueParams(alpha, beta, theta / n, gamma / n)
        check_box(params, {0 if from_zero else round(n * x0): 1.0}, [0.25 * n, n], 1e-8)

    @pytest.mark.parametrize("rates", [(1.0, 1.5, 1e-8, 0.5), (1.5, 1.0, 0.5, 1e-8)], ids=["positive", "negative"])
    def test_geometric_cut_bounds_the_span(self, monkeypatch, rates):
        # one half line renegs at 1e-8, so its Poisson(alpha/theta) cut is past the cap; its weight ratios stay
        # below 1/1.5, whose geometric cut at 2.5e-15 is 83 states, so the tails are summed out to 2 * 83 + 1
        params = QueueParams(*rates)
        spans = []
        log_weights = poisson_ctmc._log_weights
        monkeypatch.setattr(poisson_ctmc, "_log_weights", lambda p, bound: spans.append(bound) or log_weights(p, bound))
        assert poisson_ctmc._transient_box(params, [(0, 1.0)], 1e-14) == tail_ratio_box(params, [(0, 1.0)], 1e-14)
        assert spans == [167]

    def test_stationary_start_box_holds_its_bound(self):
        params = QueueParams(1.0, 1.5, 0.1, 0.15)
        check_box(params, stationary_distribution(params, 1e-12), [1.0, 10.0], 1e-8)


def check_box(params, start, t_grid, leak_tol):
    """The box's edge mass meets its bound, doubling it leaves the moments alone, and it is never
    wider than the start's extent plus the stationary support at tail 1e-10 plus 16."""
    tm = transient_moments(params, start, t_grid, leak_tol)
    b = tm.support_bound
    assert tm.max_boundary_mass <= min(leak_tol, 1e-14)
    items = (list(zip(start.states.tolist(), start.probs.tolist())) if hasattr(start, "probs")
             else list(start.items()))
    wide = poisson_ctmc._uniformize(params, items, np.array(t_grid), 2 * b, leak_tol)[0]
    for column, name in zip(wide.T, ("m", "s", "m_plus", "m_minus", "s_plus", "s_minus")):
        value = getattr(tm, name)
        assert np.all(np.abs(value - column) <= 1e-12 * np.maximum(np.abs(column), 1.0)), name
    extent = max(abs(state) for state, mass in items if mass > 0.0)
    assert b <= extent + stationary_distribution(params, 1e-10).support_bound + 16


POISSON_RATES = [0.0, 1e-3, 0.37, 1.0, 2.5, 17.2, 100.0, 1234.5, 1e4, 1e5, 1e6]


class TestPoissonWindow:
    """The uniformization weights and tails, numpy only, against scipy's pdtrc and mpmath."""

    @pytest.mark.parametrize("lam", POISSON_RATES)
    def test_series_cut_matches_pdtrc(self, lam):
        cut, tail = (v.item() for v in poisson_ctmc._poisson_cut(np.array([lam]), 1e-14)[:2])
        assert cut == series_cut(lam)
        # mpmath for the tail itself: pdtrc is off by 2.6e-8 relative at lam = 1e6
        with mpmath.workdps(30):
            expected = float(mpmath.gammainc(cut + 1, 0, lam, regularized=True)) if lam else 0.0
        assert tail == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam", POISSON_RATES[:-1])
    def test_window_tails_match_pdtrc(self, lam):
        # the tails up to one width past the mode, where the window runs on another width beyond
        mode, width, weights = poisson_ctmc._poisson_windows(np.array([lam]), reach=2)
        counts = np.arange(-width, width + 1) + mode[0]
        tails = np.cumsum(weights[0, :0:-1])[::-1][: 2 * width + 1]
        expected = pdtrc(counts, lam)
        kept = (counts >= 0) & (expected >= 1e-300)
        assert np.all(np.abs(tails[kept] - expected[kept]) <= 1e-12 * expected[kept])
        assert np.all(weights[0, : 2 * width + 1][counts < 0] == 0.0)

    def test_cut_past_the_first_window(self):
        # a tail tolerance far below the window's reach makes the cut search run further out
        cut, tail = (v.item() for v in poisson_ctmc._poisson_cut(np.array([5000.0]), 1e-200)[:2])
        assert pdtrc(cut, 5000.0) <= 1e-200 < pdtrc(cut - 1, 5000.0)
        assert tail == pytest.approx(pdtrc(cut, 5000.0), rel=1e-10, abs=0.0)

    def test_rows_share_one_width(self):
        lam = np.array([0.0, 3.0, 250.0])
        mode, width, weights = poisson_ctmc._poisson_windows(lam)
        assert width == int(10.0 * math.sqrt(250.0)) + 40
        assert weights[0].tolist() == [1.0 if d == 0 else 0.0 for d in range(-width, width + 1)]
        for row, m, rate in zip(weights, mode.tolist(), lam.tolist()):
            expected = stats.poisson.pmf(np.arange(m - width, m + width + 1), rate)
            assert np.allclose(row, expected, rtol=1e-12, atol=1e-300)


# The benchmark's five transient cases, (rates, start, t_end, leak_tol), each on
# the grid 0, t_end * (0.05, 0.1, 0.2, 0.4, 0.7), t_end; "stationary" starts at
# stationary_distribution(params, 1e-12)
PINNED_TRANSIENT_CASES = {
    "balanced-from-zero": ((1.0, 1.0, 0.5, 0.5), 0, 14.0, 1e-8),
    "far-side": ((1.0, 1.5, 0.5, 0.5), 3, 8.0, 1e-8),
    "stationary": ((1.0, 1.5, 0.1, 0.15), "stationary", 10.0, 1e-8),
    "theta-ne-gamma-from-zero": ((2.0, 1.0, 1.0, 0.5), 0, 12.0, 1e-8),
    "small-reneging-growing-box": ((1.0, 1.0, 0.02, 0.02), 0, 30.0, 1e-30),
}
# sha256 of the six curves' bytes (m, s, m+, m-, s+, s-) and the repr of
# (support_bound, series_terms, max_boundary_mass, series_tail_mass)
PINNED_TRANSIENT_DIGESTS = {
    "balanced-from-zero": "182da06781c9c65c88c4f3040085da03e8de4dd185a1098ef2f2af87138051b1",
    "far-side": "4975373a92890437ee5e0911745439e4c414d3be2395d5fce8456ef090225e65",
    "stationary": "399ba9b2dbf02ed4df61d19ebdbf2a0ad65fba6edd799c1c64c5df51b0b82ef9",
    "theta-ne-gamma-from-zero": "13534ff961bb1989f9168d831e90c5cefb6cd85ef51bb7c58a7b07bf6d0d13da",
    "small-reneging-growing-box": "b4cda498f312a5a38ae5c55e8180a90399d2fd575b49b53a99d77fe5fe74d9d9",
}


class TestUniformization:
    @pytest.mark.parametrize("name", list(PINNED_TRANSIENT_CASES))
    def test_pinned_bits(self, name):
        rates, start, t_end, leak_tol = PINNED_TRANSIENT_CASES[name]
        params = QueueParams(*rates)
        initial = stationary_distribution(params, 1e-12) if start == "stationary" else {start: 1.0}
        grid = [0.0] + [t_end * f for f in (0.05, 0.1, 0.2, 0.4, 0.7)] + [t_end]
        tm = transient_moments(params, initial, grid, leak_tol=leak_tol)
        digest = hashlib.sha256()
        for curve in (tm.m, tm.s, tm.m_plus, tm.m_minus, tm.s_plus, tm.s_minus):
            digest.update(curve.tobytes())
        digest.update(repr((tm.support_bound, tm.series_terms, tm.max_boundary_mass, tm.series_tail_mass)).encode())
        assert digest.hexdigest() == PINNED_TRANSIENT_DIGESTS[name]

    def test_matches_dense_expm_on_small_box(self):
        # a box small enough that reflection at its edges shapes the moments; at
        # the out-rate 5.3 the second grid's last time needs 265 steps, five
        # buffers of 64 rows
        params = QueueParams(1.0, 1.3, 0.6, 0.4)
        bound = 6
        for grid in ([0.0, 0.3, 1.0, 4.0, 12.0], np.linspace(0.0, 30.0, 41)):
            records, _, _ = poisson_ctmc._uniformize(params, [(2, 1.0)], np.array(grid), bound, math.inf)[:3]
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
        _, max_edge, series_tail = poisson_ctmc._uniformize(params, [(4, 1.0)], np.array([3.0, 6.0]), bound, math.inf)[:3]
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

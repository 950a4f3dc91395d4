import itertools
import math

import numpy as np
import pytest

from dequelab import des
from dequelab.des import (
    ScaledTemplate,
    Scenario,
    estimate,
    run_replication,
    scaled_stationary_histogram,
)
from dequelab.errors import DomainError
from dequelab.numerics import (
    InterarrivalModel,
    RandomStream,
    sample_exponential,
    sample_interarrival,
    tv_distance,
)
from dequelab.params import QueueParams
from dequelab.poisson_ctmc import poisson_moment_estimates, stationary_distribution, transient_moments


def desk_scenario(family, alpha, beta, theta, gamma, reps=50, bound=1000):
    return Scenario.for_family(
        family, alpha, beta, theta, gamma,
        horizon=1000.0, warmup=250.0, replications=reps, histogram_bound=bound,
    )


def chain_tv(sim_estimate, params):
    """TV between the simulated histogram and the exact chain's stationary law."""
    pmf = stationary_distribution(params, 1e-10)
    b = pmf.support_bound
    inner = sim_estimate.pmf[sim_estimate.bound - b : sim_estimate.bound + b + 1]
    tv = tv_distance(inner, pmf.probs)
    sim_rest = 1.0 - inner.sum()
    chain_rest = 1.0 - pmf.probs.sum()
    return tv + 0.5 * abs(sim_rest - chain_rest)


class TestScenario:
    def test_validation(self):
        with pytest.raises(DomainError):
            Scenario.for_family("exponential", 1, 1, 0.0, 1, horizon=10, warmup=0, replications=1)
        with pytest.raises(DomainError):
            Scenario.for_family("exponential", 1, 1, 1, 1, horizon=10, warmup=10, replications=1)
        with pytest.raises(DomainError):
            Scenario.for_family("exponential", 1, 1, 1, 1, horizon=10, warmup=1, replications=0)


class TestRunReplication:
    def test_histogram_is_probability(self):
        sc = desk_scenario("uniform", 1.0, 1.5, 0.1, 0.15)
        rep = run_replication(sc, RandomStream(42, 0))
        assert rep.probs.sum() + rep.overflow == pytest.approx(1.0, abs=1e-9)
        assert np.all(rep.probs >= 0.0)

    def test_instant_abandonment_pins_state_near_zero(self):
        sc = Scenario.for_family(
            "exponential", 1.0, 1.0, 1e6, 1e6,
            horizon=200.0, warmup=20.0, replications=1, histogram_bound=10,
        )
        rep = run_replication(sc, RandomStream(1, 0))
        support = rep.states[rep.probs > 0.0]
        assert set(support.tolist()) <= {-1, 0, 1}
        assert rep.probs[rep.bound] > 0.99

    def test_initial_state_occupancy(self):
        # with no warmup, the very first segment sits at the initial state
        sc = Scenario.for_family(
            "exponential", 1.0, 1.0, 0.5, 0.5,
            horizon=50.0, warmup=0.0, replications=1, initial_state=5, histogram_bound=50,
        )
        rep = run_replication(sc, RandomStream(3, 0))
        assert rep.probs[5 + rep.bound] > 0.0

    def test_initial_customers_abandon(self):
        # six sellers waiting at time zero leave at total rate 6 theta; the
        # window average of X must match the exact chain's transient mean
        sc = Scenario.for_family(
            "exponential", 1.0, 1.5, 0.5, 0.25,
            horizon=2.0, warmup=1.95, replications=400, initial_state=6, histogram_bound=50,
        )
        est = estimate(sc, base_seed=17)
        grid = np.linspace(1.95, 2.0, 11)
        m = transient_moments(QueueParams(1.0, 1.5, 0.5, 0.25), {6: 1.0}, grid).m
        exact = float(np.sum(m[1:] + m[:-1]) / 2.0 / (len(grid) - 1))
        se = est.per_replication_L1.std(ddof=1) / math.sqrt(sc.replications)
        assert abs(est.per_replication_L1.mean() - exact) <= 4.0 * se

    def test_overflow_bucket(self):
        sc = Scenario.for_family(
            "exponential", 1.0, 2.0, 0.01, 0.02,
            horizon=600.0, warmup=100.0, replications=1, histogram_bound=20,
        )
        rep = run_replication(sc, RandomStream(8, 0))
        # the state drifts to about -50, far outside a bound of 20
        assert rep.overflow > 0.5
        assert rep.probs.sum() + rep.overflow == pytest.approx(1.0, abs=1e-9)


class TestDraws:
    SAMPLERS = {
        "exponential": lambda stream, n: sample_interarrival(InterarrivalModel("exponential", 1.5), stream, n),
        "uniform": lambda stream, n: sample_interarrival(InterarrivalModel("uniform", 1.5), stream, n),
        "erlang": lambda stream, n: sample_interarrival(InterarrivalModel("erlang", 1.5), stream, n),
        "patience": lambda stream, n: sample_exponential(0.3, stream, n),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_values_do_not_depend_on_block_sizes(self, name):
        # 10 000 values span the blocks of 64 .. 4096 and part of the next one
        sample = self.SAMPLERS[name]
        stream = RandomStream(4, 1)
        values = list(itertools.islice(des._draws(lambda n: sample(stream, n)), 10_000))
        assert all(type(v) is float for v in values)
        assert values == sample(RandomStream(4, 1), 10_000).tolist()

    def test_short_replication_draws_few_variates(self, monkeypatch):
        requested = []

        def counting(sampler):
            def wrapped(law, stream, size=None):
                requested.append(size)
                return sampler(law, stream, size)

            return wrapped

        monkeypatch.setattr(des, "sample_interarrival", counting(sample_interarrival))
        monkeypatch.setattr(des, "sample_exponential", counting(sample_exponential))
        sc = Scenario.for_family("exponential", 1.0, 1.0, 1.0, 1.0, horizon=10.0, warmup=0.0, replications=1)
        run_replication(sc, RandomStream(2, 0))
        assert 0 < sum(requested) <= 4 * 64


class TestEstimate:
    def test_symmetric_case_mean_near_zero(self):
        sc = desk_scenario("exponential", 1.0, 1.0, 1.0, 1.0)
        est = estimate(sc, base_seed=7)
        assert abs(est.L1) <= 3.0 * est.ci_halfwidth_L1

    def test_moments_are_histogram_sums(self):
        sc = desk_scenario("erlang", 1.0, 1.5, 0.1, 0.15, reps=5)
        est = estimate(sc, base_seed=11)
        states = est.states.astype(float)
        assert est.L1 == pytest.approx(float(states @ est.pmf), abs=1e-12)
        assert est.L2 == pytest.approx(float((states**2) @ est.pmf), abs=1e-12)

    def test_single_replication_has_no_ci(self):
        sc = desk_scenario("exponential", 1.0, 1.0, 1.0, 1.0, reps=1)
        est = estimate(sc, base_seed=3)
        assert est.ci_halfwidth_L1 is None
        assert est.ci_halfwidth_L2 is None

    def test_deterministic_given_seed(self):
        sc = desk_scenario("hyperexponential", 1.0, 2.0, 0.1, 0.2, reps=4)
        a = estimate(sc, base_seed=99)
        b = estimate(sc, base_seed=99)
        c = estimate(sc, base_seed=100)
        assert np.array_equal(a.pmf, b.pmf)
        assert a.L1 == b.L1 and a.L2 == b.L2
        assert not np.array_equal(a.pmf, c.pmf)

    def test_stream_base_decorrelates(self):
        sc = desk_scenario("exponential", 1.0, 1.0, 1.0, 1.0, reps=2)
        a = estimate(sc, base_seed=5, stream_base=0)
        b = estimate(sc, base_seed=5, stream_base=1 << 32)
        assert not np.array_equal(a.pmf, b.pmf)

    def test_replication_streams(self):
        # replication k of a run with stream base b reads the streams (seed, b + 4k ..)
        sc = desk_scenario("erlang", 1.0, 1.5, 0.1, 0.15, reps=3)
        base = 5 << 32
        est = estimate(sc, base_seed=21, stream_base=base)
        for k in range(sc.replications):
            rep = run_replication(sc, RandomStream(21, base + 4 * k))
            assert est.per_replication_L1[k] == rep.first_moment()

    def test_overflow_warns(self):
        # the queue drifts to about -500, far outside a histogram bound of 100
        sc = desk_scenario("exponential", 1.0, 2.0, 0.001, 0.002, reps=2, bound=100)
        with pytest.warns(RuntimeWarning, match=r"outside the histogram box \[-100, 100\]"):
            est = estimate(sc, base_seed=7)
        assert est.overflow == 1.0
        assert est.L1 == 0.0 and est.L2 == 0.0

    def test_matches_chain_at_desk_scale(self):
        params = QueueParams(1.0, 1.5, 0.1, 0.15)
        sc = desk_scenario("exponential", 1.0, 1.5, 0.1, 0.15)
        est = estimate(sc, base_seed=12345)
        assert chain_tv(est, params) < 0.05
        l1_p, _ = poisson_moment_estimates(params)
        assert abs(est.L1 - l1_p) <= 3.0 * est.ci_halfwidth_L1


class TestScaledHistogram:
    def test_symmetric_scaled_mean(self):
        tpl = ScaledTemplate(
            family="exponential", alpha=1.0, beta=1.0, c=0.0, theta=1.0, gamma=1.0,
            horizon=220.0, warmup=20.0, replications=1,
        )
        means = []
        for k in range(6):
            hist = scaled_stationary_histogram(tpl, 100, base_seed=31, stream_base=k << 32)
            means.append(hist.mean())
        means = np.array(means)
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean()) <= 3.0 * se

    def test_variance_approaches_limit(self):
        tpl = ScaledTemplate(
            family="exponential", alpha=1.0, beta=1.0, c=0.0, theta=1.0, gamma=1.0,
            horizon=420.0, warmup=20.0, replications=8,
        )
        hist = scaled_stationary_histogram(tpl, 100, base_seed=5)
        # exponential at (1,1): a^2/2 theta = 1
        assert hist.variance() == pytest.approx(1.0, rel=0.10)

    def test_lattice(self):
        tpl = ScaledTemplate(
            family="exponential", alpha=1.0, beta=1.0, c=0.0, theta=1.0, gamma=1.0,
            horizon=10.0, warmup=1.0, replications=1, histogram_bound=50,
        )
        hist = scaled_stationary_histogram(tpl, 25, base_seed=1)
        assert hist.lattice[0] == pytest.approx(-10.0)
        assert hist.lattice[-1] == pytest.approx(10.0)
        assert hist.pmf.sum() + hist.overflow == pytest.approx(1.0, abs=1e-9)

    def test_requires_positive_index(self):
        tpl = ScaledTemplate(
            family="exponential", alpha=1.0, beta=1.0, c=0.0, theta=1.0, gamma=1.0,
            horizon=10.0, warmup=1.0,
        )
        with pytest.raises(DomainError):
            scaled_stationary_histogram(tpl, 0, base_seed=1)


@pytest.mark.slow
def test_full_budget_spot_check():
    # full-budget run; the interval widens the published one for seed variation
    sc = Scenario.for_family(
        "exponential", 1.0, 1.5, 0.1, 0.15,
        horizon=4000.0, warmup=1000.0, replications=400,
    )
    est = estimate(sc, base_seed=2)
    assert -3.31 <= est.L1 <= -3.19

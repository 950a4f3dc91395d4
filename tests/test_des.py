import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dequelab import des
from dequelab.des import (
    ScaledTemplate,
    Scenario,
    estimate,
    estimate_many,
    run_replication,
    scaled_stationary_histogram,
)
from dequelab.diffusion import psi_density
from dequelab.errors import DomainError
from dequelab.numerics import InterarrivalModel, RandomStream
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
    tv = 0.5 * float(np.abs(inner - pmf.probs).sum())
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

    @pytest.mark.parametrize(
        "changes",
        [{"horizon": math.inf}, {"theta": math.inf}, {"gamma": math.inf}],
        ids=["horizon-inf", "theta-inf", "gamma-inf"],
    )
    def test_non_finite_values_are_rejected(self, changes):
        # an infinite horizon would never end the event loop
        kwargs = {"theta": 1.0, "gamma": 1.0, "horizon": 10.0, "warmup": 0.0, **changes}
        with pytest.raises(DomainError):
            Scenario.for_family("exponential", 1.0, 1.0, replications=1, **kwargs)

    def test_replications_are_capped(self):
        # the simulator walks its replications one by one, so a count past the cap would not end
        def scenario(reps):
            return Scenario.for_family("exponential", 1.0, 1.0, 1.0, 1.0, horizon=10.0, warmup=0.0,
                                       replications=reps)

        for reps in (des.MAX_REPLICATIONS + 1, 10**400):
            with pytest.raises(DomainError, match=r"replications must be an integer in \[1, 1000000\]"):
                scenario(reps)
        assert scenario(des.MAX_REPLICATIONS).replications == des.MAX_REPLICATIONS

    def test_start_state_is_capped(self):
        # the lockstep rows widen to the start, and a path leaves it one customer an event
        def scenario(x0):
            return Scenario.for_family("exponential", 1.0, 1.0, 1.0, 1.0, horizon=1.0, warmup=0.0,
                                       replications=1, initial_state=x0)

        for x0 in (des.MAX_START_STATE + 1, -des.MAX_START_STATE - 1, 2**63):
            with pytest.raises(DomainError, match=r"initial_state must be an integer in \[-10000, 10000\]"):
                scenario(x0)
        for x0 in (des.MAX_START_STATE, -des.MAX_START_STATE):
            assert scenario(x0).initial_state == x0

    def test_histogram_bound_is_capped(self):
        # the estimate builds the states -B..B at once; past the cap the scenario fails before anything is built
        def scenario(bound):
            return Scenario.for_family("exponential", 1.0, 1.0, 1.0, 1.0, horizon=1.0, warmup=0.0,
                                       replications=1, histogram_bound=bound)

        for bound in (des.MAX_HISTOGRAM_BOUND + 1, 10**9):
            with pytest.raises(DomainError, match=r"histogram_bound must be an integer in \[1, 1000000\]"):
                scenario(bound)
        result = estimate(scenario(des.MAX_HISTOGRAM_BOUND), 1)
        assert result.bound == des.MAX_HISTOGRAM_BOUND and result.probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("field", ["initial_state", "replications", "histogram_bound"])
    def test_integer_fields_take_whole_numbers(self, field):
        whole = {"initial_state": 2, "replications": 2, "histogram_bound": 20}

        def scenario(value):
            kwargs = {**whole, field: value}
            return Scenario.for_family("exponential", 1.0, 1.5, 0.5, 0.5, horizon=20.0, warmup=5.0, **kwargs)

        # an integer past the float range fails like every rule
        for value in (whole[field] + 0.5, str(whole[field]), None, 10**400, -(10**400)):
            with pytest.raises(DomainError):
                scenario(value)
        # an integral float is the integer it equals
        exact, floated = estimate(scenario(whole[field]), 3), estimate(scenario(float(whole[field])), 3)
        assert np.array_equal(floated.pmf, exact.pmf) and floated.L2 == exact.L2


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


FAMILIES = ("exponential", "uniform", "erlang", "hyperexponential")
# the boundaries of run_replication's warmup and measuring phases
EDGE_CASES = {
    "warmup-zero": dict(horizon=40.0, warmup=0.0, initial_state=5),
    "warmup-below-horizon": dict(horizon=40.0, warmup=0.999 * 40.0),
    "horizon-before-first-event": dict(horizon=0.01, warmup=0.005, initial_state=3),
    "start-outside-bound": dict(horizon=40.0, warmup=3.0, initial_state=12, histogram_bound=3),
    "bound-one": dict(horizon=40.0, warmup=0.0, initial_state=-4, histogram_bound=1),
}


def edge_scenario(name, family):
    return Scenario.for_family(family, 1.0, 2.0, 0.1, 0.2, replications=1, **EDGE_CASES[name])


def warmup_on_first_arrival(family, stream):
    """The edge scenario whose warmup is the first seller arrival on stream: an event exactly at the warmup."""
    first = InterarrivalModel(family, 1.0).sample(RandomStream(stream.seed, stream.stream_id).rng, 1)[0]
    return Scenario.for_family(family, 1.0, 2.0, 0.1, 0.2, horizon=40.0, warmup=float(first), replications=1)


def counting_samplers(monkeypatch) -> list:
    """Patch des._samplers so that every callable it returns records the sizes requested of it."""
    requested = []
    samplers = des._samplers

    def counted(sample):
        def wrapped(size):
            requested.append(size)
            return sample(size)

        return wrapped

    monkeypatch.setattr(des, "_samplers", lambda scenario, stream: tuple(map(counted, samplers(scenario, stream))))
    return requested


def pinned_scenarios():
    """One grid-budget scenario per family, a heavy-traffic path and the edge cases, by name."""
    cases = {
        f"grid-{family}": Scenario.for_family(family, 1.0, 1.5, 0.1, 0.15, horizon=700.0, warmup=200.0,
                                              replications=1)
        for family in FAMILIES
    }
    # the index-64 system of the heavy-traffic scaling, 50 diffusion time units after warmup
    n = 64
    cases["heavy-n64"] = Scenario.for_family("exponential", 1.0, 1.0, 1.0 / n, 1.0 / n, horizon=60.0 * n,
                                             warmup=10.0 * n, replications=1)
    cases.update({f"{name}-{family}": edge_scenario(name, family) for name in EDGE_CASES for family in FAMILIES})
    cases.update({f"warmup-on-first-arrival-{family}": warmup_on_first_arrival(family, RandomStream(29, 0))
                  for family in FAMILIES})
    return cases


# sha256 of probs.tobytes() + repr(overflow) from run_replication on RandomStream(29, 0),
# recorded from the single-loop simulator that the two-phase loop replaced; the
# warmup-on-first-arrival digests were recorded from the loop with a separate
# warmup loop, which applied an event exactly at the warmup before measuring
PINNED_DIGESTS = {
    "grid-exponential": "ffa9974a752712104aa0397e92d6e1b9a08bc6e87a1e9635b9bc3aaca01bdd4a",
    "grid-uniform": "03c9f25c6dc0e2069ff1c9dd66302ed0d0f77688461757eea62e55729010f503",
    "grid-erlang": "59781d32dd265be65eb57d17954f5ce0b9938e8ba740d34c173311a4132802da",
    "grid-hyperexponential": "73900ff596001a20b7c0066be69a023aeff0c44403e8dce011918c644cbb88e5",
    "heavy-n64": "5025da70a88f98b55112adb5361ac4055f5e752bd728847227cb91006a2de948",
    "warmup-zero-exponential": "c3a8327f908ae958ea6d87e092147df5ffbdc3c06b032963d0110e70ce9153e4",
    "warmup-zero-uniform": "d5c0568e9023e85800314dcd1774026aa0f0e1d1d5644dfce1624b88cc1a7de2",
    "warmup-zero-erlang": "db432ca67e6e29ad30bf0ab5cf518df7b4a14e70646afa6e124438dfcab8a38a",
    "warmup-zero-hyperexponential": "a48bcb7bf7bbd90812d52928e8719fc6829e6ee5dae0ea5fdfdf08cf2ab6ae22",
    "warmup-below-horizon-exponential": "34ea431ccf2abd0542b0b72b2c29e8a0d35e9a256f8a25e489a5065a0066e024",
    "warmup-below-horizon-uniform": "4586c51296aa58025ecfaa221689e4b64d9bdedb30237a584efc3cfa6ddbb9f2",
    "warmup-below-horizon-erlang": "be20ded2e19e92f9f7712cc267a735b7a7eaec84e919ac094e43fe3df9abee0f",
    "warmup-below-horizon-hyperexponential": "f4aaa68ab2b8849c1bda58e0a19cd4f6f592702e8af550da0465a255c37d77a4",
    "horizon-before-first-event-exponential": "93bbad3783d1934bae0ef663936acf5539c15aa381b8d6d8b93cace75fd05f6e",
    "horizon-before-first-event-uniform": "93bbad3783d1934bae0ef663936acf5539c15aa381b8d6d8b93cace75fd05f6e",
    "horizon-before-first-event-erlang": "93bbad3783d1934bae0ef663936acf5539c15aa381b8d6d8b93cace75fd05f6e",
    "horizon-before-first-event-hyperexponential": "93bbad3783d1934bae0ef663936acf5539c15aa381b8d6d8b93cace75fd05f6e",
    "start-outside-bound-exponential": "0cc646632962b2bd25f028b4a9ff2c582e5ca86f0eb4b1be367f57f3ead70d95",
    "start-outside-bound-uniform": "51deba880d01347603371e4e37dc8224c6344ed6474e0cdf21589214f4bb75e7",
    "start-outside-bound-erlang": "f16359dab5bdaab5582df713f91f972a41e48b4466e4b97a7001c8e309d3c01a",
    "start-outside-bound-hyperexponential": "933a1940ffb853d644606818de655fe19b3a0d12fb40b535781dc9b6f342909e",
    "bound-one-exponential": "81d85d144a677d9418e1cff9557c8ea31e4ffbd3a8de74f1f1a2d1bdf86b213f",
    "bound-one-uniform": "c870ab6859a2973bebd463cd5d82ffab8c9292f27ad7a082fcc9b151ca36c685",
    "bound-one-erlang": "371779e2cb272243829b764bab83f716caad15f8a47555ffe8f38fa43281a08a",
    "bound-one-hyperexponential": "8556b4ba3126115a26f9754dc0a7d34d389fd99f33af67ce352296b32a88fa5f",
    "warmup-on-first-arrival-exponential": "b0dd335d7f255e253a79155e5fe78a0cc50e664d0365ebe47721889c7a6beb3c",
    "warmup-on-first-arrival-uniform": "170e1e867ee0685de081a34aad2b3bedd169497fb4b2cef3ff16c69eac98a752",
    "warmup-on-first-arrival-erlang": "01b14c11a60a756deea19e8e81d312f25eb558745d89b0136c2545605c962dbd",
    "warmup-on-first-arrival-hyperexponential": "a10bbd98f1d8b8d15fde24ddd4e08257952978449edd97eeaac9bd8e69b96f32",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("name", list(PINNED_DIGESTS))
    def test_run_replication_bits(self, name):
        rep = run_replication(pinned_scenarios()[name], RandomStream(29, 0))
        digest = hashlib.sha256(rep.probs.tobytes() + repr(rep.overflow).encode()).hexdigest()
        assert digest == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_horizon_before_first_event_holds_the_start(self, family):
        rep = run_replication(edge_scenario("horizon-before-first-event", family), RandomStream(29, 0))
        assert rep.probs[rep.bound + 3] == 1.0
        assert rep.overflow == 0.0


class TestDraws:
    SAMPLERS = {
        "exponential": lambda stream, n: InterarrivalModel("exponential", 1.5).sample(stream.rng, n),
        "uniform": lambda stream, n: InterarrivalModel("uniform", 1.5).sample(stream.rng, n),
        "erlang": lambda stream, n: InterarrivalModel("erlang", 1.5).sample(stream.rng, n),
        "hyperexponential": lambda stream, n: InterarrivalModel("hyperexponential", 1.5).sample(stream.rng, n),
        "patience": lambda stream, n: stream.rng.exponential(1.0 / 0.3, n),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_values_do_not_depend_on_block_sizes(self, name):
        # 10 000 values span the blocks of 64 and 128, then 38 of _BLOCK (256) and part of the next
        sample = self.SAMPLERS[name]
        stream = RandomStream(4, 1)
        values = list(itertools.islice(des._draws(lambda n: sample(stream, n)), 10_000))
        assert all(type(v) is float for v in values)
        assert values == sample(RandomStream(4, 1), 10_000).tolist()

    def test_short_replication_draws_few_variates(self, monkeypatch):
        requested = counting_samplers(monkeypatch)
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
            assert est.per_replication_L1[k] == rep.mean()
            assert est.per_replication_L2[k] == rep.second_moment()

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


def lockstep_batch():
    """Single-replication jobs, so each estimate's pmf is one lane's probs.

    All four families at two rate pairs, several horizons, warmups and
    initial states; the erlang lanes have a bound of 4, which they leave.
    """
    jobs = []
    for i in range(72):
        family = ("exponential", "uniform", "erlang", "hyperexponential")[i % 4]
        alpha, beta = ((1.0, 1.0), (1.0, 2.0))[i // 4 % 2]
        mult = (1.0, 0.1, 0.02)[i % 3]
        jobs.append(Scenario.for_family(
            family, alpha, beta, mult * alpha, mult * beta,
            horizon=40.0 + 7.0 * (i % 5), warmup=(0.0, 3.0, 12.5)[i % 3], replications=1,
            initial_state=(0, 12, -5)[i % 3], histogram_bound=4 if family == "erlang" else 1000,
        ))
    return jobs, [i << 32 for i in range(len(jobs))]


class TestLockstep:
    @pytest.fixture(autouse=True)
    def lockstep_from_64_lanes(self, monkeypatch):
        # the lockstep batches here hold 64-127 lanes, below the crossover
        monkeypatch.setattr(des, "_LOCKSTEP_MIN_LANES", 64)

    def assert_lanes_match_scalar_loop(self, jobs, bases, seed=13):
        results = estimate_many(jobs, seed, bases)
        for sc, base, est in zip(jobs, bases, results):
            rep = run_replication(sc, RandomStream(seed, base))
            assert np.array_equal(est.pmf, rep.probs)
            assert est.overflow == rep.overflow
            assert est.per_replication_L1[0] == rep.mean()
            assert est.per_replication_L2[0] == rep.second_moment()
        return results

    @pytest.mark.filterwarnings("ignore:overflow share")
    def test_lanes_equal_the_scalar_loop(self):
        jobs, bases = lockstep_batch()
        assert len(jobs) >= des._LOCKSTEP_MIN_LANES
        results = self.assert_lanes_match_scalar_loop(jobs, bases)
        # the batch covers overflow, and states more than 8 away from zero
        assert any(est.overflow > 0.0 for est in results)
        assert max(int(np.abs(est.states[est.pmf > 0.0]).max(initial=0)) for est in results) > 8

    @pytest.mark.filterwarnings("ignore:overflow share")
    def test_lanes_equal_the_scalar_loop_at_its_boundaries(self):
        # every edge case in every family, on enough streams to fill a lockstep batch,
        # and in every family four lanes whose warmup is an event of their own stream
        jobs = [edge_scenario(name, family) for name in EDGE_CASES for family in FAMILIES] * 4
        bases = [i << 32 for i in range(len(jobs) + 4 * len(FAMILIES))]
        jobs += [warmup_on_first_arrival(family, RandomStream(13, base))
                 for family, base in zip(FAMILIES * 4, bases[len(jobs):])]
        assert len(jobs) >= des._LOCKSTEP_MIN_LANES
        self.assert_lanes_match_scalar_loop(jobs, bases)

    @pytest.mark.filterwarnings("ignore:overflow share")
    def test_finished_lanes_hand_their_slots_on(self, monkeypatch):
        # fewer slots than lanes, and blocks that reach their cap
        monkeypatch.setattr(des, "_LIVE_LANES", 10)
        monkeypatch.setattr(des, "_BLOCK", 128)
        jobs, bases = lockstep_batch()
        self.assert_lanes_match_scalar_loop(jobs, bases)

    @pytest.mark.filterwarnings("ignore:overflow share")
    def test_rows_widen_to_the_states_visited(self, monkeypatch):
        # lanes that start far past the rows' first half-width of 64, with bounds below it (the
        # lanes overflow) and above it, and fewer slots than lanes, so that lanes admitted later
        # run on rows that earlier lanes widened
        monkeypatch.setattr(des, "_LIVE_LANES", 8)
        jobs = [
            Scenario.for_family(
                FAMILIES[i % 4], 1.0, 1.5, 0.2, 0.3, horizon=30.0 + 5.0 * (i % 3), warmup=(0.0, 2.0)[i % 2],
                replications=1, initial_state=(300, -300, 0, 700)[i // 4 % 4],
                histogram_bound=(5, 1000)[i // 16 % 2],
            )
            for i in range(72)
        ]
        bases = [i << 32 for i in range(len(jobs))]
        assert len(jobs) >= des._LOCKSTEP_MIN_LANES
        results = self.assert_lanes_match_scalar_loop(jobs, bases)
        assert any(sc.histogram_bound == 5 and est.overflow > 0.0 for sc, est in zip(jobs, results))
        assert max(int(np.abs(est.states[est.pmf > 0.0]).max(initial=0)) for est in results) > 600

    @pytest.mark.filterwarnings("ignore:overflow share")
    def test_long_lanes_start_on_a_full_block(self, monkeypatch):
        # 16 lanes expect more than 4 _BLOCK arrivals and start on a full block, 48 short ones on
        # 64 draws; with 16 slots, the short lanes run in the slots the long ones leave
        monkeypatch.setattr(des, "_LIVE_LANES", 16)
        requested = counting_samplers(monkeypatch)
        jobs = [
            Scenario.for_family(
                FAMILIES[i % 4], 4.0, 5.0, 0.5, 0.6, horizon=120.0 if i % 4 == 1 else 15.0,
                warmup=(0.0, 5.0)[i % 2], replications=1, initial_state=(0, 7, -3)[i % 3],
            )
            for i in range(64)
        ]
        bases = [i << 32 for i in range(len(jobs))]
        assert len(jobs) >= des._LOCKSTEP_MIN_LANES
        long_lanes = sum(sc.horizon == 120.0 for sc in jobs)
        assert all((sc.seller_model.rate + sc.buyer_model.rate) * 120.0 > 4 * des._BLOCK for sc in jobs)
        estimate_many(jobs, 13, bases)
        assert requested[: 4 * long_lanes] == [des._BLOCK] * (4 * long_lanes)
        assert requested.count(64) == 4 * (len(jobs) - long_lanes)
        self.assert_lanes_match_scalar_loop(jobs, bases)

    def test_rows_do_not_grow_with_the_bound(self):
        # the rows hold only the states visited, so a bound of 10 000 costs little more than one of 100
        def peak_bytes(bound):
            sc = Scenario.for_family("exponential", 1.0, 1.0, 1.0, 1.0, horizon=5.0, warmup=0.0,
                                     replications=256, histogram_bound=bound)
            tracemalloc.start()
            try:
                estimate_many([sc], 3, [0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(10_000) <= 1.5 * peak_bytes(100)

    @pytest.mark.filterwarnings("ignore:overflow share")
    def test_batch_above_crossover_skips_the_scalar_loop(self, monkeypatch):
        def scalar_loop(scenario, stream):
            raise AssertionError("the lockstep batch ran the scalar loop")

        jobs, bases = lockstep_batch()
        expected = estimate_many(jobs, 13, bases)
        monkeypatch.setattr(des, "run_replication", scalar_loop)
        for a, b in zip(estimate_many(jobs, 13, bases), expected):
            assert np.array_equal(a.pmf, b.pmf)

    def test_batch_below_crossover_runs_the_scalar_loop(self, monkeypatch):
        calls = []

        def counting(scenario, stream):
            calls.append(stream.stream_id)
            return run_replication(scenario, stream)

        monkeypatch.setattr(des, "run_replication", counting)
        sc = desk_scenario("uniform", 1.0, 1.5, 0.1, 0.15, reps=3)
        estimate_many([sc, sc], 4, [0, 1 << 32])
        assert calls == [0, 4, 8, 1 << 32, (1 << 32) + 4, (1 << 32) + 8]

    def test_multi_replication_jobs_equal_estimate(self):
        jobs = [
            Scenario.for_family("erlang", 1.0, 1.5, 0.1, 0.15, horizon=60.0, warmup=10.0, replications=30),
            Scenario.for_family("hyperexponential", 1.0, 1.0, 1.0, 1.0, horizon=45.0, warmup=0.0,
                                replications=25, initial_state=3),
            Scenario.for_family("exponential", 1.0, 2.0, 0.5, 1.0, horizon=30.0, warmup=5.0, replications=20),
        ]
        bases = [0, 1 << 32, 2 << 32]
        for batched, sc, base in zip(estimate_many(jobs, 8, bases), jobs, bases):
            single = estimate(sc, 8, base)  # fewer lanes than the crossover: the scalar loop
            rows = [run_replication(sc, RandomStream(8, base + 4 * k)).probs for k in range(sc.replications)]
            assert np.array_equal(single.pmf, np.mean(rows, axis=0))
            assert np.array_equal(batched.pmf, single.pmf)
            assert (batched.L1, batched.L2, batched.overflow) == (single.L1, single.L2, single.overflow)
            assert (batched.ci_halfwidth_L1, batched.ci_halfwidth_L2) == (single.ci_halfwidth_L1,
                                                                          single.ci_halfwidth_L2)
            assert np.array_equal(batched.per_replication_L1, single.per_replication_L1)
            assert np.array_equal(batched.per_replication_L2, single.per_replication_L2)

    def test_overflow_warning_matches_estimate(self):
        overflowing = desk_scenario("exponential", 1.0, 2.0, 0.001, 0.002, reps=2, bound=100)
        filler = Scenario.for_family("exponential", 1.0, 1.0, 1.0, 1.0, horizon=20.0, warmup=0.0,
                                     replications=des._LOCKSTEP_MIN_LANES)
        with pytest.warns(RuntimeWarning) as single:
            estimate(overflowing, base_seed=7)
        with pytest.warns(RuntimeWarning) as batched:
            estimate_many([filler, overflowing], 7, [1 << 32, 0])
        assert [str(w.message) for w in batched] == [str(w.message) for w in single]
        assert [w.filename for w in [*batched, *single]] == [__file__] * 2

    def test_short_lanes_draw_few_variates(self, monkeypatch):
        requested = counting_samplers(monkeypatch)
        lanes = des._LOCKSTEP_MIN_LANES
        sc = Scenario.for_family("exponential", 1.0, 1.0, 1.0, 1.0, horizon=10.0, warmup=0.0, replications=lanes)
        estimate_many([sc], 2, [0])
        assert 0 < sum(requested) <= 4 * 64 * lanes

    @pytest.mark.filterwarnings("ignore:overflow share")
    def test_one_estimate_call_per_scenario(self, monkeypatch):
        called = []

        def recording(scenario, base_seed, stream_base=0, **kwargs):
            called.append(stream_base)
            return estimate(scenario, base_seed, stream_base, **kwargs)

        monkeypatch.setattr(des, "estimate", recording)
        jobs, bases = lockstep_batch()
        estimate_many(jobs, 13, bases)
        assert called == bases

    def test_one_stream_base_per_scenario(self):
        sc = desk_scenario("exponential", 1.0, 1.0, 1.0, 1.0, reps=1)
        with pytest.raises(DomainError):
            estimate_many([sc, sc], 1, [0])


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

    def test_tv_takes_cell_masses_from_one_call(self):
        tpl = ScaledTemplate(
            family="exponential", alpha=1.0, beta=1.0, c=0.0, theta=1.0, gamma=1.0,
            horizon=120.0, warmup=20.0, replications=2, histogram_bound=60,
        )
        hist = scaled_stationary_histogram(tpl, 25, base_seed=3)
        density = psi_density(0.0, 0.0, math.sqrt(2.0), 1.0, 1.0)
        calls = []

        class Counting:
            def cell_masses(self, edges):
                calls.append(len(edges))
                return density.cell_masses(edges)

        tv = hist.tv_distance_to(Counting())
        assert calls == [2 * hist.bound + 2]
        # the formula with a cdf call on each side of the cells
        half = 0.5 / math.sqrt(hist.n)
        cell_mass = density.cdf(hist.lattice + half) - density.cdf(hist.lattice - half)
        two_calls = 0.5 * float(np.abs(hist.pmf - cell_mass).sum())
        two_calls += 0.5 * abs(hist.overflow - (1.0 - float(cell_mass.sum())))
        assert 0.0 < tv < 1.0
        assert tv == pytest.approx(two_calls, rel=0.0, abs=1e-15)

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

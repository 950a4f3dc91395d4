import copy
import math
import pickle

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from dequelab import des
from dequelab.des import Scenario
from dequelab.errors import DomainError, finite
from dequelab.numerics import (
    _DOT_BLOCK,
    FAMILY_ALIASES,
    InterarrivalModel,
    LatticeLaw,
    RandomStream,
    _blocked_dot,
    _on_box,
    erfcx,
    log_ndtr,
    normal_hazard,
    normal_logcdf,
    normal_logsf,
    truncated_normal_moments,
)
from dequelab.params import QueueParams


def normal_pdf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """Gaussian density, a test oracle from the math module."""
    return math.exp(-0.5 * (x - mean) ** 2 / variance) / math.sqrt(2.0 * math.pi * variance)


def normal_sf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """Gaussian upper tail P(X > x), a test oracle from the math module."""
    return 0.5 * math.erfc((x - mean) / math.sqrt(2.0 * variance))


class TestNormalKernels:
    @pytest.mark.parametrize("variance", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_variance_is_a_domain_error(self, variance):
        # sigma^2/(2 theta) at theta = 5e-324 is inf; every kernel must refuse it
        for kernel in (normal_logsf, normal_logcdf):
            with pytest.raises(DomainError, match="variance must be finite"):
                kernel(0.0, 0.0, variance)
        with pytest.raises(DomainError, match="variance must be finite"):
            truncated_normal_moments(0.0, variance, "positive")

    def test_hazard_agrees_with_ratio(self):
        for z in [-2.0, 0.0, 1.0, 5.0]:
            assert normal_hazard(z) == pytest.approx(normal_pdf(z) / normal_sf(z), rel=1e-12)
        # far tail: hazard(z) ~ z, no overflow
        assert normal_hazard(40.0) == pytest.approx(40.0, rel=1e-2)

    def test_log_tails_finite_both_directions(self):
        from dequelab.numerics import normal_logcdf, normal_logsf

        # deep upper tail: log sf ~ -z^2/2
        assert normal_logsf(60.0) == pytest.approx(-60.0**2 / 2.0, rel=1e-2)
        # deep lower tail: sf ~ 1, log sf ~ 0 (must not overflow through erfcx)
        assert normal_logsf(-60.0) == 0.0
        assert normal_logcdf(60.0) == 0.0
        assert normal_logcdf(-60.0) == pytest.approx(-60.0**2 / 2.0, rel=1e-2)
        # interior agreement with the plain cdf
        for z in [-3.0, -0.4, 0.0, 1.2, 4.0]:
            assert normal_logsf(z) == pytest.approx(math.log(normal_sf(z)), rel=1e-12)

    @pytest.mark.parametrize("z", [-8.0, -5.2, -1.0, -1e-9, 0.0, 0.7, 6.0, 37.0, 1e5])
    def test_log_sf_relative_error(self, z):
        # for z well below 0 the log is as small as the lower tail P(X <= z) it measures
        assert normal_logsf(z) == pytest.approx(mp_log_ndtr(-z), rel=2e-14, abs=0.0)
        assert normal_logcdf(-z) == normal_logsf(z)


def mp_erfcx(x: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x))


def mp_log_ndtr(z: float) -> float:
    with mpmath.workdps(40):
        # log1p of the upper tail where Phi(z) is near 1
        return float(mpmath.log1p(-mpmath.ncdf(-z)) if z > 0 else mpmath.log(mpmath.ncdf(z)))


ERFCX_POINTS = np.concatenate((np.linspace(-26.5, 30.0, 1131), np.geomspace(1e-8, 1e6, 281),
                               -np.geomspace(1e-8, 26.5, 221), [-0.46875, 0.46875, -4.0, 4.0]))
LOG_NDTR_POINTS = np.concatenate((np.linspace(-40.0, 8.0, 961), -np.geomspace(1e-8, 1e5, 261),
                                  np.geomspace(1e-8, 8.0, 181), [-1e5, 0.0]))


class TestSpecialFunctions:
    """Cody's erfcx and the log-cdf built on it, against mpmath at 40 digits."""

    def test_erfcx_relative_error(self):
        values = erfcx(ERFCX_POINTS)
        expected = np.array([mp_erfcx(x) for x in ERFCX_POINTS.tolist()])
        assert np.all(np.abs(values - expected) <= 1e-15 * expected)

    def test_erfcx_float_path_agrees_with_array_path(self):
        values = erfcx(ERFCX_POINTS)
        for x, value in zip(ERFCX_POINTS.tolist(), values.tolist()):
            scalar = erfcx(x)
            assert isinstance(scalar, float)
            assert abs(scalar - value) <= math.ulp(value), x

    def test_erfcx_limits(self):
        # below -26.628 erfcx passes the largest float; no overflow warning or error either way
        for x, expected in [(math.inf, 0.0), (-math.inf, math.inf), (-27.0, math.inf), (-1e300, math.inf), (0.0, 1.0)]:
            assert erfcx(x) == expected
            assert erfcx(np.array([x]))[0] == expected
        # erfcx(x) ~ 1/(x sqrt(pi)) for large x, where x^2 overflows
        assert erfcx(1e300) == pytest.approx(1e-300 / math.sqrt(math.pi), rel=1e-15)
        assert erfcx(np.array([1e300]))[0] == erfcx(1e300)
        assert math.isnan(erfcx(math.nan)) and np.isnan(erfcx(np.array([math.nan]))[0])
        assert erfcx(2) == erfcx(2.0)

    def test_log_ndtr_relative_error(self):
        values = log_ndtr(LOG_NDTR_POINTS)
        expected = np.array([mp_log_ndtr(z) for z in LOG_NDTR_POINTS.tolist()])
        assert np.all(np.abs(values - expected) <= 2e-14 * np.abs(expected))

    def test_log_ndtr_limits(self):
        values = log_ndtr(np.array([math.inf, 1e300, 40.0, -1e300, -math.inf, math.nan]))
        assert values[:3].tolist() == [0.0, 0.0, 0.0]
        assert values[3:5].tolist() == [-math.inf, -math.inf]
        assert math.isnan(values[5])

    def test_hazard_in_the_far_lower_tail(self):
        # phi(z)/(1 - Phi(z)) -> 0 as z -> -inf; past about -37.7 it is below the smallest normal float, and
        # erfcx(z/sqrt(2)) passes the largest one, so the hazard is 0
        assert normal_hazard(-40.0) == 0.0
        assert normal_hazard(-30.0) == pytest.approx(float(mpmath.npdf(-30.0) / mpmath.ncdf(30.0)), rel=1e-14)


class TestTruncatedNormalMoments:
    def test_half_normal(self):
        first, second = truncated_normal_moments(0.0, 1.0, "positive")
        assert first == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
        assert second == pytest.approx(1.0, rel=1e-12)
        first_n, second_n = truncated_normal_moments(0.0, 1.0, "negative")
        assert first_n == pytest.approx(-math.sqrt(2.0 / math.pi), rel=1e-12)
        assert second_n == pytest.approx(1.0, rel=1e-12)

    def test_against_quadrature(self):
        cases = [(-1.0, 2.0), (0.7, 0.5), (3.0, 4.0), (-6.0, 1.3)]
        for mean, var in cases:
            reach = 14.0 * math.sqrt(var)
            for side, lo, hi in (
                ("positive", 0.0, max(mean, 0.0) + reach),
                ("negative", min(mean, 0.0) - reach, 0.0),
            ):
                first, second = truncated_normal_moments(mean, var, side)
                weight, _ = quad(lambda x: normal_pdf(x, mean, var), lo, hi, epsrel=1e-12, limit=200)
                m1, _ = quad(lambda x: x * normal_pdf(x, mean, var), lo, hi, epsrel=1e-12, limit=200)
                m2, _ = quad(lambda x: x * x * normal_pdf(x, mean, var), lo, hi, epsrel=1e-12, limit=200)
                assert first == pytest.approx(m1 / weight, rel=1e-9, abs=1e-8)
                assert second == pytest.approx(m2 / weight, rel=1e-9, abs=1e-8)

    def test_stochastic_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mean = float(rng.uniform(-5.0, 5.0))
            var = float(rng.uniform(0.05, 9.0))
            pos_first, _ = truncated_normal_moments(mean, var, "positive")
            neg_first, _ = truncated_normal_moments(mean, var, "negative")
            assert pos_first >= mean
            assert neg_first <= mean

    def test_bad_side(self):
        with pytest.raises(DomainError):
            truncated_normal_moments(0.0, 1.0, "both")


def _expected_sd(family: str, rate: float) -> float:
    return {
        "exponential": 1.0 / rate,
        "uniform": 1.0 / (math.sqrt(3.0) * rate),
        "erlang": 1.0 / (math.sqrt(2.0) * rate),
        "hyperexponential": math.sqrt(2.0) / rate,
    }[family]


class TestInterarrivalModels:
    @pytest.mark.parametrize("family", ["exponential", "uniform", "erlang", "hyperexponential"])
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_sample_mean_and_sd(self, family, rate):
        model = InterarrivalModel(family, rate)
        samples = model.sample(RandomStream(91, 7).rng, 1_000_000)
        n = len(samples)
        mean_se = samples.std(ddof=1) / math.sqrt(n)
        assert samples.min() > 0.0
        assert samples.mean() == pytest.approx(1.0 / rate, abs=4.0 * mean_se)
        # delta-method standard error for the sample sd
        sd = samples.std(ddof=1)
        m4 = np.mean((samples - samples.mean()) ** 4)
        sd_se = math.sqrt(max(m4 - sd**4, 0.0) / n) / (2.0 * sd)
        assert sd == pytest.approx(_expected_sd(family, rate), abs=4.0 * sd_se)

    def test_model_sd_properties(self):
        m = InterarrivalModel("exponential", 2.0)
        assert m.sd == pytest.approx(0.5)
        assert m.nominal_sd == pytest.approx(1.0 / math.sqrt(2.0))
        for family in ("uniform", "erlang", "hyperexponential"):
            m = InterarrivalModel(family, 1.5)
            assert m.nominal_sd == m.sd

    def test_erlang_stage_generalization(self):
        m = InterarrivalModel("erlang", 1.0, stages=4)
        assert m.sd == pytest.approx(0.5)
        samples = m.sample(RandomStream(5, 0).rng, 200_000)
        assert samples.mean() == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("alias", sorted(FAMILY_ALIASES))
    def test_aliases_store_the_canonical_name(self, alias):
        canonical = FAMILY_ALIASES[alias]
        assert InterarrivalModel(alias.upper(), 1.5) == InterarrivalModel(canonical, 1.5)
        assert InterarrivalModel(alias, 1.5).family == canonical
        assert QueueParams.for_family(alias, 1, 1.5, 0.1, 0.2) == QueueParams.for_family(canonical, 1, 1.5, 0.1, 0.2)
        scenario = Scenario.for_family(alias, 1, 1.5, 0.1, 0.2, horizon=10.0, warmup=0.0, replications=1)
        assert scenario.seller_model.family == scenario.buyer_model.family == canonical

    def test_validation(self):
        with pytest.raises(DomainError):
            InterarrivalModel("weibull", 1.0)
        with pytest.raises(DomainError):
            InterarrivalModel("uniform", 0.0)
        with pytest.raises(DomainError):
            InterarrivalModel("erlang", 1.0, stages=0)

    def test_rate_must_be_finite(self):
        # an infinite rate draws zero interarrival times, so a path never leaves time zero
        with pytest.raises(DomainError):
            InterarrivalModel("exponential", math.inf)
        # a uniform law on [0, 2/rate] needs a finite end, which numpy's sampler asks for
        with pytest.raises(DomainError, match="uniform interarrival end"):
            InterarrivalModel("uniform", 5e-324)
        assert InterarrivalModel("uniform", 1.2e-308).sample(RandomStream(1, 0).rng, 2).max() < math.inf
        for theta, gamma in ((math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(DomainError):
                Scenario.for_family("exponential", 1.0, 1.0, theta, gamma, horizon=10.0, warmup=0.0, replications=1)

    def test_exponential_sampler_mean(self):
        # the seller patience draws of stream (17, 1) read substream (17, 3)
        sc = Scenario.for_family("exponential", 1.0, 1.0, 2.0, 1.0, horizon=10.0, warmup=0.0, replications=1)
        samples = des._samplers(sc, RandomStream(17, 1))[2](1_000_000)
        se = samples.std(ddof=1) / 1000.0
        assert samples.mean() == pytest.approx(0.5, abs=4.0 * se)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(1234, 5).rng.standard_normal(256)
        b = RandomStream(1234, 5).rng.standard_normal(256)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(1234, 5).rng.standard_normal(256)
        b = RandomStream(1234, 6).rng.standard_normal(256)
        c = RandomStream(1235, 5).rng.standard_normal(256)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sampling_continues_across_calls(self):
        s = RandomStream(7, 0)
        first = s.rng.exponential(1.0, 10)
        second = s.rng.exponential(1.0, 10)
        merged = RandomStream(7, 0).rng.exponential(1.0, 20)
        assert np.array_equal(np.concatenate([first, second]), merged)

    @staticmethod
    def draws(rng):
        return np.concatenate([rng.standard_normal(7), rng.exponential(2.0, 7), rng.gamma(2.5, 0.5, 7),
                               rng.uniform(0.0, 3.0, 7)])

    @pytest.mark.parametrize("seed", [0, 29, -1, 2**64 + 3])
    @pytest.mark.parametrize("stream_id", [0, 5, 2**40, 2**64 - 1])
    def test_generator_is_philox_keyed_by_seed_and_stream(self, seed, stream_id):
        key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
        keyed = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(self.draws(RandomStream(seed, stream_id).rng), self.draws(keyed))

    @pytest.mark.parametrize("duplicate", [lambda rng: pickle.loads(pickle.dumps(rng)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_used_generator_duplicates_continue_the_sequence(self, duplicate):
        rng = RandomStream(29, 5).rng
        rng.standard_normal(3)
        twin = duplicate(rng)
        reference = RandomStream(29, 5).rng
        reference.standard_normal(3)
        expected = self.draws(reference)
        assert np.array_equal(self.draws(twin), expected)
        assert np.array_equal(self.draws(rng), expected)

    def test_stream_id(self):
        assert RandomStream(9, 103).stream_id == 103
        with pytest.raises(DomainError):
            RandomStream(1, -1)


class _TabulatedCdf:
    """A density given by a cdf, a logistic curve; its cell masses are the cdf's differences at the edges."""

    def cdf(self, x):
        return 1.0 / (1.0 + np.exp(-1.7 * (np.asarray(x, dtype=float) - 0.3)))

    def cell_masses(self, edges):
        return np.diff(self.cdf(edges))


class TestLatticeLaw:
    @staticmethod
    def old_moments(bound, probs, overflow, n, density):
        """The holders' own moment and TV code before they shared LatticeLaw: the chain pmf's and a
        replication's at scale 1 (n None), the scaled histogram's at scale sqrt(n)."""
        if n is None:
            states = np.arange(-bound, bound + 1)
            mean = float(np.dot(states, probs))
            second = float(np.dot(states.astype(float) ** 2, probs))
            edges = np.arange(-bound, bound + 2) - 0.5
        else:
            lattice = np.arange(-bound, bound + 1) / math.sqrt(n)
            mean = float(np.dot(lattice, probs))
            second = float(np.dot(lattice**2, probs))
            edges = (np.arange(-bound, bound + 2) - 0.5) / math.sqrt(n)
        cell_mass = np.diff(density.cdf(edges))
        tv = 0.5 * float(np.abs(probs - cell_mass).sum())
        tv += 0.5 * abs(overflow - (1.0 - float(cell_mass.sum())))
        return mean, second, second - mean**2, tv

    def test_matches_the_holders_old_code_bit_for_bit(self):
        rng = np.random.default_rng(27)
        density = _TabulatedCdf()
        for k in range(1200):
            bound = int(rng.integers(1, 400))
            probs = rng.dirichlet(np.full(2 * bound + 1, 0.3)) * rng.uniform(0.5, 1.0)
            probs[rng.random(probs.size) < 0.2] = 0.0
            overflow = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
            n = None if k % 2 else int(rng.integers(1, 10_000))
            law = LatticeLaw(bound, probs, overflow, 1.0 if n is None else math.sqrt(n))
            got = (law.mean(), law.second_moment(), law.variance(), law.tv_distance_to(density))
            assert got == self.old_moments(bound, probs, overflow, n, density)

    def test_states_and_prob(self):
        law = LatticeLaw(2, np.array([0.1, 0.2, 0.3, 0.25, 0.15]), 0.0, 2.0)
        assert law.states.tolist() == [-2, -1, 0, 1, 2]
        assert law.lattice.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert law.pmf is law.probs
        assert [law.prob(i) for i in (-3, -2, 0, 2, 3)] == [0.0, 0.1, 0.3, 0.15, 0.0]


def half_line_sums(probs: np.ndarray) -> tuple[float, float, float]:
    """The chain's half-line sums before the lattice law took them: (sum p, sum d p, sum d^2 p) over the distances
    d = 1..len(probs), one dot per block of _DOT_BLOCK values, each block's distances built for it alone."""
    first = second = 0.0
    for lo in range(0, probs.size, _DOT_BLOCK):
        p = probs[lo : lo + _DOT_BLOCK]
        k = np.arange(lo + 1, lo + 1 + p.size, dtype=float)
        first += float(k @ p)
        second += float((k * k) @ p)
    return float(probs.sum()), first, second


class TestBlockedSums:
    @pytest.mark.parametrize("size", [1, 100, _DOT_BLOCK])
    def test_one_block_is_a_plain_dot(self, size):
        weights, probs = np.random.default_rng(size).random((2, size))
        assert _blocked_dot(weights.__getitem__, probs) == float(weights @ probs)

    def test_sums_across_blocks(self):
        size = 2**17
        probs = np.random.default_rng(7).random(size)
        k = np.arange(1, size + 1, dtype=float)
        squares = k * k
        values = probs.tolist()
        expected = (
            math.fsum(d * p for d, p in enumerate(values, 1)),
            math.fsum(d * d * p for d, p in enumerate(values, 1)),
        )
        got = (_blocked_dot(k.__getitem__, probs), _blocked_dot(squares.__getitem__, probs))
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_half_moments_equal_the_half_line_sums(self, blocks):
        rng = np.random.default_rng(blocks)
        for _ in range(4):
            bound = int(rng.integers((blocks - 1) * _DOT_BLOCK + 1, blocks * _DOT_BLOCK + 1))
            probs = rng.dirichlet(np.full(2 * bound + 1, 0.5))
            upper, lower = LatticeLaw(bound, probs, 0.0, 1.0).half_moments()
            assert upper == half_line_sums(probs[bound + 1:])
            assert lower == half_line_sums(probs[bound - 1::-1].copy())

    def test_symmetric_law_has_equal_halves(self):
        half = np.random.default_rng(5).random(2 * _DOT_BLOCK + 7)
        probs = np.concatenate((half[::-1], [0.5], half))
        upper, lower = LatticeLaw(half.size, probs, 0.0, 1.0).half_moments()
        assert upper == lower

    def test_moments_on_three_blocks_are_the_blockwise_sums(self):
        bound = 12_000
        probs = np.random.default_rng(11).dirichlet(np.full(2 * bound + 1, 0.5))
        law = LatticeLaw(bound, probs, 0.0, 3.0)
        cuts = [slice(lo, lo + _DOT_BLOCK) for lo in range(0, probs.size, _DOT_BLOCK)]
        assert len(cuts) == 3
        lattice = law.lattice
        assert law.mean() == float(lattice[cuts[0]] @ probs[cuts[0]]) + float(
            lattice[cuts[1]] @ probs[cuts[1]]) + float(lattice[cuts[2]] @ probs[cuts[2]])
        squares = lattice**2
        assert law.second_moment() == float(squares[cuts[0]] @ probs[cuts[0]]) + float(
            squares[cuts[1]] @ probs[cuts[1]]) + float(squares[cuts[2]] @ probs[cuts[2]])


class TestOnBox:
    probs = np.arange(1.0, 8.0)  # the states -3..3

    def test_crops(self):
        assert _on_box(self.probs, 1).tolist() == [3.0, 4.0, 5.0]
        assert _on_box(self.probs, 0).tolist() == [4.0]

    def test_pads(self):
        padded = _on_box(self.probs, 5)
        assert padded.tolist() == [0.0, 0.0, *self.probs.tolist(), 0.0, 0.0]
        assert not np.shares_memory(padded, self.probs)

    def test_box_of_its_own_half_width_is_unchanged(self):
        same = _on_box(self.probs, 3)
        assert np.array_equal(same, self.probs)
        assert np.shares_memory(same, self.probs)


def test_integer_past_the_float_range_breaks_the_rules():
    # such an int compares as finite, but float() of it raises OverflowError
    with pytest.raises(DomainError, match="alpha must be finite and > 0"):
        QueueParams(10**400, 1, 1, 1)
    with pytest.raises(DomainError, match="must be finite"):
        finite(10**400, "x")

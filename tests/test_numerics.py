import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln, hyp1f1

from dequelab.errors import DomainError
from dequelab.numerics import (
    InterarrivalModel,
    RandomStream,
    log_regularized_lower_gamma,
    normal_hazard,
    normal_pdf,
    normal_sf,
    sample_exponential,
    sample_interarrival,
    truncated_normal_moments,
    tv_distance,
)


def erf_series(x: float) -> float:
    """Independent erf oracle: Taylor series, adequate for |x| <= 4."""
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


class TestLowerIncompleteGamma:
    """log P(t, y), the log regularized lower incomplete gamma function."""

    def test_known_values(self):
        assert log_regularized_lower_gamma(1.0, 0.0) == -math.inf
        assert log_regularized_lower_gamma(1.0, 1.0) == pytest.approx(math.log1p(-math.exp(-1.0)), rel=1e-12)
        assert log_regularized_lower_gamma(2.0, 3.0) == pytest.approx(math.log1p(-4.0 * math.exp(-3.0)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            log_regularized_lower_gamma(1.0, -0.1)

    def test_monotone_in_y_and_limit(self):
        t = 3.7
        values = [log_regularized_lower_gamma(t, y) for y in np.linspace(0.0, 40.0, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_identity_on_grid(self):
        # both tails of the Gamma(t) law by quadrature: y = 0.5 t runs the
        # ascending series, y = 1.7 t (t >= 2) the continued fraction
        def density(x, t):
            return math.exp((t - 1.0) * math.log(x) - x - math.lgamma(t)) if x > 0.0 else 0.0

        for t in [0.3, 0.8, 1.0, 2.5, 7.0, 12.0, 25.0, 60.0, 120.0, 160.0]:
            for y in [0.5 * t, 1.7 * t]:
                logp = log_regularized_lower_gamma(t, y)
                lower, _ = quad(density, 0.0, y, args=(t,), limit=200, epsrel=1e-13, epsabs=0.0)
                upper, _ = quad(density, y, math.inf, args=(t,), limit=200, epsrel=1e-13, epsabs=0.0)
                assert math.exp(logp) == pytest.approx(lower, rel=1e-10)
                assert -math.expm1(logp) == pytest.approx(upper, rel=1e-10)

    def test_deep_lower_tail_log_form(self):
        # P(200, 100) is tiny but representable
        logp = log_regularized_lower_gamma(200.0, 100.0)
        assert -60.0 < logp < -30.0
        assert logp == pytest.approx(math.log(gammainc(200.0, 100.0)), rel=1e-12)
        # P(2000, 100) underflows; P = y^t e^-y / Gamma(t+1) * M(1, t+1, y) in log form
        logp = log_regularized_lower_gamma(2000.0, 100.0)
        expected = 2000.0 * math.log(100.0) - 100.0 - gammaln(2001.0) + math.log(hyp1f1(1.0, 2001.0, 100.0))
        assert gammainc(2000.0, 100.0) == 0.0
        assert logp == pytest.approx(expected, rel=1e-12)


class TestNormalKernels:
    def test_pdf_cdf_basics(self):
        assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert normal_sf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_sf(1.0, 2.0, 4.0) == pytest.approx(normal_sf(-0.5), abs=1e-14)

    def test_cdf_against_series_oracle(self):
        for z in [-3.0, -1.2, -0.5, 0.3, 1.7, 2.9]:
            expected = 0.5 * (1.0 + erf_series(z / math.sqrt(2.0)))
            assert 1.0 - normal_sf(z) == pytest.approx(expected, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_pdf(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            normal_sf(0.0, 0.0, -1.0)

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
        samples = sample_interarrival(model, RandomStream(91, 7), size=1_000_000)
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

    def test_exponential_sampler_mean(self):
        samples = sample_exponential(2.0, RandomStream(17, 3), size=1_000_000)
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
        first = sample_exponential(1.0, s, 10)
        second = sample_exponential(1.0, s, 10)
        merged = sample_exponential(1.0, RandomStream(7, 0), 20)
        assert np.array_equal(np.concatenate([first, second]), merged)

    def test_substream(self):
        s = RandomStream(9, 100)
        assert s.substream(3).stream_id == 103
        with pytest.raises(DomainError):
            RandomStream(1, -1)


def test_tv_distance():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)

import math
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dequelab.diffusion import (
    ModelMoments,
    PiecewiseOUParams,
    PsiDensity,
    TimeVaryingDiffusion,
    model_one,
    model_one_density,
    model_two,
    ou_closed_form_moments,
    psi_density,
    psi_moments,
    simulate_sde_path,
    stationary_samples,
    tilted_psi_density,
)
from dequelab.errors import DomainError, ResourceLimitError, UnsupportedCaseError
from dequelab.fluid import fluid_closed_form_path, fluid_limit, zero_hitting_time
from dequelab import diffusion, fluid
from dequelab.numerics import (
    FAMILIES, RandomStream, log_ndtr, normal_logcdf, normal_logsf, truncated_normal_moments,
)
from dequelab.params import QueueParams
from test_numerics import normal_pdf

PARAM_GRID = [
    # (mu, sigma, theta, gamma)
    (0.0, 1.0, 1.0, 2.0),
    (0.0, math.sqrt(2.0), 1.0, 1.0),
    (-0.5, math.sqrt(3.25), 0.1, 0.15),
    (-1.0, math.sqrt(5.0), 1.0, 2.0),
    (0.5, 1.5, 2.0, 0.5),
    (1.0, 0.8, 0.4, 0.9),
    (-2.0, 2.5, 0.6, 0.3),
    (0.25, 0.5, 3.0, 3.0),
    (-0.75, 1.2, 0.05, 0.075),
    (2.0, 3.0, 1.3, 0.7),
]


def mp_cell_masses(d, edges) -> list:
    """The masses of the cells (edges[k], edges[k + 1]] under d, in mpmath at 60 digits from its parameters:
    on a side with rate r the density is proportional to exp(kappa/r) phi(x; mu/r, sigma^2/2r) / sqrt(r)."""
    with mpmath.workdps(60):
        sides = []
        for rate, sign in ((d.gamma, -1), (d.theta, 1)):
            r = mpmath.mpf(rate)
            mean, sd = mpmath.mpf(d.mu) / r, mpmath.mpf(d.sigma) / mpmath.sqrt(2 * r)
            scale = mpmath.exp(mpmath.mpf(d.kappa) / r) / mpmath.sqrt(r)
            sides.append((sign, mean, sd, scale, scale * mpmath.ncdf(sign * mean / sd)))
        total = sides[0][4] + sides[1][4]
        masses = []
        for a, b in zip(edges[:-1], edges[1:]):
            mass = mpmath.mpf(0)
            for sign, mean, sd, scale, _ in sides:
                lo, hi = (min(a, 0.0), min(b, 0.0)) if sign < 0 else (max(a, 0.0), max(b, 0.0))
                # the tails on the far side of the mean from the piece, so nothing cancels
                if lo + hi > 2 * mean:
                    mass += scale * (mpmath.ncdf((mean - lo) / sd) - mpmath.ncdf((mean - hi) / sd))
                else:
                    mass += scale * (mpmath.ncdf((hi - mean) / sd) - mpmath.ncdf((lo - mean) / sd))
            masses.append(mass / total)
        return masses


def two_call_cell_masses(d, edges) -> np.ndarray:
    """PsiDensity.cell_masses without its cdf cross-check, as it stood with one log_ndtr call a side."""
    edges = np.asarray(edges, dtype=float)
    masses = np.zeros(edges.size - 1)
    neg = min(int(np.searchsorted(edges, 0.0)), masses.size)
    pos = max(int(np.searchsorted(edges, 0.0, "right")) - 1, 0)
    for cells, x, positive, weight in (
        (slice(0, neg), np.minimum(edges[:neg + 1], 0.0), False, d.d2),
        (slice(pos, None), np.maximum(edges[pos:], 0.0), True, d.d1),
    ):
        rate = d.theta if positive else d.gamma
        mean, sd = d.mu / rate, math.sqrt(d.sigma**2 / (2.0 * rate))
        z = (x - mean) / sd
        tail = log_ndtr(-np.abs(z))
        near, far = np.maximum(tail[:-1], tail[1:]), np.minimum(tail[:-1], tail[1:])
        log_norm = normal_logcdf(mean / sd if positive else -mean / sd)
        with np.errstate(invalid="ignore"):
            piece = np.exp(near - log_norm) * -np.expm1(np.fmin(far - near, 0.0))
        across = (z[:-1] < 0.0) & (z[1:] > 0.0)
        piece[across] = -np.expm1(np.logaddexp(tail[:-1], tail[1:])[across]) / np.exp(log_norm)
        masses[cells] += weight * piece
    return masses


def masked_logpdf(d, x) -> np.ndarray:
    """PsiDensity.logpdf as it stood with one masked pass a side into an empty array."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for positive in (True, False):
        sel = x >= 0.0 if positive else x < 0.0
        if not np.any(sel):
            continue
        rate = d.theta if positive else d.gamma
        mean, var = d.mu / rate, d.sigma**2 / (2.0 * rate)
        with np.errstate(over="ignore"):
            z = (x[sel] - mean) / math.sqrt(var)
            out[sel] = (
                d.log_c
                - 0.5 * math.log(rate)
                + d.kappa / rate
                - 0.5 * z * z
                - 0.5 * math.log(2.0 * math.pi)
                - 0.5 * math.log(var)
            )
    return out


def random_edges(rng, where: str) -> np.ndarray:
    """Sorted edges, 2 to 300 of them, all below 0, all above it, across it, or across it between infinite ends."""
    lo, hi = {"below": (-12.0, -1e-3), "above": (1e-3, 12.0)}.get(where, (-12.0, 12.0))
    edges = np.sort(rng.uniform(lo, hi, int(rng.integers(2, 301))))
    return np.concatenate(([-np.inf], edges, [np.inf])) if where == "infinite ends" else edges


class TestPsiDensity:
    # the last law is uniform arrivals at (1, 1.5, 0.01, 0.015), whose negative half line holds all but about
    # 1e-10 of the mass
    @pytest.mark.parametrize("mu, sigma, theta, gamma", PARAM_GRID + [(-0.5, math.sqrt(5.0 / 6.0), 0.01, 0.015)])
    def test_cell_masses_keep_relative_precision(self, mu, sigma, theta, gamma):
        d = psi_density(mu * mu / sigma**2, mu, sigma, theta, gamma)
        sd = math.sqrt(max(d.second_moment() - d.mean() ** 2, 1e-12))
        # cells of 0.37 sd over mean +- 12 sd, and cells with an edge at 0 and on each side of it
        edges = np.concatenate((d.mean() + sd * np.arange(-12.0, 12.0, 0.37), [-0.3, 0.0, 0.2, 0.45]))
        edges = np.unique(edges)
        got = d.cell_masses(edges)
        for k, (mass, ref) in enumerate(zip(got.tolist(), mp_cell_masses(d, edges.tolist()))):
            assert abs(mass - ref) <= 1e-12 * ref + 1e-300, (k, edges[k], mass, ref)

    def test_normalization_and_weights(self):
        for mu, sigma, theta, gamma in PARAM_GRID:
            d = psi_density(mu * mu / sigma**2, mu, sigma, theta, gamma)
            assert abs(d.d1 + d.d2 - 1.0) <= 1e-14
            sd = math.sqrt(max(d.second_moment() - d.mean() ** 2, 1e-12))
            lo, hi = d.mean() - 12.0 * sd, d.mean() + 12.0 * sd
            total, _ = quad(d.pdf, lo, hi, points=[0.0], limit=300, epsabs=1e-12, epsrel=1e-11)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_moments_match_quadrature(self):
        for mu, sigma, theta, gamma in PARAM_GRID:
            d = psi_density(mu * mu / sigma**2, mu, sigma, theta, gamma)
            m = psi_moments(mu, sigma, theta, gamma)
            sd = math.sqrt(max(m.ev2 - m.ev**2, 1e-12))
            lo, hi = m.ev - 14.0 * sd, m.ev + 14.0 * sd
            ev_q, _ = quad(lambda x: x * d.pdf(x), lo, hi, points=[0.0], limit=300, epsabs=1e-12, epsrel=1e-11)
            ev2_q, _ = quad(lambda x: x * x * d.pdf(x), lo, hi, points=[0.0], limit=300, epsabs=1e-12, epsrel=1e-11)
            assert m.ev == pytest.approx(ev_q, abs=1e-7 * max(1.0, abs(ev_q)))
            assert m.ev2 == pytest.approx(ev2_q, abs=1e-7 * max(1.0, ev2_q))

    def test_gaussian_reduction_when_rates_equal(self):
        # kappa = mu^2/sigma^2 with theta == gamma collapses to one normal
        mu, sigma, theta = 0.5, math.sqrt(2.0), 1.0
        d = psi_density(mu * mu / sigma**2, mu, sigma, theta, theta)
        for x in np.linspace(-4.0, 5.0, 19):
            expected = normal_pdf(float(x), mu / theta, sigma**2 / (2.0 * theta))
            assert d.pdf(float(x)) == pytest.approx(expected, abs=1e-12)

    def test_standard_normal_at_zero(self):
        d = psi_density(0.0, 0.0, math.sqrt(2.0), 1.0, 1.0)
        assert d.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_nonnegative_and_cdf_monotone(self):
        d = psi_density(0.3, -0.7, 1.1, 0.4, 1.7)
        xs = np.linspace(-12.0, 12.0, 401)
        pdf = d.pdf(xs)
        cdf = d.cdf(xs)
        assert np.all(pdf >= 0.0)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-6)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_cdf_matches_pointwise_reference(self):
        xs = np.linspace(-15.0, 15.0, 61)
        for mu, sigma, theta, gamma in PARAM_GRID + [(900.0, 1.0, 0.01, 0.01)]:
            d = psi_density(mu * mu / sigma**2, mu, sigma, theta, gamma)
            m1, v1 = mu / theta, sigma**2 / (2.0 * theta)
            m2, v2 = mu / gamma, sigma**2 / (2.0 * gamma)
            expected = [
                d.d2 * math.exp(normal_logcdf(x, m2, v2) - normal_logcdf(0.0, m2, v2))
                if x < 0.0
                else 1.0 - d.d1 * math.exp(normal_logsf(x, m1, v1) - normal_logsf(0.0, m1, v1))
                for x in xs.tolist()
            ]
            assert np.allclose(d.cdf(xs), expected, rtol=1e-13, atol=1e-15)
            scalar = d.cdf(float(xs[7]))
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(expected[7], rel=1e-13, abs=1e-15)

    def test_logpdf_keeps_the_bits_of_a_masked_pass_a_side(self):
        # each side's terms are picked point by point, in the order the masked passes added them
        rng = np.random.default_rng(30)
        special = [0.0, -0.0, math.inf, -math.inf, 1e200, -1e200, 1e-300, -1e-300, 5e-324, -5e-324, 1e308, -1e308]
        for _ in range(1000):
            mu, sigma = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-2.0, 2.0)
            theta, gamma = 10.0 ** rng.uniform(-3.0, 1.0, 2)
            d = psi_density(rng.uniform(-3.0, 3.0), mu, sigma, theta, gamma)
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            x = np.concatenate((special, rng.normal(0.0, scale, 500)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = d.logpdf(x)
            assert got.tobytes() == masked_logpdf(d, x).tobytes()
            assert struct.pack("d", d.logpdf(float(x[-1]))) == masked_logpdf(d, x[-1:]).tobytes()

    def test_nan_point_gives_nan(self):
        # a NaN point takes the x >= 0 side like every other point, in pdf, logpdf and cdf alike
        d = psi_density(0.0, 0.5, 1.0, 1.0, 2.0)
        x = np.array([math.nan, 1.0, -math.nan, -1.0])
        for values in (d.pdf(x), d.logpdf(x), d.cdf(x)):
            assert np.isnan(values).tolist() == [True, False, True, False]
        assert d.pdf(x)[[1, 3]].tolist() == [d.pdf(1.0), d.pdf(-1.0)]
        assert math.isnan(d.pdf(math.nan)) and math.isnan(d.logpdf(math.nan)) and math.isnan(d.cdf(math.nan))

    def test_cell_masses_past_the_float_range_of_z_squared(self):
        # with sd 7e-151 both tails of a cell beyond 1e5 are -inf in log space; such a cell holds no mass
        d = psi_density(0.0, 0.0, 1e-150, 1.0, 1.0)
        masses = d.cell_masses(np.array([-2e5, -1e5, -1.0, 1.0, 1e5, 2e5]))
        assert masses.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("seed, where", enumerate(["below", "above", "across", "infinite ends"]))
    def test_cell_masses_keep_the_bits_of_a_call_a_side(self, seed, where):
        # both sides' tails come from one log_ndtr call, which works element by element
        rng = np.random.default_rng(seed)
        for _ in range(40):
            mu, sigma = rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0)
            d = psi_density(mu * mu / sigma**2, mu, sigma, *rng.uniform(0.01, 3.0, 2))
            edges = random_edges(rng, where)
            got, expected = d.cell_masses(edges), two_call_cell_masses(d, edges)
            assert struct.pack(f"{got.size}d", *got) == struct.pack(f"{expected.size}d", *expected)
        # sd 7e-151: z^2 overflows and both tails of a far cell are -inf
        d = psi_density(0.0, 0.0, 1e-150, 1.0, 1.0)
        for edges in ([-2e5, -1e5, -1.0, 1.0, 1e5, 2e5], [-np.inf, -1e-150, 0.0, 3e-151, np.inf], [1e-200, 1e-150]):
            got, expected = d.cell_masses(edges), two_call_cell_masses(d, edges)
            assert struct.pack(f"{got.size}d", *got) == struct.pack(f"{expected.size}d", *expected)

    @pytest.mark.parametrize("edges", [[1.0, 0.0, -1.0], [-1.0, math.nan, 1.0], [math.nan], [0.0, 2.0, 1.0, 3.0],
                                       [math.inf, -math.inf], [], [[0.0, 1.0]]])
    def test_cell_masses_reject_nan_or_decreasing_edges(self, monkeypatch, edges):
        def unreachable(z):
            raise AssertionError("evaluated edges that should have been rejected")

        monkeypatch.setattr(diffusion, "log_ndtr", unreachable)
        d = psi_density(0.3, -0.7, 1.1, 0.4, 1.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="edges"):
                d.cell_masses(edges)

    def test_cell_masses_take_infinite_ends_and_equal_edges(self):
        d = psi_density(0.3, -0.7, 1.1, 0.4, 1.7)
        below, above = d.cell_masses([-math.inf, 0.0, math.inf]).tolist()
        assert below == pytest.approx(d.d2, rel=1e-14) and above == pytest.approx(d.d1, rel=1e-14)
        masses = d.cell_masses([-1.0, -1.0, 0.0, 0.0, 2.0, 2.0])
        assert masses[[0, 2, 4]].tolist() == [0.0, 0.0, 0.0]
        assert masses[[1, 3]].tolist() == pytest.approx(d.cdf(np.array([0.0, 2.0])) - d.cdf(np.array([-1.0, 0.0])))

    def test_validation(self):
        with pytest.raises(DomainError):
            psi_density(0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            psi_density(0.0, 0.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("position", range(5), ids=["kappa", "mu", "sigma", "theta", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_argument_is_a_domain_error(self, position, value):
        args = [0.0, 1.0, 1.0, 1.0, 1.0]
        args[position] = value
        with pytest.raises(DomainError, match="must be finite"):
            psi_density(*args)

    def test_sigma_square_out_of_range_is_a_domain_error(self):
        # sigma^2 overflows a Python float, or underflows to a zero variance
        with pytest.raises(DomainError, match="sigma"):
            psi_density(0.0, 0.0, 1e200, 1.0, 1.0)
        with pytest.raises(DomainError, match="variance"):
            psi_density(0.0, 0.0, 1e-200, 1.0, 1.0)

    def test_extreme_drift_ratio_stays_finite(self):
        # the negative branch carries no mass at all here; weights must not go NaN
        d = psi_density(0.0, 900.0, 1.0, 0.01, 0.01)
        assert d.d1 == pytest.approx(1.0, abs=1e-15)
        assert d.d2 == pytest.approx(0.0, abs=1e-15)
        m = psi_moments(900.0, 1.0, 0.01, 0.01)
        assert math.isfinite(m.ev) and math.isfinite(m.ev2)
        assert m.ev == pytest.approx(900.0 / 0.01, rel=1e-12)


def old_psi(kappa, mu, sigma, theta, gamma) -> SimpleNamespace:
    """A law as psi_density built it before PsiDensity derived its own weights: the log weights from normal_logsf
    and normal_logcdf at 0, the moments from one (mean, variance) pair a side, and cdf as 1 - d1 S(x) from 0 on."""
    sigma_sq = sigma**2
    lw1 = -0.5 * math.log(theta) + kappa / theta + normal_logsf(0.0, mu / theta, sigma_sq / (2.0 * theta))
    lw2 = -0.5 * math.log(gamma) + kappa / gamma + normal_logcdf(0.0, mu / gamma, sigma_sq / (2.0 * gamma))
    log_norm = np.logaddexp(lw1, lw2)
    d1, d2 = float(math.exp(lw1 - log_norm)), float(math.exp(lw2 - log_norm))
    (m1, v1), (m2, v2) = (mu / theta, sigma**2 / (2.0 * theta)), (mu / gamma, sigma**2 / (2.0 * gamma))
    (e1, s1), (e2, s2) = truncated_normal_moments(m1, v1, "positive"), truncated_normal_moments(m2, v2, "negative")

    def cdf(x):
        x_arr = np.asarray(x, dtype=float)
        neg = x_arr < 0.0
        sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
        log_tail = log_ndtr((x_arr - np.where(neg, m2, m1)) / np.where(neg, sd2, -sd1))
        log_norm = np.where(neg, normal_logcdf(-m2 / sd2), normal_logcdf(m1 / sd1))
        return np.where(neg, 0.0, 1.0) + np.where(neg, d2, -d1) * np.exp(log_tail - log_norm)

    return SimpleNamespace(log_c=-float(log_norm), d1=d1, d2=d2, mean=d1 * e1 + d2 * e2,
                           second_moment=d1 * s1 + d2 * s2, cdf=cdf)


def mp_cdf(d, x: float) -> float:
    """d's cdf at x in mpmath, as the mass of the cell (-inf, x]."""
    return float(mp_cell_masses(d, [-math.inf, x])[0])


def family_law(family, alpha, beta, theta, gamma, model) -> PsiDensity:
    """The law model one or model two builds for a queue of the given family and rates."""
    params = QueueParams.for_family(family, alpha, beta, theta, gamma)
    if model == "one":
        return model_one_density(params)
    return tilted_psi_density(0.0, params.heavy_traffic_coeff, theta, gamma)


def side_grids(d) -> list[np.ndarray]:
    """A uniform grid of an even number of steps over each side's mass, below 0 and above it, 40 steps to the
    scale of that side's truncated Gaussian: mean +- 10 sd when the mean lies on the side, else from 0 out 12 times
    sd/|z0|, over which the Gaussian falls off past its mean's far side."""
    grids = []
    for rate, sign in ((d.gamma, -1.0), (d.theta, 1.0)):
        mean, sd = d.mu / rate, d.sigma / math.sqrt(2.0 * rate)
        if sign * mean > 0.0:
            ends = sorted(sign * max(0.0, sign * mean + k * 10.0 * sd) for k in (-1.0, 1.0))
            scale = sd
        else:
            scale = sd / max(1.0, abs(mean) / sd)
            ends = sorted((0.0, sign * 12.0 * scale))
        steps = 2 * math.ceil(20.0 * (ends[1] - ends[0]) / scale)
        grids.append(np.linspace(ends[0], ends[1], steps + 1))
    return grids


class TestPsiConstruction:
    def test_weights_are_derived_from_the_five_parameters(self):
        law = PsiDensity(0.3, -0.7, 1.1, 0.4, 1.7)
        same = psi_density(0.3, -0.7, 1.1, 0.4, 1.7)
        assert law == same and hash(law) == hash(same)
        assert law.d1 + law.d2 == pytest.approx(1.0, abs=1e-15) and math.isfinite(law.log_c)
        assert "_sides" not in repr(law) and "d2=" in repr(law)
        with pytest.raises(TypeError):
            PsiDensity(0.3, -0.7, 1.1, 0.4, 1.7, log_c=0.0, d1=0.5, d2=0.5)

    def test_construction_keeps_the_bits_of_the_old_formulas(self):
        # weights and moments keep their bits; cdf moves by about an ulp of 1 on the tilted family, except at 0,
        # where 1 - d1 S(0) cancels two log tails of size z0^2/2 and cdf reads d2
        rng = np.random.default_rng(31)
        for k in range(1000):
            mu, sigma = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-3.0, 2.0)
            theta, gamma = 10.0 ** rng.uniform(-5.0, 1.0, 2)
            tilted = k % 2 == 0
            kappa = mu * mu / sigma**2 if tilted else rng.uniform(-3.0, 3.0)
            new, old = psi_density(kappa, mu, sigma, theta, gamma), old_psi(kappa, mu, sigma, theta, gamma)
            got = (new.log_c, new.d1, new.d2, new.mean(), new.second_moment())
            assert struct.pack("5d", *got) == struct.pack("5d", old.log_c, old.d1, old.d2, old.mean, old.second_moment)
            if tilted:
                # 100 points about each side's mean, in units of its sd
                sides = [(mu / rate, sigma / math.sqrt(2.0 * rate)) for rate in (theta, gamma)]
                x = np.concatenate([[-math.inf, math.inf]] + [m + sd * rng.standard_normal(100) for m, sd in sides])
                assert np.all(np.abs(new.cdf(x) - old.cdf(x)) <= 1e-14)
                z0 = sides[0][0] / sides[0][1]
                assert new.cdf(0.0) == new.d2
                assert abs(old.cdf(0.0) - new.d2) <= 1e-14 + 4.0 * np.finfo(float).eps * new.d1 * (1.0 + z0 * z0)


class TestPsiProperties:
    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(
        family=st.sampled_from(FAMILIES),
        alpha=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        beta=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        theta=st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
        gamma=st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
        model=st.sampled_from(["one", "two"]),
    )
    def test_cdf_cells_and_pdf_agree(self, family, alpha, beta, theta, gamma, model):
        d = family_law(family, alpha, beta, theta, gamma, model)
        below, above = side_grids(d)
        x = np.concatenate(([-math.inf], below, above, [math.inf]))
        cdf = d.cdf(x)
        assert np.all((0.0 <= cdf) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= 0.0)
        assert d.cdf(0.0) == d.d2
        masses = d.cell_masses(np.unique(x))
        assert np.all(masses >= 0.0) and abs(masses.sum() - 1.0) <= 1e-9
        # Simpson's rule on each side's grid, two steps a block, against the cdf's differences
        for grid in (below, above):
            pdf, h = d.pdf(grid), grid[1] - grid[0]
            simpson = h / 3.0 * (pdf[:-2:2] + 4.0 * pdf[1::2] + pdf[2::2])
            assert np.abs(simpson - np.diff(d.cdf(grid[::2]))).max() <= 1e-9


    def test_cdf_does_not_step_down_into_zero(self):
        # side 2's piece rounds above 1 just below 0, where the cdf meets d2
        d = tilted_psi_density(-0.5994244671357976, 1.2271004399171532, 0.07485160073995867, 0.17654129981338398)
        below, at = d.cdf(np.array([-5e-324, 0.0]))
        assert below <= at == d.d2


class TestPsiCdfAgainstMpmath:
    """cdf against mpmath at 60 digits.  Off the tilted family a side's log tails can be of size 1e5, and a mass
    taken as the difference of two of them carries about eps z^2 relative error, in cdf and cell_masses alike
    (ROADMAP 4(d), open); there cdf is asked only to be no further from mpmath than the old 1 - d1 S(x)."""

    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.5, -1e-9, 5.0])
    def test_tilted_law_keeps_relative_precision_near_zero(self, x):
        # a point near 0 holds little mass, and a difference of two cdf values near 1 would lose it
        d = tilted_psi_density(2.0, 1.0, 0.1, 0.1)
        exact = mp_cdf(d, x)
        assert abs(d.cdf(x) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("x", [0.0, 0.05, 0.2, 1.0, 10.0])
    def test_far_tails_law_no_further_from_mpmath_than_the_old_formula(self, x):
        # side 1's log tails are of size 1e5 here, and the cdf at 0 is 0
        args = (3.6581513700472703, -0.4640493446611048, 0.3977009161608739, 1.2878363135296946e-05,
                0.0005471796912329708)
        d, old = psi_density(*args), old_psi(*args)
        exact = mp_cdf(d, x)
        assert abs(d.cdf(x) - exact) <= abs(float(old.cdf(x)) - exact)

    @pytest.mark.parametrize(
        "args", [(0.3, -0.7, 1.1, 0.4, 1.7), (-2.0, 1.5, 0.8, 0.05, 2.0), (40.0, -3.0, 0.5, 0.01, 0.02)],
        ids=["mild", "negative-kappa", "large-kappa"],
    )
    def test_off_family_law_no_further_from_mpmath_than_the_old_formula(self, args):
        # from 0 on the cdf is d2 plus a piece, so it carries d2's own rounding, of a few ulps of 1 where d2 is
        # near 1, which 1 - d1 S(x) avoids; past that, the two may differ by the rounding of their last step
        d, old = psi_density(*args), old_psi(*args)
        d2_error = abs(d.d2 - mp_cdf(d, 0.0))
        for x in (-1.0, -0.05, 0.0, 0.05, 0.2, 1.0, 10.0):
            exact = mp_cdf(d, x)
            allowed = abs(float(old.cdf(x)) - exact) + (d2_error if x >= 0.0 else 0.0) + 2.0 * math.ulp(exact)
            assert abs(d.cdf(x) - exact) <= allowed, x


class TestPsiMoments:
    def test_equal_rates_closed_form(self):
        m = psi_moments(0.0, math.sqrt(2.0), 1.0, 1.0)
        assert m.ev == 0.0
        assert m.ev2 == pytest.approx(1.0, rel=1e-14)
        m2 = psi_moments(0.8, 1.7, 0.5, 0.5)
        assert m2.ev == pytest.approx(0.8 / 0.5, rel=1e-14)
        assert m2.ev2 == pytest.approx((0.8 / 0.5) ** 2 + 1.7**2 / (2 * 0.5), rel=1e-14)

    def test_table_anchor_first_moment(self):
        m = psi_moments(-0.5, math.sqrt(3.25), 0.1, 0.15)
        assert m.ev == pytest.approx(-3.2251, abs=5e-5)

    def test_table_anchor_second_moment(self):
        m = psi_moments(-1.0, math.sqrt(5.0), 0.01, 0.02)
        assert m.ev2 == pytest.approx(2625.0, abs=5e-4)

    @pytest.mark.parametrize("mu, sigma, theta, gamma", PARAM_GRID)
    def test_tilted_density_keeps_the_tilt_bits(self, mu, sigma, theta, gamma):
        assert tilted_psi_density(mu, sigma, theta, gamma) == psi_density(mu**2 / sigma**2, mu, sigma, theta, gamma)

    @pytest.mark.parametrize(
        "mu, sigma",
        [(1e200, 1.0), (-1e200, 1.0), (1.0, 1e-200), (0.0, 1e-200), (1e150, 1e-10)],
        ids=["mu-squared-overflows", "negative-mu-squared-overflows", "sigma-squared-underflows",
             "zero-mu-sigma-squared-underflows", "tilt-overflows"],
    )
    def test_tilt_out_of_range_is_a_domain_error(self, mu, sigma):
        with pytest.raises(DomainError):
            psi_moments(mu, sigma, 1.0, 1.0)
        with pytest.raises(DomainError):
            tilted_psi_density(mu, sigma, 1.0, 1.0)


class TestModelOne:
    @pytest.mark.parametrize("family", ["exponential", "uniform", "erlang", "hyperexponential"])
    def test_moments_are_those_of_model_one_density(self, family):
        # model one's law is built in one place; its moments are read from that law
        for rates in [(1.0, 1.5, 0.1, 0.15), (2.0, 1.0, 0.2, 0.1), (1.0, 1.0, 1e-4, 1e-4), (1.0, 2.0, 0.01, 0.02)]:
            params = QueueParams.for_family(family, *rates)
            law = model_one_density(params)
            assert law == tilted_psi_density(params.drift_offset, params.diffusion_coeff, *rates[2:])
            got, expected = model_one(params), ModelMoments(law.mean(), law.second_moment())
            assert struct.pack("2d", got.L1, got.L2) == struct.pack("2d", expected.L1, expected.L2)

    def test_bare_params_have_no_diffusion_coefficient(self):
        # no sigma default: the coefficient comes only from a family or explicit sds
        with pytest.raises(DomainError, match="for_family"):
            model_one(QueueParams(2, 1, 0.2, 0.1))
        assert model_one(QueueParams.for_family("exponential", 2, 1, 0.2, 0.1)).L2 == pytest.approx(
            37.37, abs=5e-3
        )

    def test_symmetric_zero_mean(self):
        params = QueueParams.for_family("exponential", 1, 1, 1, 1)
        result = model_one(params)
        assert result.L1 == 0.0
        assert result.L2 == pytest.approx(1.0, rel=1e-12)

    def test_table_anchor_moderate(self):
        params = QueueParams.for_family("exponential", 1, 1.5, 0.1, 0.15)
        result = model_one(params)
        assert result.L1 == pytest.approx(-3.2251, abs=5e-5)
        assert result.L2 == pytest.approx(21.9505, abs=5e-4)

    def test_table_anchor_fast_reneging(self):
        params = QueueParams.for_family("exponential", 1, 2, 1, 2)
        result = model_one(params)
        assert result.L1 == pytest.approx(-0.3178, abs=5e-5)
        assert result.L2 == pytest.approx(1.7014, abs=5e-5)

    @pytest.mark.parametrize("family", ["exponential", "uniform", "erlang", "hyperexponential"])
    @pytest.mark.parametrize("multiplier", [1.0, 0.1])
    def test_moments_within_four_ulp_of_quadrature(self, family, multiplier):
        # psi is proportional to exp((2 mu x - theta x^2)/a^2) on x >= 0, with gamma for theta on x < 0
        params = QueueParams.for_family(family, 1.0, 1.5, multiplier, 1.5 * multiplier)
        result = model_one(params)
        with mpmath.workdps(30):
            mu, a_sq = mpmath.mpf(params.drift_offset), mpmath.mpf(params.diffusion_coeff) ** 2

            def moment(k):
                return sum(
                    mpmath.quad(lambda x: x**k * mpmath.exp((2 * mu * x - rate * x * x) / a_sq), ends)
                    for rate, ends in ((params.theta, [0, mpmath.inf]), (params.gamma, [-mpmath.inf, 0]))
                )

            mass = moment(0)
            expected = (float(moment(1) / mass), float(moment(2) / mass))
        for value, exact in zip((result.L1, result.L2), expected):
            assert abs(value - exact) <= 4 * math.ulp(exact)


class TestModelTwo:
    def test_balanced_equals_centered_second_moment(self):
        params = QueueParams.for_family("exponential", 1, 1, 0.1, 0.1)
        result = model_two(params)
        assert result.L1 == 0.0
        assert result.L2 == pytest.approx(psi_moments(0.0, params.diffusion_coeff, 0.1, 0.1).ev2)

    def test_table_anchor_moderate(self):
        params = QueueParams.for_family("exponential", 1, 1.5, 0.1, 0.15)
        result = model_two(params)
        assert result.L1 == pytest.approx(-3.3333, abs=5e-5)
        assert result.L2 == pytest.approx(27.0518, abs=5e-4)

    def test_table_anchor_slow_reneging(self):
        params = QueueParams.for_family("exponential", 1, 2, 0.01, 0.02)
        result = model_two(params)
        assert result.L1 == pytest.approx(-50.0, rel=1e-12)
        assert result.L2 == pytest.approx(2737.9, abs=0.05)

    def test_equal_rates_identity(self):
        params = QueueParams.for_family("uniform", 1, 2, 1, 1)
        result = model_two(params)
        level = fluid_limit(params)
        expected = level**2 + params.heavy_traffic_coeff_sq / 2.0
        assert result.L2 == pytest.approx(expected, rel=1e-12)


class TestOUClosedFormMoments:
    def _unit_params(self):
        # a^2 = 1 with |alpha - beta| = 1, theta = gamma = 1
        return QueueParams(2.0, 1.0, 1.0, 1.0, sigma=math.sqrt(0.5 / 8.0), varsigma=math.sqrt(0.5))

    def test_centered_mean_stays_zero(self):
        params = self._unit_params()
        mom = ou_closed_form_moments(params, 0.0, 0.0, c=0.4, t=np.linspace(0, 5, 6))
        assert np.all(mom.z_mean == 0.0)

    def test_offset_mean_limit(self):
        params = self._unit_params()
        mom = ou_closed_form_moments(params, 0.0, 0.0, c=0.4, t=40.0)
        assert mom.xhat_mean == pytest.approx(0.4, rel=1e-12)
        assert all(type(v) is float for v in (mom.z_mean, mom.z_second, mom.xhat_mean, mom.xhat_second))

    def test_explicit_integral_at_fixed_point(self):
        # fluid frozen at its fixed point makes the modulation constant = a^2 + |alpha-beta| = 2
        params = self._unit_params()
        mom = ou_closed_form_moments(params, 0.0, 0.0, c=0.0, t=3.0, x0=1.0)
        assert mom.z_second == pytest.approx(1.0 - math.exp(-6.0), rel=1e-9)

    def test_limits_match_stationary_laws(self):
        params = self._unit_params()
        mom = ou_closed_form_moments(params, 0.3, 0.7, c=0.5, t=50.0, x0=1.0)
        assert mom.z_second == pytest.approx((1.0 + 1.0) / 2.0, rel=1e-8)
        assert mom.xhat_second == pytest.approx(0.25 + 0.5, rel=1e-10)

    def test_requires_equal_rates(self):
        params = QueueParams(1, 1, 0.3, 0.4)
        with pytest.raises(UnsupportedCaseError):
            ou_closed_form_moments(params, 0.0, 0.0, 0.0, 1.0)

    def test_negative_start_second_moment_rejected(self):
        # no law has a negative second moment
        with pytest.raises(DomainError, match="z0_second must be finite and >= 0, got -5.0"):
            ou_closed_form_moments(self._unit_params(), 0.0, -5.0, -0.5, [0.0, 1.0])

    def test_start_second_moment_below_squared_mean_rejected(self):
        with pytest.raises(DomainError, match=r"z0_second = 1.0 lies below z0_mean\*\*2 = 9.0 \(z0_mean = 3.0\)"):
            ou_closed_form_moments(self._unit_params(), 3.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "changes",
        [{"x0": math.inf}, {"x0": math.nan}, {"t": math.inf}, {"t": [1.0, math.nan]},
         {"z0_mean": math.nan}, {"z0_second": math.inf}, {"c": math.nan}],
        ids=["x0-inf", "x0-nan", "t-inf", "t-nan", "z0-mean-nan", "z0-second-inf", "c-nan"],
    )
    def test_non_finite_input_rejected(self, changes):
        params = QueueParams(1, 2, 1, 1, 1, 1)
        with pytest.raises(DomainError):
            ou_closed_form_moments(params, **{"z0_mean": 0.0, "z0_second": 0.3, "c": 0.0, "t": 1.0, **changes})

    # (alpha, beta, theta) with theta == gamma, x0, four times t: no crossing,
    # a crossing before and after t, x0 = 0, alpha = beta, small theta t
    @pytest.mark.parametrize("rates, x0, times", [
        ((2.0, 1.0, 1.0), 3.0, [0.1, 0.5, 1.0, 5.0]),
        ((2.0, 1.0, 1.0), -2.0, [1.5, 2.0, 3.0, 8.0]),
        ((2.0, 1.0, 1.0), -2.0, [0.05, 0.3, 0.7, 1.0]),
        ((1.0, 1.5, 0.5), 0.0, [0.1, 0.5, 2.0, 6.0]),
        ((1.0, 1.0, 0.5), 2.0, [0.1, 0.5, 2.0, 6.0]),
        ((3.0, 1.0, 1e-3), 0.0, [2e-3, 5e-3, 1e-2, 2e-2]),
    ])
    def test_z_second_matches_quadrature(self, rates, x0, times):
        alpha, beta, theta = rates
        params = QueueParams.for_family("exponential", alpha, beta, theta, theta)
        a_sq = params.diffusion_coeff_sq
        limit = (alpha - beta) / theta
        t_hit = zero_hitting_time(params, x0)
        t = np.reshape(times, (2, 2))
        mom = ou_closed_form_moments(params, 0.0, 0.3, c=0.0, t=t, x0=x0)
        assert mom.z_second.shape == t.shape
        for tt, value in zip(times, mom.z_second.ravel()):
            def source(u):
                x = limit + (x0 - limit) * math.exp(-theta * u)
                return math.exp(-2.0 * theta * (tt - u)) * (a_sq + theta * abs(x))

            integral, _ = quad(source, 0.0, tt, points=[t_hit] if t_hit is not None and t_hit < tt else None,
                               limit=200, epsabs=0.0, epsrel=1e-13)
            assert value == pytest.approx(0.3 * math.exp(-2.0 * theta * tt) + integral, rel=1e-12)


class TestSDESimulation:
    def test_degenerate_ode_limit(self):
        # zero noise, zero offset: pure exponential decay up to O(step) Euler error
        ou = PiecewiseOUParams(theta=1.0, gamma=1.0, drift_offset=0.0, diffusion=0.0)
        step = 0.001
        path = simulate_sde_path(ou, 2.0, step, 5.0, RandomStream(3, 0))
        exact = 2.0 * np.exp(-path.t)
        assert np.abs(path.x - exact).max() <= 2.0 * 1.0 * 5.0 * step

    def test_step_guard(self):
        ou = PiecewiseOUParams(theta=1.0, gamma=4.0, drift_offset=0.0, diffusion=1.0)
        with pytest.raises(DomainError):
            simulate_sde_path(ou, 0.0, 0.01, 1.0, RandomStream(0, 0))

    def test_equal_rates_long_run_ks(self):
        # stationary law is N(c/theta, a^2/2 theta); pooled thinned samples
        theta, c, a_sq = 1.0, 0.7, 2.0
        ou = PiecewiseOUParams(theta=theta, gamma=theta, drift_offset=c, diffusion=math.sqrt(a_sq))
        horizon = 2000.0 / theta
        samples = stationary_samples(
            ou, 0.0, step=0.01, horizon=horizon, warmup=0.1 * horizon,
            stream=RandomStream(11, 0), n_paths=8, thin=14,
        )
        assert len(samples) >= 100_000
        ks = stats.kstest(samples, "norm", args=(c / theta, math.sqrt(a_sq / (2 * theta)))).statistic
        assert ks < 0.02

    def test_unequal_rates_mean_matches_psi(self):
        ou = PiecewiseOUParams(theta=1.0, gamma=2.0, drift_offset=0.0, diffusion=1.0)
        n_paths = 48
        per_path = []
        for k in range(n_paths):
            s = stationary_samples(ou, 0.0, 0.005, 120.0, 20.0, RandomStream(23, k), n_paths=1, thin=20)
            per_path.append(s.mean())
        per_path = np.array(per_path)
        se = per_path.std(ddof=1) / math.sqrt(n_paths)
        target = psi_moments(0.0, 1.0, 1.0, 2.0).ev
        assert abs(per_path.mean() - target) <= 3.0 * se

    def test_time_varying_coefficient_lookup(self):
        params = QueueParams(2.0, 1.0, 0.5, 0.5)
        path = fluid_closed_form_path(params, -1.0, 0.01, 30.0)
        tvd = TimeVaryingDiffusion(base_sq=1.0, theta=0.5, gamma=0.5, fluid_path=path)
        # early: x < 0 so gamma x^- contributes; late: x -> 2 so theta x^+ -> 1
        assert tvd.value(0.0) == pytest.approx(math.sqrt(1.0 + 0.5 * 1.0), rel=1e-9)
        assert tvd.value(30.0) == pytest.approx(math.sqrt(1.0 + 0.5 * 2.0), rel=1e-3)
        ou = PiecewiseOUParams(theta=0.5, gamma=0.5, drift_offset=0.0, diffusion=tvd)
        out = simulate_sde_path(ou, 0.0, 0.02, 1.0, RandomStream(5, 0))
        assert len(out.x) == 51

    @pytest.mark.parametrize(
        "changes",
        [{"base_sq": math.nan}, {"base_sq": -4.0}, {"base_sq": math.inf}, {"theta": math.nan},
         {"theta": -0.5}, {"gamma": math.inf}],
        ids=["base-nan", "base-negative", "base-inf", "theta-nan", "theta-negative", "gamma-inf"],
    )
    def test_time_varying_coefficient_rejects_bad_values(self, changes):
        path = fluid_closed_form_path(QueueParams(2.0, 1.0, 0.5, 0.5), -1.0, 0.01, 30.0)
        with pytest.raises(DomainError):
            TimeVaryingDiffusion(**{"base_sq": 1.0, "theta": 0.5, "gamma": 0.5, "fluid_path": path, **changes})

    def test_reproducible(self):
        ou = PiecewiseOUParams(theta=1.0, gamma=2.0, drift_offset=0.1, diffusion=1.0)
        a = simulate_sde_path(ou, 0.0, 0.005, 2.0, RandomStream(9, 4))
        b = simulate_sde_path(ou, 0.0, 0.005, 2.0, RandomStream(9, 4))
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("kind", ["constant", "time-varying"])
    def test_path_is_the_one_path_case_of_stationary_samples(self, kind):
        if kind == "constant":
            diffusion = 0.7
        else:
            fluid = fluid_closed_form_path(QueueParams(2.0, 1.0, 0.5, 0.5), -1.0, 0.01, 30.0)
            diffusion = TimeVaryingDiffusion(base_sq=1.0, theta=0.5, gamma=0.5, fluid_path=fluid)
        ou = PiecewiseOUParams(theta=0.5, gamma=1.0, drift_offset=0.3, diffusion=diffusion)
        path = simulate_sde_path(ou, -0.4, 0.005, 10.0, RandomStream(13, 2))
        samples = stationary_samples(ou, -0.4, 0.005, 10.0, 0.0, RandomStream(13, 2), n_paths=1)
        assert np.array_equal(path.x, np.concatenate(([-0.4], samples)))
        assert np.array_equal(path.t, 0.005 * np.arange(2001))

    @pytest.mark.parametrize("warmup, thin", [(0.0, 1), (0.0, 3), (0.0123, 3), (0.5, 7)])
    def test_kept_states_are_every_thin_th_from_the_warmup(self, warmup, thin):
        ou = PiecewiseOUParams(theta=1.0, gamma=2.0, drift_offset=0.1, diffusion=1.0)
        # reference: every state of the two paths' 400 Euler steps, one row a step
        rng, x, every = RandomStream(4, 1).rng, np.full(2, 0.2), []
        for _ in range(400):
            drift = 0.1 - np.maximum(x, 0.0) + 2.0 * np.maximum(-x, 0.0)
            x = x + drift * 0.005 + 1.0 * math.sqrt(0.005) * rng.standard_normal(2)
            every.append(x)
        samples = stationary_samples(ou, 0.2, 0.005, 2.0, warmup, RandomStream(4, 1), n_paths=2, thin=thin)
        # with no warmup the first kept state is the thin-th
        first = math.ceil(warmup / 0.005) or thin
        assert np.array_equal(samples, np.array(every[first - 1::thin]).reshape(-1))

    def test_samples_are_written_into_one_array(self):
        ou = PiecewiseOUParams(theta=1.0, gamma=2.0, drift_offset=0.0, diffusion=1.0)
        stationary_samples(ou, 0.0, 0.005, 0.1, 0.0, RandomStream(1, 0), n_paths=2)
        tracemalloc.start()
        try:
            samples = stationary_samples(ou, 0.0, 0.005, 15.0, 10.0, RandomStream(1, 0), n_paths=1024, thin=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 101 kept rows of 1024 paths; the rest is one step's temporaries and the step grid
        assert samples.size == 101 * 1024
        assert peak <= 1.5 * samples.nbytes

    @pytest.mark.parametrize(
        "fields",
        [
            {"drift_offset": math.nan},
            {"drift_offset": math.inf},
            {"diffusion": math.nan},
            {"diffusion": math.inf},
            {"theta": math.inf},
            {"gamma": math.inf},
        ],
        ids=["offset-nan", "offset-inf", "diffusion-nan", "diffusion-inf", "theta-inf", "gamma-inf"],
    )
    def test_non_finite_params_rejected(self, fields):
        with pytest.raises(DomainError):
            PiecewiseOUParams(**{"theta": 1.0, "gamma": 1.0, "drift_offset": 0.0, "diffusion": 1.0, **fields})

    @pytest.mark.parametrize(
        "x0, step, horizon, warmup, thin",
        [
            (0.0, math.nan, 1.0, 0.0, 1),
            (0.0, 0.01, math.inf, 0.0, 1),
            (0.0, 0.01, math.nan, 0.0, 1),
            (0.0, 0.01, 1.0, math.nan, 1),
            (0.0, 0.01, 1.0, -0.5, 1),
            (math.nan, 0.01, 1.0, 0.0, 1),
            (math.inf, 0.01, 1.0, 0.0, 1),
            (0.0, 0.01, 1.004, 1.003, 1),
            (0.0, 0.01, 0.05, 0.0, 10),
        ],
        ids=["step-nan", "horizon-inf", "horizon-nan", "warmup-nan", "warmup-negative",
             "x0-nan", "x0-inf", "no-state-after-warmup", "no-state-after-thinning"],
    )
    def test_bad_sampling_inputs_rejected(self, x0, step, horizon, warmup, thin):
        ou = PiecewiseOUParams(theta=1.0, gamma=1.0, drift_offset=0.0, diffusion=1.0)
        with pytest.raises(DomainError):
            stationary_samples(ou, x0, step, horizon, warmup, RandomStream(0, 0), n_paths=2, thin=thin)

    @pytest.mark.parametrize("x0, horizon", [(math.nan, 1.0), (0.0, math.inf), (0.0, 0.004)])
    def test_bad_path_inputs_rejected(self, x0, horizon):
        ou = PiecewiseOUParams(theta=1.0, gamma=1.0, drift_offset=0.0, diffusion=1.0)
        with pytest.raises(DomainError):
            simulate_sde_path(ou, x0, 0.01, horizon, RandomStream(0, 0))

    @pytest.mark.parametrize("cap", [12, 11])
    def test_grid_point_count_is_capped(self, monkeypatch, cap):
        # 11 steps make a grid of 12 points, which shares the fluid path's cap; a small cap stands in
        monkeypatch.setattr(fluid, "MAX_GRID_POINTS", cap)
        ou = PiecewiseOUParams(theta=1.0, gamma=1.0, drift_offset=0.0, diffusion=1.0)
        if cap == 12:
            assert stationary_samples(ou, 0.0, 0.01, 0.11, 0.0, RandomStream(0, 0)).size == 11
        else:
            with pytest.raises(ResourceLimitError, match="cap 11"):
                stationary_samples(ou, 0.0, 0.01, 0.11, 0.0, RandomStream(0, 0))

    @pytest.mark.parametrize("cap", [110, 109])
    def test_kept_state_count_is_capped(self, monkeypatch, cap):
        # 11 kept rows of 10 paths: at the cap the run goes ahead, one state past it fails
        monkeypatch.setattr(fluid, "MAX_GRID_POINTS", cap)
        ou = PiecewiseOUParams(theta=1.0, gamma=1.0, drift_offset=0.0, diffusion=1.0)
        if cap == 110:
            assert stationary_samples(ou, 0.0, 0.01, 0.11, 0.0, RandomStream(0, 0), n_paths=10).size == 110
        else:
            with pytest.raises(ResourceLimitError, match="11 states kept on each of 10 paths"):
                stationary_samples(ou, 0.0, 0.01, 0.11, 0.0, RandomStream(0, 0), n_paths=10)

    @pytest.mark.parametrize("step, horizon, n_paths", [(1e-9, 1e3, 1), (0.01, 1.0, 10**12), (1e-10, 1e300, 1)],
                             ids=["fine-grid", "many-paths", "steps-past-the-float-range"])
    def test_oversized_run_fails_before_it_allocates(self, step, horizon, n_paths):
        # a 10^12-point grid, 10^12 paths, and a step count past the float range, none of which may be allocated
        ou = PiecewiseOUParams(theta=1.0, gamma=1.0, drift_offset=0.0, diffusion=1.0)
        with pytest.raises(ResourceLimitError):
            stationary_samples(ou, 0.0, step, horizon, 0.0, RandomStream(0, 0), n_paths=n_paths)

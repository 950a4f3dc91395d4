"""Asymmetric Ornstein-Uhlenbeck diffusion approximations.

The limiting diffusions of the scaled queue have piecewise-linear drift
(-theta x on x >= 0, -gamma x on x < 0) plus a constant offset, and either a
constant or a fluid-modulated diffusion coefficient.  Their stationary
density glues two Gaussians at zero; this module evaluates that density and
its moments, builds the two finite-system approximation models, provides the
theta == gamma transient closed forms, and simulates paths by Euler-Maruyama
for empirical validation.  stationary_samples holds the one Euler-Maruyama
loop; simulate_sde_path is its one-path, no-warmup, unthinned case.  The
transient forms are elementary, with no quadrature:
fluid.discounted_source_integral gives the variance source term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError, NumericalOverflowError, equal_rates, euler_step, finite, finite_result, non_negative, positive,
    time_window, whole_number,
)
from .fluid import FluidPath, discounted_source_integral, fluid_limit
from .numerics import RandomStream, log_ndtr, normal_logcdf, normal_logsf, truncated_normal_moments
from .params import QueueParams

__all__ = [
    "PsiDensity",
    "PsiMoments",
    "TimeVaryingDiffusion",
    "PiecewiseOUParams",
    "ModelOneResult",
    "ModelTwoResult",
    "OUTransientMoments",
    "SDEPath",
    "psi_density",
    "tilted_psi_density",
    "psi_moments",
    "model_one",
    "model_two",
    "ou_closed_form_moments",
    "simulate_sde_path",
    "stationary_samples",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PsiDensity:
    """Two-sided glued-Gaussian stationary density of the asymmetric O-U process.

    On x >= 0 the density is proportional to exp(kappa/theta) phi(x; mu/theta,
    sigma^2/2 theta) / sqrt(theta), and symmetrically with gamma on x < 0; C
    normalizes, and d1/d2 are the resulting half-line weights (d1 + d2 = 1).
    All exponents are combined in log space before exponentiation.
    """

    kappa: float
    mu: float
    sigma: float
    theta: float
    gamma: float
    log_c: float
    d1: float
    d2: float

    def _branch(self, positive: bool) -> tuple[float, float]:
        """(mean, variance) of the Gaussian on the requested side."""
        rate = self.theta if positive else self.gamma
        return self.mu / rate, self.sigma**2 / (2.0 * rate)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for positive in (True, False):
            sel = x >= 0.0 if positive else x < 0.0
            if not np.any(sel):
                continue
            rate = self.theta if positive else self.gamma
            mean, var = self._branch(positive)
            # z and z * z overflow to inf only where the density underflows to 0
            with np.errstate(over="ignore"):
                z = (x[sel] - mean) / math.sqrt(var)
                out[sel] = (
                    self.log_c
                    - 0.5 * math.log(rate)
                    + self.kappa / rate
                    - 0.5 * z * z
                    - _LOG_SQRT_2PI
                    - 0.5 * math.log(var)
                )
        return out

    def pdf(self, x):
        out = np.exp(self.logpdf(x))
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        neg = x_arr < 0.0
        # each side is its Gaussian's lower (upper) tail renormalized to the half line:
        # x < 0 gives d2 Phi((x - m2)/sd2) / Phi(-m2/sd2), x >= 0 gives
        # 1 - d1 Phi((m1 - x)/sd1) / Phi(m1/sd1), both from one log_ndtr call
        m1, v1 = self._branch(positive=True)
        m2, v2 = self._branch(positive=False)
        sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
        log_tail = log_ndtr((x_arr - np.where(neg, m2, m1)) / np.where(neg, sd2, -sd1))
        log_norm = np.where(neg, normal_logcdf(-m2 / sd2), normal_logcdf(m1 / sd1))
        out = np.where(neg, 0.0, 1.0) + np.where(neg, self.d2, -self.d1) * np.exp(log_tail - log_norm)
        return float(out) if np.ndim(x) == 0 else out

    def cell_masses(self, edges: np.ndarray) -> np.ndarray:
        """The masses of the cells (edges[k], edges[k + 1]], for increasing edges.

        A side's piece of a cell is a difference of two tails of that side's Gaussian, in log space: the lower
        tails for a piece below the Gaussian's mean and the upper tails above it, so a small mass keeps its
        relative precision where a difference of two cdf values near 1 would not.  A piece across the mean is all
        but its two outer tails, and the cell that straddles 0 adds one piece from each side.  The total is
        checked against the cdf's mass between the end edges, to 1e-9: a piece from the wrong tail or side would
        miss it, and raises NumericalOverflowError.  Edges may be equal and the end edges infinite; a NaN edge,
        or one below the edge before it, raises DomainError before anything is evaluated.
        """
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size == 0 or np.isnan(edges).any() or np.any(edges[1:] < edges[:-1]):
            raise DomainError(f"cell edges must be a non-empty non-decreasing sequence without NaN, got {edges!r}")
        masses = np.zeros(edges.size - 1)
        # the cells before neg reach below 0, those from pos on above it; each side reads only its own edges
        neg = min(int(np.searchsorted(edges, 0.0)), masses.size)
        pos = max(int(np.searchsorted(edges, 0.0, "right")) - 1, 0)
        sides = []
        for cells, x, positive, weight in (
            (slice(0, neg), np.minimum(edges[:neg + 1], 0.0), False, self.d2),
            (slice(pos, None), np.maximum(edges[pos:], 0.0), True, self.d1),
        ):
            mean, var = self._branch(positive)
            sd = math.sqrt(var)
            sides.append((cells, (x - mean) / sd, mean / sd if positive else -mean / sd, weight))
        # at each edge the log of its side's Gaussian tail beyond it, away from the mean: the smaller tail.  One
        # log_ndtr call serves both sides' edges: it works element by element, and a call costs about the same
        # at any size up to a few hundred points
        z_below = sides[0][1]
        tails = np.split(log_ndtr(-np.abs(np.concatenate([z_below, sides[1][1]]))), [z_below.size])
        for (cells, z, norm_z, weight), tail in zip(sides, tails):
            near, far = np.maximum(tail[:-1], tail[1:]), np.minimum(tail[:-1], tail[1:])
            log_norm = normal_logcdf(norm_z)
            # both tails are -inf only past the float range of z^2, where a piece holds no mass
            with np.errstate(invalid="ignore"):
                piece = np.exp(near - log_norm) * -np.expm1(np.fmin(far - near, 0.0))
            # a piece across the mean holds all but the tails beyond its two edges
            across = (z[:-1] < 0.0) & (z[1:] > 0.0)
            piece[across] = -np.expm1(np.logaddexp(tail[:-1], tail[1:])[across]) / np.exp(log_norm)
            masses[cells] += weight * piece
        below, above = self.cdf(edges[[0, -1]])
        if not abs(float(masses.sum()) - (above - below)) <= 1e-9:
            raise NumericalOverflowError(f"cell masses add up to {masses.sum()!r}, the cdf gives {above - below!r}")
        return masses

    def mean(self) -> float:
        e1, _ = truncated_normal_moments(*self._branch(True), "positive")
        e2, _ = truncated_normal_moments(*self._branch(False), "negative")
        return self.d1 * e1 + self.d2 * e2

    def second_moment(self) -> float:
        _, s1 = truncated_normal_moments(*self._branch(True), "positive")
        _, s2 = truncated_normal_moments(*self._branch(False), "negative")
        return self.d1 * s1 + self.d2 * s2


def psi_density(kappa: float, mu: float, sigma: float, theta: float, gamma: float) -> PsiDensity:
    """Construct the glued-Gaussian density with the given exponent tilt kappa.

    Raises DomainError where a side's Gaussian or log weight leaves the float range.
    """
    finite(kappa, "kappa")
    finite(mu, "mu")
    for name, value in (("sigma", sigma), ("theta", theta), ("gamma", gamma)):
        positive(value, name)
    sigma_sq = finite_result(lambda: sigma**2, f"sigma^2 at sigma = {sigma}")
    lw1 = finite_result(
        lambda: -0.5 * math.log(theta) + kappa / theta + normal_logsf(0.0, mu / theta, sigma_sq / (2.0 * theta)),
        "the log weight of the half line x >= 0",
    )
    lw2 = finite_result(
        lambda: -0.5 * math.log(gamma) + kappa / gamma + normal_logcdf(0.0, mu / gamma, sigma_sq / (2.0 * gamma)),
        "the log weight of the half line x < 0",
    )
    log_norm = np.logaddexp(lw1, lw2)
    return PsiDensity(
        kappa=kappa,
        mu=mu,
        sigma=sigma,
        theta=theta,
        gamma=gamma,
        log_c=-float(log_norm),
        d1=float(math.exp(lw1 - log_norm)),
        d2=float(math.exp(lw2 - log_norm)),
    )


def tilted_psi_density(mu: float, sigma: float, theta: float, gamma: float) -> PsiDensity:
    """The density in the kappa = mu^2/sigma^2 family, the one both limiting laws live in.

    Raises DomainError where mu^2 overflows or sigma^2 underflows to 0.
    """
    positive(sigma, "sigma")
    kappa = finite_result(lambda: mu**2 / sigma**2, f"the tilt mu^2/sigma^2 at mu = {mu}, sigma = {sigma}")
    return psi_density(kappa, mu, sigma, theta, gamma)


@dataclass(frozen=True)
class PsiMoments:
    ev: float
    ev2: float
    d1: float
    d2: float


def psi_moments(mu: float, sigma: float, theta: float, gamma: float) -> PsiMoments:
    """First two moments of the stationary law in the kappa = mu^2/sigma^2 family.

    This is the family both limiting distributions live in; when theta equals
    gamma the law is a single Gaussian and the two truncated halves add up to
    its moments.
    """
    density = tilted_psi_density(mu, sigma, theta, gamma)
    ev, ev2 = finite(density.mean(), "the psi mean"), finite(density.second_moment(), "the psi second moment")
    return PsiMoments(ev=ev, ev2=ev2, d1=density.d1, d2=density.d2)


@dataclass(frozen=True)
class TimeVaryingDiffusion:
    """Fluid-modulated diffusion coefficient a(t) = sqrt(base_sq + theta x+(t) + gamma x-(t)).

    x is read from the attached fluid path by piecewise-constant lookup, so
    a(t) >= sqrt(base_sq) pointwise.
    """

    base_sq: float
    theta: float
    gamma: float
    fluid_path: FluidPath

    def __post_init__(self):
        for name in ("base_sq", "theta", "gamma"):
            non_negative(getattr(self, name), name)

    def value(self, t):
        """a(t) at a scalar or an array of times; a scalar gives a float."""
        x = self.fluid_path.value_at(t)
        a = np.sqrt(self.base_sq + self.theta * np.maximum(x, 0.0) + self.gamma * np.maximum(-x, 0.0))
        return float(a) if np.ndim(t) == 0 else a


@dataclass(frozen=True)
class PiecewiseOUParams:
    """Drift slopes, offset, and diffusion coefficient of the asymmetric O-U process."""

    theta: float
    gamma: float
    drift_offset: float
    diffusion: float | TimeVaryingDiffusion

    def __post_init__(self):
        positive(self.theta, "theta")
        positive(self.gamma, "gamma")
        finite(self.drift_offset, "drift offset")
        # zero is allowed so the degenerate ODE limit can be exercised
        if not isinstance(self.diffusion, TimeVaryingDiffusion):
            non_negative(self.diffusion, "constant diffusion coefficient")

    def diffusion_at(self, t):
        """Diffusion coefficient at a scalar or an array of times; a scalar gives a float."""
        if isinstance(self.diffusion, TimeVaryingDiffusion):
            return self.diffusion.value(t)
        return float(self.diffusion) if np.ndim(t) == 0 else np.full(np.shape(t), float(self.diffusion))


@dataclass(frozen=True)
class ModelOneResult:
    """Heavy-traffic model: constant-coefficient asymmetric O-U around zero."""

    L1: float
    L2: float


def model_one(params: QueueParams) -> ModelOneResult:
    """Constant-diffusion approximation; usable in any parameter regime.

    The process has offset alpha - beta and coefficient a =
    sqrt(alpha^3 sigma^2 + beta^3 varsigma^2); the moment estimates are those
    of its stationary law.
    """
    mom = psi_moments(params.drift_offset, params.diffusion_coeff, params.theta, params.gamma)
    return ModelOneResult(L1=mom.ev, L2=mom.ev2)


@dataclass(frozen=True)
class ModelTwoResult:
    """Fluid-centered model: the mean comes from the fluid fixed point and the
    second moment adds the centered diffusion's stationary second moment."""

    L1: float
    L2: float


def model_two(params: QueueParams) -> ModelTwoResult:
    """Fluid-centered approximation with coefficient b = sqrt(a^2 + |alpha-beta|)."""
    level = finite_result(lambda: fluid_limit(params), "the fluid fixed point")
    mom = psi_moments(0.0, params.heavy_traffic_coeff, params.theta, params.gamma)
    return ModelTwoResult(L1=level, L2=finite_result(lambda: level**2 + mom.ev2, "the model-two second moment"))


@dataclass(frozen=True)
class OUTransientMoments:
    """Transient first/second moments of the centered (Z) and offset (X-hat) processes."""

    z_mean: float | np.ndarray
    z_second: float | np.ndarray
    xhat_mean: float | np.ndarray
    xhat_second: float | np.ndarray


def ou_closed_form_moments(
    params: QueueParams,
    z0_mean: float,
    z0_second: float,
    c: float,
    t,
    x0: float = 0.0,
) -> OUTransientMoments:
    """Transient moment formulas for theta == gamma.

    Z is the fluid-centered diffusion whose coefficient is modulated by the
    fluid path started at x0; X-hat is the constant-coefficient process with
    drift offset c.  Limits: Z -> N(0, (a^2 + |alpha-beta|)/2 theta) and
    X-hat -> N(c/theta, a^2/2 theta).
    """
    # checked before a_sq is read, which raises DomainError when sigma is unset
    equal_rates(params.theta, params.gamma, "the closed-form O-U moments")
    for name, value in (("z0_mean", z0_mean), ("z0_second", z0_second), ("c", c)):
        finite(value, name)
    theta = params.theta
    a_sq = params.diffusion_coeff_sq
    t_arr = np.asarray(t, dtype=float)
    decay = np.exp(-theta * t_arr)
    decay2 = np.exp(-2.0 * theta * t_arr)
    z_mean = z0_mean * decay
    z_second = z0_second * decay2 + discounted_source_integral(params, x0, t_arr, a_sq, 0.0)

    level = c / theta
    xhat_mean = (z0_mean - level) * decay + level
    stat_second = level**2 + a_sq / (2.0 * theta)
    cross = 2.0 * level * (z0_mean - level)
    xhat_second = (z0_second - cross - stat_second) * decay2 + cross * decay + stat_second

    fields = (z_mean, z_second, xhat_mean, xhat_second)
    if np.ndim(t) == 0:
        fields = tuple(float(f) for f in fields)
    return OUTransientMoments(*fields)


@dataclass(frozen=True)
class SDEPath:
    t: np.ndarray
    x: np.ndarray


def simulate_sde_path(
    ou: PiecewiseOUParams,
    x0: float,
    step: float,
    horizon: float,
    stream: RandomStream,
) -> SDEPath:
    """One Euler-Maruyama path from x0 on the grid 0, step, 2 step, ....

    This is the one-path, no-warmup, unthinned case of stationary_samples,
    which holds the module's only Euler-Maruyama loop and its input checks.
    """
    xs = stationary_samples(ou, x0, step, horizon, 0.0, stream)
    return SDEPath(t=step * np.arange(len(xs) + 1), x=np.concatenate(([x0], xs)))


def stationary_samples(
    ou: PiecewiseOUParams,
    x0: float,
    step: float,
    horizon: float,
    warmup: float,
    stream: RandomStream,
    n_paths: int = 1,
    thin: int = 1,
) -> np.ndarray:
    """Pooled post-warmup states from n_paths independent Euler-Maruyama paths.

    Drift and diffusion are frozen at the left endpoint of every step, and
    the paths are advanced together (vectorized across paths).  Every
    thin-th state from step ceil(warmup/step) on is kept, each written into
    one (kept, n_paths) array, so memory stays bounded by the retained
    samples.  A run that would keep no state raises DomainError.
    """
    euler_step(step, ou.theta, ou.gamma)
    time_window(warmup, horizon)
    finite(x0, "x0")
    n_paths = whole_number(n_paths, "n_paths", 1)
    thin = whole_number(thin, "thin", 1)
    n_steps = int(round(horizon / step))
    # with no warmup the first kept state is the thin-th, since state 0 is x0
    kept_steps = range(int(math.ceil(warmup / step)) or thin, n_steps + 1, thin)
    if not kept_steps:
        raise DomainError(f"no state kept: {n_steps} steps of {step} end before step {kept_steps.start}")
    t_grid = step * np.arange(n_steps + 1)
    # frozen at the left endpoint of every step
    coeff = ou.diffusion_at(t_grid[:-1])
    rng = stream.rng
    sqrt_step = math.sqrt(step)
    x = np.full(n_paths, float(x0))
    kept = np.empty((len(kept_steps), n_paths))
    rows = iter(kept)
    offset = ou.drift_offset
    for k in range(n_steps):
        drift = offset - ou.theta * np.maximum(x, 0.0) + ou.gamma * np.maximum(-x, 0.0)
        x = x + drift * step + coeff[k] * sqrt_step * rng.standard_normal(n_paths)
        if k + 1 in kept_steps:
            next(rows)[:] = x
    return kept.reshape(-1)

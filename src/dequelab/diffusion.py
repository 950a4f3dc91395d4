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
from scipy.special import log_ndtr

from .errors import DomainError, UnsupportedCaseError
from .fluid import FluidPath, discounted_source_integral, fluid_limit
from .numerics import RandomStream, normal_logcdf, normal_logsf, truncated_normal_moments
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

    @property
    def c(self) -> float:
        return math.exp(self.log_c)

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

    __call__ = pdf

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.empty_like(x_arr)
        neg = x_arr < 0.0
        # each side is its Gaussian's lower (upper) tail renormalized to the half line
        m2, v2 = self._branch(positive=False)
        sd2 = math.sqrt(v2)
        out[neg] = self.d2 * np.exp(log_ndtr((x_arr[neg] - m2) / sd2) - log_ndtr(-m2 / sd2))
        m1, v1 = self._branch(positive=True)
        sd1 = math.sqrt(v1)
        out[~neg] = 1.0 - self.d1 * np.exp(log_ndtr((m1 - x_arr[~neg]) / sd1) - log_ndtr(m1 / sd1))
        return float(out) if np.ndim(x) == 0 else out

    def mean(self) -> float:
        e1, _ = truncated_normal_moments(*self._branch(True), "positive")
        e2, _ = truncated_normal_moments(*self._branch(False), "negative")
        return self.d1 * e1 + self.d2 * e2

    def second_moment(self) -> float:
        _, s1 = truncated_normal_moments(*self._branch(True), "positive")
        _, s2 = truncated_normal_moments(*self._branch(False), "negative")
        return self.d1 * s1 + self.d2 * s2


def psi_density(kappa: float, mu: float, sigma: float, theta: float, gamma: float) -> PsiDensity:
    """Construct the glued-Gaussian density with the given exponent tilt kappa."""
    if not all(map(math.isfinite, (kappa, mu, sigma, theta, gamma))):
        raise DomainError(
            f"kappa, mu, sigma, theta and gamma must be finite, got {kappa}, {mu}, {sigma}, {theta}, {gamma}"
        )
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not (theta > 0.0 and gamma > 0.0):
        raise DomainError("theta and gamma must be positive")
    lw1 = -0.5 * math.log(theta) + kappa / theta + normal_logsf(0.0, mu / theta, sigma**2 / (2.0 * theta))
    lw2 = -0.5 * math.log(gamma) + kappa / gamma + normal_logcdf(0.0, mu / gamma, sigma**2 / (2.0 * gamma))
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
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    try:
        kappa = mu**2 / sigma**2
    except OverflowError:
        raise DomainError(f"the tilt mu^2/sigma^2 overflows: mu^2 is out of range for mu = {mu}") from None
    except ZeroDivisionError:
        raise DomainError(f"the tilt mu^2/sigma^2 is undefined: sigma^2 underflows to 0 for sigma = {sigma}") from None
    return psi_density(kappa, mu, sigma, theta, gamma)


@dataclass(frozen=True)
class PsiMoments:
    ev: float
    ev2: float
    d1: float
    d2: float

    @property
    def variance(self) -> float:
        return self.ev2 - self.ev**2


def psi_moments(mu: float, sigma: float, theta: float, gamma: float) -> PsiMoments:
    """First two moments of the stationary law in the kappa = mu^2/sigma^2 family.

    This is the family both limiting distributions live in; when theta equals
    gamma the law is a single Gaussian and the two truncated halves add up to
    its moments.
    """
    density = tilted_psi_density(mu, sigma, theta, gamma)
    return PsiMoments(ev=density.mean(), ev2=density.second_moment(), d1=density.d1, d2=density.d2)


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
        if not all(0.0 <= v < math.inf for v in (self.base_sq, self.theta, self.gamma)):
            raise DomainError(
                "base_sq, theta and gamma must be non-negative and finite, "
                f"got {self.base_sq}, {self.theta}, {self.gamma}"
            )

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
        if not (0.0 < self.theta < math.inf and 0.0 < self.gamma < math.inf):
            raise DomainError("drift slopes theta and gamma must be positive and finite")
        if not math.isfinite(self.drift_offset):
            raise DomainError(f"drift offset must be finite, got {self.drift_offset}")
        # zero is allowed so the degenerate ODE limit can be exercised
        if isinstance(self.diffusion, (int, float)) and not 0.0 <= self.diffusion < math.inf:
            raise DomainError(
                f"constant diffusion coefficient must be non-negative and finite, got {self.diffusion}"
            )

    def diffusion_at(self, t):
        """Diffusion coefficient at a scalar or an array of times; a scalar gives a float."""
        if isinstance(self.diffusion, TimeVaryingDiffusion):
            return self.diffusion.value(t)
        return float(self.diffusion) if np.ndim(t) == 0 else np.full(np.shape(t), float(self.diffusion))


@dataclass(frozen=True)
class ModelOneResult:
    """Heavy-traffic model: constant-coefficient asymmetric O-U around zero."""

    ou: PiecewiseOUParams
    L1: float
    L2: float


def model_one(params: QueueParams) -> ModelOneResult:
    """Constant-diffusion approximation; usable in any parameter regime.

    The process has offset alpha - beta and coefficient a =
    sqrt(alpha^3 sigma^2 + beta^3 varsigma^2); the moment estimates are those
    of its stationary law.
    """
    a = params.diffusion_coeff
    ou = PiecewiseOUParams(
        theta=params.theta,
        gamma=params.gamma,
        drift_offset=params.drift_offset,
        diffusion=a,
    )
    mom = psi_moments(params.drift_offset, a, params.theta, params.gamma)
    return ModelOneResult(ou=ou, L1=mom.ev, L2=mom.ev2)


@dataclass(frozen=True)
class ModelTwoResult:
    """Fluid-centered model: the mean comes from the fluid fixed point and the
    second moment adds the centered diffusion's stationary second moment."""

    L1: float
    L2: float


def model_two(params: QueueParams) -> ModelTwoResult:
    """Fluid-centered approximation with coefficient b = sqrt(a^2 + |alpha-beta|)."""
    level = fluid_limit(params)
    mom = psi_moments(0.0, params.heavy_traffic_coeff, params.theta, params.gamma)
    return ModelTwoResult(L1=level, L2=level**2 + mom.ev2)


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
    if params.theta != params.gamma:
        raise UnsupportedCaseError(
            f"closed-form moments require theta == gamma, got {params.theta} != {params.gamma}"
        )
    if not all(math.isfinite(v) for v in (z0_mean, z0_second, c)):
        raise DomainError(f"z0_mean, z0_second and c must be finite, got {z0_mean}, {z0_second}, {c}")
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
    thin-th state from step ceil(warmup/step) on is kept, so memory stays
    bounded by the number of retained samples.  A run that would keep no
    state raises DomainError.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive and finite, got {step}")
    if step > 0.01 / max(ou.theta, ou.gamma) + 1e-15:
        raise DomainError("step too coarse; require step <= 0.01/max(theta, gamma)")
    if not 0.0 <= warmup < horizon < math.inf:
        raise DomainError(f"need 0 <= warmup < horizon < inf, got warmup={warmup}, horizon={horizon}")
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    if n_paths < 1 or thin < 1:
        raise DomainError("n_paths and thin must be >= 1")
    n_steps = int(round(horizon / step))
    first_kept = int(math.ceil(warmup / step))
    # with no warmup the first kept state is the thin-th, since state 0 is x0
    if (first_kept or thin) > n_steps:
        raise DomainError(f"no state kept: {n_steps} steps of {step} end before step {first_kept or thin}")
    t_grid = step * np.arange(n_steps + 1)
    # frozen at the left endpoint of every step
    coeff = ou.diffusion_at(t_grid[:-1])
    rng = stream.rng
    sqrt_step = math.sqrt(step)
    x = np.full(n_paths, float(x0))
    kept = []
    offset = ou.drift_offset
    for k in range(n_steps):
        drift = offset - ou.theta * np.maximum(x, 0.0) + ou.gamma * np.maximum(-x, 0.0)
        x = x + drift * step + coeff[k] * sqrt_step * rng.standard_normal(n_paths)
        idx = k + 1
        if idx >= first_kept and (idx - first_kept) % thin == 0:
            kept.append(x.copy())
    return np.concatenate(kept)

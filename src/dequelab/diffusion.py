"""Asymmetric Ornstein-Uhlenbeck diffusion approximations.

The limiting diffusions of the scaled queue have piecewise-linear drift
(-theta x on x >= 0, -gamma x on x < 0) plus a constant offset, and either a
constant or a fluid-modulated diffusion coefficient.  Their stationary
density glues two Gaussians at zero; this module evaluates that density and
its moments, builds the two finite-system approximation models, provides the
theta == gamma transient closed forms, and simulates paths by Euler-Maruyama
for empirical validation.  PsiDensity is built from its five parameters and
works out each side's Gaussian and half-line weight once.  Its pdf, logpdf
and cdf put a point on one side by one rule, x < 0 or not, so a NaN point
gives NaN, and cdf and cell_masses take every mass from one tail rule,
_piece.  model_one_density builds model one's law for model_one, the harness
and the CLI; model_two reads its centred law's second moment the same way.
stationary_samples holds the one Euler-Maruyama loop, capped at
fluid.MAX_GRID_POINTS grid points and kept states; simulate_sde_path is its
one-path, no-warmup, unthinned case.  The transient forms are elementary,
with no quadrature: fluid.discounted_source_integral gives the variance
source term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError, NumericalOverflowError, ResourceLimitError, equal_rates, euler_step, finite, finite_result,
    non_negative, positive, start_moments, time_window, whole_number,
)
from . import fluid
from .fluid import FluidPath, discounted_source_integral, fluid_limit
from .numerics import RandomStream, log_ndtr, normal_logcdf, normal_logsf, truncated_normal_moments
from .params import QueueParams

__all__ = [
    "PsiDensity",
    "PsiMoments",
    "TimeVaryingDiffusion",
    "PiecewiseOUParams",
    "ModelMoments",
    "OUTransientMoments",
    "SDEPath",
    "psi_density",
    "tilted_psi_density",
    "psi_moments",
    "model_one_density",
    "model_one",
    "model_two",
    "ou_closed_form_moments",
    "simulate_sde_path",
    "stationary_samples",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _piece(log_mass: float, tail_lo, tail_hi, across):
    """A side's share of its half-line mass between two points, from the logs of its Gaussian's tails beyond them,
    away from the mean: a difference of two tails, so a small piece keeps its relative precision, or, across the
    mean, all but the two.  Both tails are -inf only past the float range of z^2, where a piece holds no mass; the
    branch np.where drops may divide by 0 or overflow where a side's mass underflows."""
    near, far = np.maximum(tail_lo, tail_hi), np.minimum(tail_lo, tail_hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        one_side = np.exp(near - log_mass) * -np.expm1(np.fmin(far - near, 0.0))
        return np.where(across, -np.expm1(np.logaddexp(tail_lo, tail_hi)) / np.exp(log_mass), one_side)


@dataclass(frozen=True)
class PsiDensity:
    """Two-sided glued-Gaussian stationary density of the asymmetric O-U process, built from its five parameters.

    On x >= 0 the density is proportional to exp(kappa/theta) phi(x; mu/theta, sigma^2/2 theta) / sqrt(theta), and
    symmetrically with gamma on x < 0; C normalizes, and d1/d2 are the resulting half-line weights (d1 + d2 = 1).
    All exponents are combined in log space before exponentiation.  The constructor derives log C, d1, d2 and each
    side's Gaussian once, and raises DomainError where a side's Gaussian or log weight leaves the float range.
    """

    kappa: float
    mu: float
    sigma: float
    theta: float
    gamma: float
    log_c: float = field(init=False)
    d1: float = field(init=False)
    d2: float = field(init=False)
    # (mean, variance, sd, log of the half line's mass) of the sides x >= 0 and x < 0, in the order of d1 and d2
    _sides: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        finite(self.kappa, "kappa")
        finite(self.mu, "mu")
        for name in ("sigma", "theta", "gamma"):
            positive(getattr(self, name), name)
        sigma_sq = finite_result(lambda: self.sigma**2, f"sigma^2 at sigma = {self.sigma}")
        sides, log_weights = [], []
        for rate, log_mass_of, where in ((self.theta, normal_logsf, "x >= 0"), (self.gamma, normal_logcdf, "x < 0")):
            mean, var = self.mu / rate, sigma_sq / (2.0 * rate)
            log_mass = log_mass_of(0.0, mean, var)
            sides.append((mean, var, math.sqrt(var), log_mass))
            log_weights.append(finite_result(
                lambda: -0.5 * math.log(rate) + self.kappa / rate + log_mass, f"the log weight of the half line {where}"
            ))
        log_norm = np.logaddexp(*log_weights)
        derived = (-float(log_norm), *(float(math.exp(lw - log_norm)) for lw in log_weights), tuple(sides))
        for name, value in zip(("log_c", "d1", "d2", "_sides"), derived):
            object.__setattr__(self, name, value)

    def logpdf(self, x):
        # each side's terms picked point by point, as in cdf, and added in a fixed order, which the pinned outputs
        # hold; a NaN point takes the x >= 0 side and gives NaN
        x = np.asarray(x, dtype=float)
        neg = x < 0.0
        (m1, v1, sd1, _), (m2, v2, sd2, _) = self._sides
        head1, head2 = (self.log_c - 0.5 * math.log(rate) + self.kappa / rate for rate in (self.theta, self.gamma))
        # z and z * z overflow to inf only where the density underflows to 0
        with np.errstate(over="ignore"):
            z = (x - np.where(neg, m2, m1)) / np.where(neg, sd2, sd1)
            half_log_var = np.where(neg, 0.5 * math.log(v2), 0.5 * math.log(v1))
            return np.where(neg, head2, head1) - 0.5 * z * z - _LOG_SQRT_2PI - half_log_var

    def pdf(self, x):
        out = np.exp(self.logpdf(x))
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x):
        """d2 times side 2's piece (-inf, x] below 0, and d2 plus d1 times side 1's piece [0, x] from 0 on, each by
        _piece's rule, so the cdf keeps its relative precision near 0; clipped to [0, 1]."""
        x_arr = np.asarray(x, dtype=float)
        neg = x_arr < 0.0
        (m1, _, sd1, log_mass1), (m2, _, sd2, log_mass2) = self._sides
        # one log_ndtr pass over the points, each tail away from its side's mean
        z = (x_arr - np.where(neg, m2, m1)) / np.where(neg, sd2, sd1)
        tail = log_ndtr(-np.abs(z))
        # side 1's tail beyond 0, one scalar.  With the mean above 0 it is the lower tail, by the rule every point's
        # tail follows.  With the mean at or below 0 it is the half-line mass itself, one number as tail and as
        # norm, so a piece out to +inf is 1.  A point whose z is that of 0 reads it, so a point at 0 gives an empty
        # piece and cdf(0) is d2
        z0 = -m1 / sd1
        tail0 = float(log_ndtr(z0)) if z0 < 0.0 else log_mass1
        tail1 = np.where(z == z0, tail0, tail)
        # side 2's piece is at most its whole half line, so the cdf does not step down into 0
        piece = np.where(neg, np.minimum(_piece(log_mass2, -math.inf, tail, z > 0.0), 1.0),
                         _piece(log_mass1, tail0, tail1, (z0 < 0.0) & (z > 0.0)))
        out = np.clip(np.where(neg, 0.0, self.d2) + np.where(neg, self.d2, self.d1) * piece, 0.0, 1.0)
        return float(out) if np.ndim(x) == 0 else out

    def cell_masses(self, edges: np.ndarray) -> np.ndarray:
        """The masses of the cells (edges[k], edges[k + 1]], for increasing edges.

        A side's piece of a cell follows _piece's rule, and the cell that straddles 0 adds one piece from each
        side.  The total is checked against the cdf's mass between the end edges, to 1e-9: a piece from the wrong
        tail or side would miss it, and raises NumericalOverflowError.  Edges may be equal and the end edges
        infinite; a NaN edge, or one below the edge before it, raises DomainError before anything is evaluated.
        """
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size == 0 or np.isnan(edges).any() or np.any(edges[1:] < edges[:-1]):
            raise DomainError(f"cell edges must be a non-empty non-decreasing sequence without NaN, got {edges!r}")
        masses = np.zeros(edges.size - 1)
        # the cells before neg reach below 0, those from pos on above it; each side reads only its own edges
        neg = min(int(np.searchsorted(edges, 0.0)), masses.size)
        pos = max(int(np.searchsorted(edges, 0.0, "right")) - 1, 0)
        (m1, _, sd1, log_mass1), (m2, _, sd2, log_mass2) = self._sides
        z_below = (np.minimum(edges[:neg + 1], 0.0) - m2) / sd2
        z_above = (np.maximum(edges[pos:], 0.0) - m1) / sd1
        # one log_ndtr call serves both sides' edges: it works element by element, and a call costs about the same
        # at any size up to a few hundred points
        tails = np.split(log_ndtr(-np.abs(np.concatenate([z_below, z_above]))), [z_below.size])
        for cells, z, tail, log_mass, weight in (
            (slice(0, neg), z_below, tails[0], log_mass2, self.d2),
            (slice(pos, None), z_above, tails[1], log_mass1, self.d1),
        ):
            masses[cells] += weight * _piece(log_mass, tail[:-1], tail[1:], (z[:-1] < 0.0) & (z[1:] > 0.0))
        below, above = self.cdf(edges[[0, -1]])
        if not abs(float(masses.sum()) - (above - below)) <= 1e-9:
            raise NumericalOverflowError(f"cell masses add up to {masses.sum()!r}, the cdf gives {above - below!r}")
        return masses

    def _moments(self) -> tuple[float, float]:
        """The mean and the second moment, from one truncated_normal_moments call a side."""
        (m1, v1, _, _), (m2, v2, _, _) = self._sides
        (e1, s1), (e2, s2) = truncated_normal_moments(m1, v1, "positive"), truncated_normal_moments(m2, v2, "negative")
        return self.d1 * e1 + self.d2 * e2, self.d1 * s1 + self.d2 * s2

    def mean(self) -> float:
        return self._moments()[0]

    def second_moment(self) -> float:
        return self._moments()[1]


def psi_density(kappa: float, mu: float, sigma: float, theta: float, gamma: float) -> PsiDensity:
    """The glued-Gaussian density with the given exponent tilt kappa, as PsiDensity builds it."""
    return PsiDensity(kappa, mu, sigma, theta, gamma)


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
class ModelMoments:
    """An approximation model's estimates of the first two stationary moments, E[X] and E[X^2]."""

    L1: float
    L2: float


def model_one_density(params: QueueParams) -> PsiDensity:
    """Model one's stationary law: the constant-coefficient process with offset alpha - beta and coefficient
    a = sqrt(alpha^3 sigma^2 + beta^3 varsigma^2), in the kappa = mu^2/sigma^2 family."""
    return tilted_psi_density(params.drift_offset, params.diffusion_coeff, params.theta, params.gamma)


def model_one(params: QueueParams) -> ModelMoments:
    """Constant-diffusion approximation, usable in any parameter regime: the moments of model_one_density."""
    law = model_one_density(params)
    return ModelMoments(finite(law.mean(), "the psi mean"), finite(law.second_moment(), "the psi second moment"))


def model_two(params: QueueParams) -> ModelMoments:
    """Fluid-centered approximation with coefficient b = sqrt(a^2 + |alpha-beta|): L1 is the fluid fixed
    point, L2 its square plus the centered diffusion's stationary second moment."""
    level = finite_result(lambda: fluid_limit(params), "the fluid fixed point")
    law = tilted_psi_density(0.0, params.heavy_traffic_coeff, params.theta, params.gamma)
    centred = finite(law.second_moment(), "the psi second moment")
    return ModelMoments(L1=level, L2=finite_result(lambda: level**2 + centred, "the model-two second moment"))


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
    start_moments(z0_mean, z0_second, "z0_mean", "z0_second")
    finite(c, "c")
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
    samples.  A run that would keep no state raises DomainError; one whose
    grid 0, step, ..., horizon or whose kept states would pass
    fluid.MAX_GRID_POINTS raises ResourceLimitError before anything of
    that size is built.
    """
    euler_step(step, ou.theta, ou.gamma)
    time_window(warmup, horizon)
    finite(x0, "x0")
    n_paths = whole_number(n_paths, "n_paths", 1)
    thin = whole_number(thin, "thin", 1)
    cap = fluid.MAX_GRID_POINTS
    # a step count at the cap fails it, so a horizon/step past the float range is never rounded
    n_steps = int(round(min(horizon / step, cap)))
    if n_steps + 1 > cap:
        raise ResourceLimitError(f"a grid of step {step:g} up to horizon {horizon:g} would pass the cap {cap}")
    # with no warmup the first kept state is the thin-th, since state 0 is x0
    kept_steps = range(int(math.ceil(warmup / step)) or thin, n_steps + 1, thin)
    if not kept_steps:
        raise DomainError(f"no state kept: {n_steps} steps of {step} end before step {kept_steps.start}")
    if len(kept_steps) * n_paths > cap:
        raise ResourceLimitError(f"{len(kept_steps)} states kept on each of {n_paths} paths would pass the cap {cap}")
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

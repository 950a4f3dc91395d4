"""Fluid (law-of-large-numbers) limit of the scaled queue length.

The limit solves x' = (alpha - beta) - theta x^+ + gamma x^-.  Trajectories
are piecewise exponential: a path starting on the "wrong" side of zero decays
at the opposite side's rate until it hits zero at an explicit time, then
relaxes toward the fixed point.  Both the closed form and an independent RK4
integrator are provided so they can cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedCaseError
from .params import QueueParams

__all__ = [
    "FluidPath",
    "fluid_limit",
    "zero_hitting_time",
    "fluid_closed_form",
    "fluid_closed_form_path",
    "discounted_source_integral",
    "fluid_integrate",
]


@dataclass(frozen=True)
class FluidPath:
    """A fluid trajectory sampled on a uniform grid."""

    t: np.ndarray
    x: np.ndarray
    hitting_time: float | None

    def value_at(self, t):
        """Piecewise-constant lookup at the left grid point (clamped to the grid).

        Accepts a scalar or an array of times; a scalar gives a float.
        """
        idx = np.clip(np.searchsorted(self.t, t, side="right") - 1, 0, len(self.x) - 1)
        return float(self.x[idx]) if np.ndim(t) == 0 else self.x[idx]


def fluid_limit(params: QueueParams) -> float:
    """The unique stable point: (alpha-beta)/theta if alpha >= beta, else (alpha-beta)/gamma."""
    delta = params.alpha - params.beta
    return delta / params.theta if params.alpha >= params.beta else delta / params.gamma


def zero_hitting_time(params: QueueParams, x0: float) -> float | None:
    """First time the path from x0 reaches zero, or None if it never does.

    Finite exactly when x0 sits strictly on the opposite side of zero from
    alpha - beta.  With alpha == beta the decay is purely exponential and
    zero is only reached in the limit.
    """
    delta = params.alpha - params.beta
    if x0 < 0.0 and delta > 0.0:
        return math.log((delta - params.gamma * x0) / delta) / params.gamma
    if x0 > 0.0 and delta < 0.0:
        return math.log((delta - params.theta * x0) / delta) / params.theta
    return None


def _check_start(x0: float) -> None:
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")


def fluid_closed_form(params: QueueParams, x0: float, t) -> float | np.ndarray:
    """Evaluate the piecewise-exponential solution at time(s) t >= 0."""
    _check_start(x0)
    delta = params.alpha - params.beta
    t_hit = zero_hitting_time(params, x0)

    def relax(u, start: float, rate: float, limit: float):
        return (start - limit) * np.exp(-rate * u) + limit

    def at(u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0):
            raise DomainError("fluid trajectory is defined for t >= 0 only")
        if x0 >= 0.0 and delta >= 0.0:
            return relax(u, x0, params.theta, delta / params.theta)
        if x0 <= 0.0 and delta <= 0.0:
            return relax(u, x0, params.gamma, delta / params.gamma)
        if x0 < 0.0:  # delta > 0: climb at rate gamma, then relax at rate theta
            before = relax(u, x0, params.gamma, delta / params.gamma)
            after = relax(np.maximum(u - t_hit, 0.0), 0.0, params.theta, delta / params.theta)
            return np.where(u <= t_hit, before, after)
        before = relax(u, x0, params.theta, delta / params.theta)
        after = relax(np.maximum(u - t_hit, 0.0), 0.0, params.gamma, delta / params.gamma)
        return np.where(u <= t_hit, before, after)

    out = at(t)
    return float(out) if np.ndim(t) == 0 else out


def fluid_closed_form_path(params: QueueParams, x0: float, step: float, horizon: float) -> FluidPath:
    """Closed form sampled on the uniform grid 0, step, ..., horizon."""
    if not (0.0 < step < math.inf and 0.0 < horizon < math.inf):
        raise DomainError(f"step and horizon must be positive and finite, got {step}, {horizon}")
    t = np.arange(0.0, horizon + 0.5 * step, step)
    return FluidPath(t=t, x=np.asarray(fluid_closed_form(params, x0, t)), hitting_time=zero_hitting_time(params, x0))


def discounted_source_integral(
    params: QueueParams, x0: float, t, const: float, slope: float
) -> float | np.ndarray:
    """Integral over u in [0, t] of e^(-2 theta (t-u)) (const + slope x(u) + theta |x(u)|).

    x is the fluid path from x0, which for theta == gamma is L + (x0 - L)
    e^(-theta u) with L = (alpha - beta)/theta.  It keeps one sign up to its
    zero hitting time and the other after it, so on each of the two pieces
    the integrand is a sum of two exponentials in u; expm1 keeps a piece
    accurate when theta times its length is small.
    """
    if params.theta != params.gamma:
        raise UnsupportedCaseError(
            f"closed form requires theta == gamma, got theta={params.theta}, gamma={params.gamma}"
        )
    theta = params.theta
    limit = (params.alpha - params.beta) / theta
    amp = x0 - limit
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("fluid trajectory is defined for t >= 0 only")
    t_hit = zero_hitting_time(params, x0)
    split = t_arr if t_hit is None else np.minimum(t_arr, t_hit)

    out = np.zeros_like(t_arr)
    for start, end, sign in (
        (0.0, split, np.sign(x0 if x0 != 0.0 else limit)),
        (split, t_arr, np.sign(limit)),
    ):
        # on [start, end]: (const + rate L) e^(-2 theta (t-u)) + rate (x0 - L) e^(-theta (2t-u))
        rate = slope + sign * theta
        width = end - start
        steady = np.exp(-2.0 * theta * (t_arr - end)) * -np.expm1(-2.0 * theta * width) / (2.0 * theta)
        transient = np.exp(-theta * (2.0 * t_arr - end)) * -np.expm1(-theta * width) / theta
        out += (const + rate * limit) * steady + rate * amp * transient
    return float(out) if np.ndim(t) == 0 else out


def _drift(params: QueueParams, x: float) -> float:
    return (params.alpha - params.beta) - params.theta * max(x, 0.0) + params.gamma * max(-x, 0.0)


def _rk4_step(params: QueueParams, x: float, h: float) -> float:
    k1 = _drift(params, x)
    k2 = _drift(params, x + 0.5 * h * k1)
    k3 = _drift(params, x + 0.5 * h * k2)
    k4 = _drift(params, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def fluid_integrate(params: QueueParams, x0: float, step: float, horizon: float) -> FluidPath:
    """RK4 integration of the fluid equation; independent oracle for the closed form.

    The drift has a kink at zero; when a step straddles the sign change the
    crossing is located by bisection on the step size and the integration
    restarts exactly at zero, which keeps the fourth-order accuracy.
    """
    if not (0.0 < step < math.inf and 0.0 < horizon < math.inf):
        raise DomainError(f"step and horizon must be positive and finite, got {step}, {horizon}")
    _check_start(x0)
    if step > 0.01 / max(params.theta, params.gamma) + 1e-15:
        raise DomainError(
            f"step {step} too coarse; require step <= 0.01/max(theta, gamma)"
        )
    t_grid = np.arange(0.0, horizon + 0.5 * step, step)
    xs = np.empty_like(t_grid)
    xs[0] = x0
    x = x0
    hitting = None
    for k in range(1, len(t_grid)):
        x_new = _rk4_step(params, x, step)
        if x != 0.0 and x * x_new < 0.0 and hitting is None:
            # bisect the substep length at which the path reaches zero
            lo, hi = 0.0, step
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if x * _rk4_step(params, x, mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            h_cross = 0.5 * (lo + hi)
            hitting = t_grid[k - 1] + h_cross
            x_new = _rk4_step(params, 0.0, step - h_cross)
        x = x_new
        xs[k] = x
    return FluidPath(t=t_grid, x=xs, hitting_time=hitting)

"""Fluid (law-of-large-numbers) limit of the scaled queue length.

The limit solves x' = (alpha - beta) - theta x^+ + gamma x^-.  Trajectories
are piecewise exponential: a path starting on the "wrong" side of zero decays
at the opposite side's rate until it hits zero at an explicit time, then
relaxes toward the fixed point.  Both the closed form and an independent RK4
integrator are provided so they can cross-check each other; the integrator
takes one call per step to a plain-float RK4 step whose stages each write
out the drift of the side of zero they are on, reading the rates once per
path and building the sampled path's array once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, equal_rates, euler_step, finite, positive, times
from .params import QueueParams

__all__ = [
    "MAX_GRID_POINTS",
    "FluidPath",
    "fluid_limit",
    "zero_hitting_time",
    "fluid_closed_form",
    "fluid_closed_form_path",
    "discounted_source_integral",
    "fluid_integrate",
]

# Points of a sampled path or of a psi density grid: 80 MB per array, and 10^7 RK4 steps of Python
MAX_GRID_POINTS = 10**7


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
    finite(x0, "x0")
    delta = params.alpha - params.beta
    if x0 < 0.0 and delta > 0.0:
        return math.log((delta - params.gamma * x0) / delta) / params.gamma
    if x0 > 0.0 and delta < 0.0:
        return math.log((delta - params.theta * x0) / delta) / params.theta
    return None


def fluid_closed_form(params: QueueParams, x0: float, t) -> float | np.ndarray:
    """Evaluate the piecewise-exponential solution at time(s) t >= 0.

    The path relaxes toward the fixed point of the side of zero it starts on
    (the side of alpha - beta when x0 == 0), at that side's rate; after
    zero_hitting_time it relaxes from 0 at the other side's rate.
    """
    finite(x0, "x0")
    u = times(t)
    delta = params.alpha - params.beta
    sides = [(params.theta, delta / params.theta), (params.gamma, delta / params.gamma)]
    if (x0 if x0 != 0.0 else delta) < 0.0:
        sides.reverse()
    (rate, limit), (rate_after, limit_after) = sides
    out = (x0 - limit) * np.exp(-rate * u) + limit
    t_hit = zero_hitting_time(params, x0)
    if t_hit is not None:
        after = -limit_after * np.exp(-rate_after * np.maximum(u - t_hit, 0.0)) + limit_after
        out = np.where(u <= t_hit, out, after)
    return float(out) if np.ndim(t) == 0 else out


def _time_grid(step: float, horizon: float) -> np.ndarray:
    """The uniform grid 0, step, ..., horizon of a path, for a checked step; at most MAX_GRID_POINTS points."""
    positive(horizon, "horizon")
    if (horizon + 0.5 * step) / step > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"a grid of step {step:g} up to horizon {horizon:g} would pass the cap of {MAX_GRID_POINTS} points"
        )
    return np.arange(0.0, horizon + 0.5 * step, step)


def fluid_closed_form_path(params: QueueParams, x0: float, step: float, horizon: float) -> FluidPath:
    """Closed form sampled on the uniform grid 0, step, ..., horizon."""
    positive(step, "step")
    t = _time_grid(step, horizon)
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
    equal_rates(params.theta, params.gamma, "the discounted source integral")
    finite(x0, "x0")
    finite(const, "const")
    finite(slope, "slope")
    theta = params.theta
    limit = (params.alpha - params.beta) / theta
    amp = x0 - limit
    t_arr = times(t)
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


def _rk4_step(delta: float, theta: float, gamma: float, x: float, h: float) -> float:
    """One RK4 step of x' = delta - theta x^+ + gamma x^- on plain floats, the drift written out per stage.

    Each stage evaluates only the side of zero its point is on.  The other side would add a zero, which leaves any
    value but -0.0 as it is, so the stages have the bits of the full drift delta - theta x^+ + gamma x^- whenever
    delta is not -0.0; delta = alpha - beta never is.
    """
    k1 = delta - theta * x if x > 0.0 else delta + gamma * -x
    y = x + 0.5 * h * k1
    k2 = delta - theta * y if y > 0.0 else delta + gamma * -y
    y = x + 0.5 * h * k2
    k3 = delta - theta * y if y > 0.0 else delta + gamma * -y
    y = x + h * k3
    k4 = delta - theta * y if y > 0.0 else delta + gamma * -y
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def fluid_integrate(params: QueueParams, x0: float, step: float, horizon: float) -> FluidPath:
    """RK4 integration of the fluid equation; independent oracle for the closed form.

    The drift has a kink at zero; when a step straddles the sign change the
    crossing is located by bisection on the step size and the integration
    restarts exactly at zero, which keeps the fourth-order accuracy.  Both
    tests compare signs, not the product of two values, which underflows to
    zero next to a subnormal start.  The hitting time is a Python float, as
    in fluid_closed_form_path.
    """
    delta, theta, gamma = params.alpha - params.beta, params.theta, params.gamma
    euler_step(step, theta, gamma)
    finite(x0, "x0")
    t_grid = _time_grid(step, horizon)
    xs = [x0]
    x = x0
    hitting = None
    for k in range(1, len(t_grid)):
        x_new = _rk4_step(delta, theta, gamma, x, step)
        if hitting is None and (x_new < 0.0 < x or x < 0.0 < x_new):
            # bisect the substep length at which the path reaches zero
            lo, hi = 0.0, step
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                y = _rk4_step(delta, theta, gamma, x, mid)
                if (y > 0.0) if x > 0.0 else (y < 0.0):
                    lo = mid
                else:
                    hi = mid
            h_cross = 0.5 * (lo + hi)
            hitting = float(t_grid[k - 1]) + h_cross
            x_new = _rk4_step(delta, theta, gamma, 0.0, step - h_cross)
        x = x_new
        xs.append(x)
    return FluidPath(t=t_grid, x=np.array(xs, dtype=float), hitting_time=hitting)

"""Exact analysis of the Poisson-arrival double-ended queue.

With Poisson arrivals the signed queue length is a birth-death chain on the
integers: birth rate alpha + i^- gamma, death rate beta + i^+ theta.  This
module computes its stationary distribution (in log space, with controlled
truncation), the closed-form limiting moments built from incomplete gamma
functions, transient moments of the truncated master equation by
uniformization (one Poisson series serves every output time, with an
a-priori bound on the dropped tail), and the closed-form second-moment lower
bound available when theta == gamma, an elementary integral along the fluid
path (fluid.discounted_source_integral).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy

from .errors import (
    DomainError,
    NumericalOverflowError,
    ResourceLimitError,
    TruncationError,
)
from .fluid import discounted_source_integral
from .numerics import log_regularized_lower_gamma
from .params import QueueParams

__all__ = [
    "StationaryPmf",
    "GammaMomentSummary",
    "TransientMoments",
    "AsymptoticApproximations",
    "stationary_distribution",
    "gamma_moment_summary",
    "poisson_moment_estimates",
    "transient_moments",
    "second_moment_lower_bound",
    "limiting_expectation",
    "asymptotic_moment_approximations",
]

_HARD_SUPPORT_CAP = 10**6
# The transient solver grows its box when boundary mass exceeds the leak
# tolerance.  Each uniformization step costs O(box) and the number of steps
# grows with the largest out-rate, which is proportional to the box, so the
# work grows quadratically with the box; past this size it is impractical.
# The series buffer holds _SERIES_ROWS rows of 2 * bound + 3 doubles, whatever
# the number of grid times: at the cap 64 * 131075 * 8 B, about 67 MB.
_TRANSIENT_SUPPORT_CAP = 2**16
# Poisson upper-tail mass at which the uniformization series is cut, at the
# last grid time; every earlier time's tail at that cut is smaller.
_SERIES_TAIL_TOL = 1e-14
# Rows of the series buffer, the iterates held at once.  A step writes one row
# from the one before through fixed views, five ufunc calls and no
# temporaries; each full buffer has its edge masses read once and is reduced
# to six moment sums per row by one (rows x box) @ (box x 6) product.
_SERIES_ROWS = 64


@dataclass(frozen=True)
class StationaryPmf:
    """Stationary pmf of the chain, truncated to [-support_bound, support_bound].

    probs[k] is the probability of state states[k]; the neglected tail is at
    most tail_mass_bound.  boundary_ratio_pos/neg are the one-step weight
    ratios just outside the box (both < 1), which bound how fast the true
    tail decays.
    """

    support_bound: int
    probs: np.ndarray
    tail_mass_bound: float
    boundary_ratio_pos: float
    boundary_ratio_neg: float

    @property
    def states(self) -> np.ndarray:
        return np.arange(-self.support_bound, self.support_bound + 1)

    def prob(self, i: int) -> float:
        if abs(i) > self.support_bound:
            return 0.0
        return float(self.probs[i + self.support_bound])

    def mean(self) -> float:
        return float(np.dot(self.states, self.probs))

    def second_moment(self) -> float:
        return float(np.dot(self.states.astype(float) ** 2, self.probs))


def _log_weights(params: QueueParams, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized log pi_i relative to pi_0 for i = 1..bound and i = -1..-bound."""
    j = np.arange(1, bound + 1, dtype=float)
    log_pos = np.cumsum(math.log(params.alpha) - np.log(params.beta + j * params.theta))
    log_neg = np.cumsum(math.log(params.beta) - np.log(params.alpha + j * params.gamma))
    return log_pos, log_neg


def stationary_distribution(params: QueueParams, tail_tol: float = 1e-12) -> StationaryPmf:
    """Stationary distribution of the birth-death chain, normalized over a box.

    The support bound grows geometrically until the one-step weight ratios at
    the boundary drop below 1/2 and the geometric tail bound is below
    tail_tol; products are accumulated as log sums so large alpha/theta
    ratios cannot overflow.
    """
    if not (0.0 < tail_tol <= 1e-3):
        raise DomainError(f"tail_tol must lie in (0, 1e-3], got {tail_tol}")

    bound = 16
    while True:
        log_pos, log_neg = _log_weights(params, bound)
        r_pos = params.alpha / (params.beta + (bound + 1) * params.theta)
        r_neg = params.beta / (params.alpha + (bound + 1) * params.gamma)
        if r_pos < 0.5 and r_neg < 0.5:
            all_logs = np.concatenate((log_neg[::-1], [0.0], log_pos))
            shift = all_logs.max()
            weights = np.exp(all_logs - shift)
            total = weights.sum()
            tail = (
                weights[-1] * r_pos / (1.0 - r_pos)
                + weights[0] * r_neg / (1.0 - r_neg)
            )
            if tail / total < tail_tol:
                return StationaryPmf(
                    support_bound=bound,
                    probs=weights / total,
                    tail_mass_bound=tail / total,
                    boundary_ratio_pos=r_pos,
                    boundary_ratio_neg=r_neg,
                )
        if bound >= _HARD_SUPPORT_CAP:
            raise ResourceLimitError(
                f"tail tolerance {tail_tol} unreachable within support bound {_HARD_SUPPORT_CAP}"
            )
        bound = min(2 * bound, _HARD_SUPPORT_CAP)


@dataclass(frozen=True)
class GammaMomentSummary:
    """Limiting moment pieces of the chain in incomplete-gamma closed form.

    p1 and p2 are the total weights of the positive and negative half-lines
    relative to state 0, pi0 = 1/(1 + p1 + p2), and m/s are the limiting
    first and second moments of the positive and negative parts.
    """

    p1: float
    p2: float
    pi0: float
    m_plus: float
    m_minus: float
    s_plus: float
    s_minus: float

    @property
    def first_moment(self) -> float:
        return self.m_plus - self.m_minus

    @property
    def second_moment(self) -> float:
        return self.s_plus + self.s_minus


def _half_line_weight(rate_ratio: float, tail_ratio: float) -> float:
    """exp(log of rate_ratio * e^y * y^(-t) * gamma_lower(t, y)) - 1.

    rate_ratio = t is the reneging-normalized opposite arrival rate and
    tail_ratio = y the own one; assembled in log space because e^y alone
    overflows for y beyond ~700.
    """
    t = rate_ratio
    y = tail_ratio
    log_term = (
        math.log(t) + y - t * math.log(y) + math.lgamma(t)
        + log_regularized_lower_gamma(t, y)
    )
    if log_term > 700.0:
        raise NumericalOverflowError(
            f"half-line weight overflows for rate ratio {t:g} at {y:g}; "
            "the reneging rate is too small relative to the arrival rates"
        )
    return max(math.expm1(log_term), 0.0)


def gamma_moment_summary(params: QueueParams) -> GammaMomentSummary:
    """Closed-form limiting moments via gamma and incomplete gamma functions."""
    alpha, beta, theta, gamma = params.alpha, params.beta, params.theta, params.gamma
    p1 = _half_line_weight(beta / theta, alpha / theta)
    p2 = _half_line_weight(alpha / gamma, beta / gamma)
    pi0 = 1.0 / (1.0 + p1 + p2)
    m_plus = ((alpha - beta) / theta * p1 + alpha / theta) * pi0
    m_minus = ((beta - alpha) / gamma * p2 + beta / gamma) * pi0
    s_plus = (alpha - beta) / theta * m_plus + alpha / theta * (p1 + 1.0) * pi0
    s_minus = (beta - alpha) / gamma * m_minus + beta / gamma * (p2 + 1.0) * pi0
    return GammaMomentSummary(p1, p2, pi0, m_plus, m_minus, s_plus, s_minus)


def poisson_moment_estimates(params: QueueParams) -> tuple[float, float]:
    """(L1, L2): limiting mean and second moment of the Poisson-arrival chain."""
    summary = gamma_moment_summary(params)
    return summary.first_moment, summary.second_moment


@dataclass(frozen=True)
class TransientMoments:
    """Moment curves of the chain on a time grid, from the truncated master equation.

    One uniformization series serves every grid time.  max_boundary_mass is
    the largest edge-state mass over its iterates up to the last time's cut,
    and bounds the probability of either edge state of the box at every
    time in [0, t[-1]], not only on the grid, up to series_tail_mass.
    series_tail_mass is the Poisson tail dropped at the last grid time, the
    largest of the grid times' tails, an l1 bound on the error that cutting
    the series adds to the pmf at any grid point.  series_terms counts the
    matrix-vector steps of the series, summed over every box tried.
    """

    t: np.ndarray
    m: np.ndarray
    s: np.ndarray
    m_plus: np.ndarray
    m_minus: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    support_bound: int
    max_boundary_mass: float
    series_tail_mass: float
    series_terms: int


def _state_index(state) -> int:
    """A start state as an int: an integer, or a float with no fractional part such as 2.0."""
    if isinstance(state, (float, np.floating)) and float(state).is_integer():
        return int(state)
    try:
        return operator.index(state)
    except TypeError:
        raise DomainError(f"state {state!r} must be an integer") from None


def _initial_items(initial_pmf) -> list[tuple[int, float]]:
    """(state, mass) pairs of the start law, zero masses dropped; all finite, >= 0, summing to 1."""
    if isinstance(initial_pmf, StationaryPmf):
        items = zip(initial_pmf.states.tolist(), initial_pmf.probs.tolist())
    elif isinstance(initial_pmf, Mapping):
        items = initial_pmf.items()
    else:
        raise DomainError("initial_pmf must be a StationaryPmf or a mapping state -> probability")
    items = [(_state_index(state), mass) for state, mass in items]
    total = 0.0
    for state, mass in items:
        if not 0.0 <= mass < math.inf:
            raise DomainError(f"probability {mass} at state {state} must be finite and non-negative")
        total += mass
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"initial pmf must sum to 1, got {total}")
    return [(state, mass) for state, mass in items if mass > 0.0]


def _series_cut(lam: float) -> int:
    """The first K whose Poisson(lam) upper tail is at most _SERIES_TAIL_TOL."""
    first = math.floor(lam)
    width = int(10.0 * math.sqrt(lam)) + 40
    while True:
        ks = np.arange(first, first + width)
        hit = np.flatnonzero(pdtrc(ks, lam) <= _SERIES_TAIL_TOL)
        if hit.size:
            return int(ks[hit[0]])
        first += width


def _uniformize(params: QueueParams, items: list[tuple[int, float]], t_grid: np.ndarray, bound: int):
    """Uniformization of the forward equations over [-bound, bound], one series for every time.

    With rate the largest out-rate in the box, P = I + Q/rate is a
    nonnegative tridiagonal stochastic step and p(t) = sum_k Pois(rate*t; k)
    p0 P^k.  The iterates p0 P^k, k = 0..K, are computed once, K the cut of
    the last time, into a buffer of _SERIES_ROWS zero-padded rows, and each
    full buffer is added into the moments of every grid time.  The Poisson
    weights are built in log space relative to each time's mode, because
    e^-lam underflows past lam ~ 745, and each time's weights are rescaled
    at the end to sum to 1 minus its own tail (at most the last time's),
    which removes the rounding that the large, nearly cancelling log terms
    leave in their total.  Returns the (time, 6) moment records (m, s, m+, m-, s+, s-),
    the largest edge mass over every iterate, the last time's dropped tail
    and the number K of matrix-vector steps.
    """
    states = np.arange(-bound, bound + 1, dtype=float)
    birth = params.alpha + np.maximum(-states, 0.0) * params.gamma
    death = params.beta + np.maximum(states, 0.0) * params.theta
    birth[-1] = 0.0  # transitions leaving the box are dropped
    death[0] = 0.0
    loss = birth + death
    rate = float(loss.max())
    stay = 1.0 - loss / rate
    # inflow from the left and right neighbours; the zero pads of each row
    # stand in for the states outside the box
    up = np.concatenate(([0.0], birth[:-1] / rate))
    down = np.concatenate((death[1:] / rate, [0.0]))
    sq = states**2
    functionals = np.stack(
        (states, sq, np.maximum(states, 0.0), np.maximum(-states, 0.0), sq * (states > 0), sq * (states < 0)),
        axis=1,
    )

    n_terms = _series_cut(rate * t_grid[-1])
    lam = rate * t_grid[:, None]
    mode = np.floor(lam)
    log_mode = xlogy(mode, lam) - gammaln(mode + 1.0)
    moments = np.zeros((t_grid.size, 6))
    sums = np.zeros((t_grid.size, 1))

    buf = np.zeros((_SERIES_ROWS, 2 * bound + 3))
    for state, mass in items:
        buf[0, state + bound + 1] += mass
    mid = [row[1:-1] for row in buf]
    left = [row[:-2] for row in buf]
    right = [row[2:] for row in buf]
    scratch = np.empty(2 * bound + 1)

    def advance(src: int, dst: int) -> None:
        np.multiply(stay, mid[src], out=mid[dst])
        np.multiply(up, left[src], out=scratch)
        mid[dst] += scratch
        np.multiply(down, right[src], out=scratch)
        mid[dst] += scratch

    max_edge = 0.0
    for first in range(0, n_terms + 1, _SERIES_ROWS):
        rows = min(_SERIES_ROWS, n_terms + 1 - first)
        if first:
            advance(_SERIES_ROWS - 1, 0)
        for r in range(rows - 1):
            advance(r, r + 1)
        block = buf[:rows]
        max_edge = max(max_edge, float(block[:, 1].max()), float(block[:, -2].max()))
        block_moments = block[:, 1:-1] @ functionals
        k = np.arange(first, first + rows, dtype=float)
        log_fact = gammaln(k + 1.0)
        # a block of times at a time keeps the weights at most rows x rows
        for lo in range(0, t_grid.size, _SERIES_ROWS):
            part = slice(lo, lo + _SERIES_ROWS)
            weights = np.exp(xlogy(k, lam[part]) - log_fact - log_mode[part])
            moments[part] += weights @ block_moments
            sums[part] += weights.sum(axis=1, keepdims=True)
    tails = pdtrc(n_terms, lam)
    moments *= (1.0 - tails) / sums
    return moments, max_edge, float(tails[-1, 0]), n_terms


def _master_moments(params: QueueParams, items: list[tuple[int, float]], t_grid: np.ndarray, bound: int):
    """The moment records, the largest edge mass and the dropped tail of _uniformize."""
    return _uniformize(params, items, t_grid, bound)[:3]


def transient_moments(
    params: QueueParams,
    initial_pmf,
    t_grid: Iterable[float],
    leak_tol: float = 1e-8,
) -> TransientMoments:
    """Transient moment curves m, s, m+, m-, s+, s- on t_grid.

    Solves the forward equations on a reflecting box [-b, b] by
    uniformization: one Poisson series from the start law serves every grid
    time, cut where the last time's tail mass falls below 1e-14, and that
    tail is reported as series_tail_mass.  max_boundary_mass is the largest
    edge-state mass over every term of the series, which bounds the edge
    mass over continuous time.  Start states must be integers (integral
    floats such as 2.0 pass).  The first box covers the start law's
    positive-mass states plus the stationary support plus 16; while the edge
    mass exceeds leak_tol the box is doubled and the solution retried.  A
    box that would pass _TRANSIENT_SUPPORT_CAP raises ResourceLimitError if
    it is the first one and TruncationError otherwise.
    """
    try:
        t_grid = np.asarray(list(t_grid), dtype=float)
    except TypeError:
        raise DomainError(f"t_grid must be a sequence of times, got {t_grid!r}") from None
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise DomainError("t_grid must be a non-empty sequence of times")
    if not np.all(np.isfinite(t_grid)):
        raise DomainError("t_grid must be finite")
    if np.any(np.diff(t_grid) <= 0.0) or t_grid[0] < 0.0:
        raise DomainError("t_grid must be non-negative and strictly increasing")
    items = _initial_items(initial_pmf)
    extent = max(abs(state) for state, _ in items)
    bound = extent + stationary_distribution(params, 1e-10).support_bound + 16
    if bound > _TRANSIENT_SUPPORT_CAP:
        raise ResourceLimitError(
            f"the first box [-{bound}, {bound}] exceeds the transient support cap {_TRANSIENT_SUPPORT_CAP}"
        )
    series_terms = 0
    while True:
        records, max_edge, series_tail, n_terms = _uniformize(params, items, t_grid, bound)
        series_terms += n_terms
        if max_edge <= leak_tol:
            break
        if 2 * bound > _TRANSIENT_SUPPORT_CAP:
            raise TruncationError(
                f"boundary mass {max_edge:.3e} exceeds {leak_tol:.1e} on the box [-{bound}, {bound}], "
                f"and doubling it would pass the transient support cap {_TRANSIENT_SUPPORT_CAP}"
            )
        bound *= 2
    return TransientMoments(
        t=t_grid,
        m=records[:, 0],
        s=records[:, 1],
        m_plus=records[:, 2],
        m_minus=records[:, 3],
        s_plus=records[:, 4],
        s_minus=records[:, 5],
        support_bound=bound,
        max_boundary_mass=max_edge,
        series_tail_mass=series_tail,
        series_terms=series_terms,
    )


def second_moment_lower_bound(params: QueueParams, m0: float, s0: float, t) -> float | np.ndarray:
    """Closed-form lower bound on the second moment at time t (theta == gamma only).

    Solves the surrogate ODE obtained by replacing m+(t) + m-(t) with |m(t)|
    in the second-moment equation; the replacement only lowers the source
    term, so the solution bounds s(t) from below and converges to
    ((alpha-beta)/theta)^2 + max(alpha, beta)/theta.  m(t) is the fluid path
    from m0, and the source is alpha + beta + 2 (alpha-beta) m + theta |m|.
    """
    if not 0.0 <= s0 < math.inf:
        raise DomainError(f"initial second moment s0 must be finite and >= 0, got {s0}")
    # no law has s0 < m0^2; the allowance covers roundoff when both come from a pmf
    if s0 < m0 * m0 * (1.0 - 1e-9):
        raise DomainError(f"initial second moment s0={s0} lies below m0**2 = {m0 * m0} (m0={m0})")
    source = discounted_source_integral(
        params, m0, t, params.alpha + params.beta, 2.0 * (params.alpha - params.beta)
    )
    out = s0 * np.exp(-2.0 * params.theta * np.asarray(t, dtype=float)) + source
    return float(out) if np.ndim(t) == 0 else out


def limiting_expectation(f: Callable[[int], float], pmf: StationaryPmf) -> tuple[float, float]:
    """(sum of f(i) pi_i over the truncated support, bound on the neglected tail).

    The tail bound extends the boundary masses geometrically with the
    boundary ratios, evaluating f exactly on the extension; it is finite
    whenever f grows slower than the tail decays.
    """
    states = pmf.states
    value = float(sum(f(int(i)) * p for i, p in zip(states, pmf.probs)))

    bound = 0.0
    scale = max(1.0, abs(value))
    for edge_state, ratio, step in (
        (pmf.support_bound, pmf.boundary_ratio_pos, 1),
        (-pmf.support_bound, pmf.boundary_ratio_neg, -1),
    ):
        mass = pmf.prob(edge_state)
        state = edge_state
        for _ in range(10_000):
            mass *= ratio
            state += step
            term = mass * abs(f(state))
            bound += term
            if term < 1e-18 * scale:
                break
        else:
            bound = math.inf
    return value, bound


@dataclass(frozen=True)
class AsymptoticApproximations:
    """Closed-form moment approximations valid when reneging is slow."""

    mean: float
    second: float
    variance: float


def asymptotic_moment_approximations(params: QueueParams) -> AsymptoticApproximations:
    """Slow-reneging approximations for the limiting mean, second moment, variance.

    These are heuristics with no stated error bound; report them next to the
    exact gamma-based values rather than in place of them.
    """
    delta = params.alpha - params.beta
    mean = delta / params.theta if params.alpha >= params.beta else delta / params.gamma
    second = (delta / params.theta) ** 2 + max(params.alpha, params.beta) / params.theta
    variance = max(params.alpha, params.beta) / params.theta
    return AsymptoticApproximations(mean, second, variance)

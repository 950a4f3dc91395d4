"""Exact analysis of the Poisson-arrival double-ended queue.

With Poisson arrivals the signed queue length is a birth-death chain on the
integers: birth rate alpha + i^- gamma, death rate beta + i^+ theta.  This
module computes its stationary distribution (in log space, with controlled
truncation), the limiting moments summed over that pmf (the series of the
paper's incomplete-gamma closed forms are these sums), transient moments of
the truncated master equation by uniformization (one Poisson series serves
every output time, with an a-priori bound on the dropped tail, on a box sized
once from a coupling bound), and the closed-form second-moment lower bound
available when theta == gamma, an elementary integral along the fluid path
(fluid.discounted_source_integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DomainError,
    NumericalOverflowError,
    ResourceLimitError,
    TruncationError,
    non_negative,
    positive,
    start_moments,
    times,
    whole_number,
)
from .fluid import discounted_source_integral
from .numerics import LatticeLaw
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
# Tail tolerance of the pmf that gamma_moment_summary sums, far below double
# rounding since the second moment weighs the cut tail by i^2.
_SUMMARY_TAIL_TOL = 1e-18
# Largest half-width of the transient solver's box.  A uniformization step
# costs O(box) and the steps grow with the rate, which grows with the box, so
# past this size the work is impractical.  The series buffer holds
# _SERIES_ROWS rows of 2 * bound + 3 doubles: at the cap about 67 MB.
_TRANSIENT_SUPPORT_CAP = 2**16
# Largest rate*t at the last grid time, about the series' step count K: the
# tests and the benchmark reach K = 2 079, and past 10^6 steps a series takes
# seconds even on the smallest box.  The series keeps six moment sums a step,
# 48 MB at the cap.
_SERIES_RATE_TIME_CAP = 1e6
# Poisson upper-tail mass at which the uniformization series is cut, at the
# last grid time; every earlier time's tail at that cut is smaller.
_SERIES_TAIL_TOL = 1e-14
# Rows of the series buffer, the iterates held at once.  A step writes one row
# from the one before through fixed views, five ufunc calls and no
# temporaries; each full buffer has its edge masses read once and is reduced
# to six moment sums per row by one (rows x box) @ (box x 6) product.
_SERIES_ROWS = 64


@dataclass(frozen=True)
class StationaryPmf(LatticeLaw):
    """Stationary pmf of the chain, truncated to [-support_bound, support_bound], with no overflow and scale 1.

    The neglected tail is at most tail_mass_bound.  boundary_ratio_pos/neg are the one-step weight ratios just
    outside the box (both < 1), which bound how fast the true tail decays.
    """

    tail_mass_bound: float
    boundary_ratio_pos: float
    boundary_ratio_neg: float

    @property
    def support_bound(self) -> int:
        return self.bound


def _log_weights(params: QueueParams, bound: int) -> np.ndarray:
    """Unnormalized log pi_i relative to pi_0 for i = -bound..bound, in one array.

    The positive half is built in place; the negative half is built outward from 0 in the scratch array that first
    holds j = 1..bound, then mirrored into place."""
    logs = np.empty(2 * bound + 1)
    logs[bound] = 0.0
    j = np.arange(1, bound + 1, dtype=float)
    for half, birth, death, rate in (
        (logs[bound + 1:], params.alpha, params.beta, params.theta),
        (j, params.beta, params.alpha, params.gamma),
    ):
        np.multiply(j, rate, out=half)
        half += death
        np.log(half, out=half)
        np.subtract(math.log(birth), half, out=half)
        np.cumsum(half, out=half)
    logs[:bound] = j[::-1]
    return logs


def stationary_distribution(params: QueueParams, tail_tol: float = 1e-12) -> StationaryPmf:
    """Stationary distribution of the birth-death chain, normalized over a box.

    The support bound doubles from 16 until the one-step weight ratios r just
    outside the box are below 1 and the geometric tail bound w r/(1 - r) of
    each edge weight w is below tail_tol; the ratios fall with the distance
    from 0, so the bound holds for any r < 1.  Only a rung whose two ratios
    are below 1 builds weights: as log sums, so large alpha/theta ratios
    cannot overflow, in one array of 2 b + 1 values that is shifted,
    exponentiated and normalized in place into probs.  A call holds at most
    that array and one scratch array of b values.
    """
    if not (0.0 < tail_tol <= 1e-3):
        raise DomainError(f"tail_tol must lie in (0, 1e-3], got {tail_tol}")

    bound = 16
    while True:
        r_pos = params.alpha / (params.beta + (bound + 1) * params.theta)
        r_neg = params.beta / (params.alpha + (bound + 1) * params.gamma)
        if r_pos < 1.0 and r_neg < 1.0:
            weights = _log_weights(params, bound)
            weights -= weights.max()
            np.exp(weights, out=weights)
            total = weights.sum()
            tail = (
                weights[-1] * r_pos / (1.0 - r_pos)
                + weights[0] * r_neg / (1.0 - r_neg)
            )
            if tail / total < tail_tol:
                weights /= total
                return StationaryPmf(
                    bound=bound,
                    probs=weights,
                    overflow=0.0,
                    scale=1.0,
                    tail_mass_bound=tail / total,
                    boundary_ratio_pos=r_pos,
                    boundary_ratio_neg=r_neg,
                )
        if bound >= _HARD_SUPPORT_CAP:
            raise ResourceLimitError(
                f"the stationary law needs more than {_HARD_SUPPORT_CAP} states a side at alpha={params.alpha:g}, "
                f"beta={params.beta:g}, theta={params.theta:g}, gamma={params.gamma:g}"
            )
        bound = min(2 * bound, _HARD_SUPPORT_CAP)


@dataclass(frozen=True)
class GammaMomentSummary:
    """Limiting moment pieces of the chain, summed over its stationary pmf.

    p1 and p2 are the total weights of the positive and negative half-lines
    relative to state 0 (the series of the paper's incomplete-gamma closed
    forms), pi0 = 1/(1 + p1 + p2), and m/s are the limiting first and second
    moments of the positive and negative parts.  tail_mass_bound bounds the
    pmf's mass outside the box the sums run over.
    """

    p1: float
    p2: float
    pi0: float
    m_plus: float
    m_minus: float
    s_plus: float
    s_minus: float
    tail_mass_bound: float

    @property
    def first_moment(self) -> float:
        return self.m_plus - self.m_minus

    @property
    def second_moment(self) -> float:
        return self.s_plus + self.s_minus


def gamma_moment_summary(params: QueueParams) -> GammaMomentSummary:
    """Limiting moments from the stationary pmf, its half_moments on each side.

    A symmetric chain gives bit-equal halves and a first moment of exactly 0.
    A half-line weight 1 + p above e^700 raises NumericalOverflowError naming
    its rate ratio.
    """
    alpha, beta, theta, gamma = params.alpha, params.beta, params.theta, params.gamma
    pmf = stationary_distribution(params, _SUMMARY_TAIL_TOL)
    pi0 = pmf.prob(0)
    (mass_plus, m_plus, s_plus), (mass_minus, m_minus, s_minus) = pmf.half_moments()
    for mass, rate_ratio, tail_ratio in (
        (mass_plus, beta / theta, alpha / theta),
        (mass_minus, alpha / gamma, beta / gamma),
    ):
        if mass > pi0 * math.expm1(700.0):
            raise NumericalOverflowError(
                f"half-line weight overflows for rate ratio {rate_ratio:g} at {tail_ratio:g}; "
                "the reneging rate is too small relative to the arrival rates"
            )
    return GammaMomentSummary(
        mass_plus / pi0, mass_minus / pi0, pi0, m_plus, m_minus, s_plus, s_minus, pmf.tail_mass_bound
    )


def poisson_moment_estimates(params: QueueParams) -> tuple[float, float]:
    """(L1, L2): limiting mean and second moment of the Poisson-arrival chain."""
    summary = gamma_moment_summary(params)
    return summary.first_moment, summary.second_moment


@dataclass(frozen=True)
class TransientMoments:
    """Moment curves of the chain on a time grid, from the truncated master equation.

    One uniformization series on the one box [-support_bound, support_bound] serves every grid time.
    max_boundary_mass is the largest edge-state mass over its iterates up to the last time's cut, and bounds
    the probability of either edge state at every time in [0, t[-1]], not only on the grid, up to
    series_tail_mass.  series_tail_mass is the Poisson tail dropped at the last grid time, the largest of the
    grid times' tails, an l1 bound on the error that cutting the series adds to the pmf at any grid point.
    series_terms counts the matrix-vector steps run.
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


def _initial_items(initial_pmf) -> list[tuple[int, float]]:
    """(state, mass) pairs of the start law, zero masses dropped; all finite, >= 0, summing to 1.

    A StationaryPmf is checked by array operations, a mapping pair by pair, with the same errors."""
    if isinstance(initial_pmf, StationaryPmf):
        states, masses = initial_pmf.states, np.asarray(initial_pmf.probs, dtype=float)
        for k in np.flatnonzero(~((masses >= 0.0) & (masses < math.inf)))[:1]:
            non_negative(masses[k].item(), f"probability at state {states[k]}")
        total = float(masses.sum())
        items = list(zip(states[masses > 0.0].tolist(), masses[masses > 0.0].tolist()))
    elif isinstance(initial_pmf, Mapping):
        items = [(whole_number(state, "state"), mass) for state, mass in initial_pmf.items()]
        total = sum(non_negative(mass, f"probability at state {state}") for state, mass in items)
        items = [(state, mass) for state, mass in items if mass > 0.0]
    else:
        raise DomainError("initial_pmf must be a StationaryPmf or a mapping state -> probability")
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"initial pmf must sum to 1, got {total}")
    return items


def _poisson_windows(lam: np.ndarray, reach: int = 1) -> tuple[np.ndarray, int, np.ndarray]:
    """(mode, width, weights): row i of weights is the Poisson(lam[i]) pmf on the counts mode[i] + d,
    d = -width .. reach * width, normalised on the row, with 0 at counts below 0.

    mode = floor(lam) and width = int(10 sqrt(max lam)) + 40; the mass left out of a row past mode + width is
    below 1e-22.  The weights relative to the mode are cumulative products of the ratios w(j)/w(j - 1) = lam/j
    out from the mode on each side, which lose no more than a rounding a step and underflow only where they
    are negligible."""
    mode = np.floor(lam)[:, None]
    width = int(10.0 * math.sqrt(lam.max())) + 40
    d = np.arange(1.0, reach * width + 1)
    up = np.cumprod(lam[:, None] / (mode + d), axis=1)
    # below the mode w(j - 1)/w(j) = j/lam, 0 from j = 0 on; a mode of 0 has no count below it, so there
    # lam < 1 may stand in as 1
    down = np.cumprod(np.maximum(mode + 1.0 - d[:width], 0.0) / np.maximum(lam, 1.0)[:, None], axis=1)
    weights = np.concatenate((down[:, ::-1], np.ones_like(mode), up), axis=1)
    return mode[:, 0].astype(int), width, weights / weights.sum(axis=1, keepdims=True)


def _poisson_cut(lam: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """(K, tail, mode, width, weights): K[i] is the first count >= floor(lam[i]) whose Poisson(lam[i]) tail
    P(X > K[i]) is at most tol, tail[i] is that tail, and (mode, width, weights) are the _poisson_windows it
    was read off.

    The tails are each row's cumulative sums from the far end, and K is sought only where the row runs on at
    least its width past it, so the mass beyond the row is negligible against the tail at K."""
    reach = 2
    while True:
        mode, width, weights = _poisson_windows(lam, reach)
        tails = np.cumsum(weights[:, :0:-1], axis=1)[:, ::-1]  # tails[i, k] = P(X_i > mode[i] - width + k)
        passing = tails[:, width: reach * width + 1] <= tol
        if passing.any(axis=1).all():
            first = passing.argmax(axis=1)
            return mode + first, tails[np.arange(lam.size), width + first], mode, width, weights
        reach += 1


def _transient_box(params: QueueParams, items: list[tuple[int, float]], tol: float) -> int:
    """The smallest half-width b whose coupling bound on the edge mass is at most tol (see transient_moments).

    The tails pi(>= j) are summed in log space out to twice S + c, S the start's extent and c the larger of the
    half lines' cuts at tol/4.  The half line of births B, deaths D + y R is log-concave and below Poisson(B/R), and
    when r = B/D < 1 every weight ratio is at most r, so pi(>= d + k)/pi(>= d) is at most P(Poisson(B/R) >= k) and
    r^k; its cut is the smaller k that puts these under tol/4, and the bound at S + c is under tol/2.  The tail
    past the span is bounded geometrically from its first weight ratio rho, at most 1/2 past twice a Poisson cut
    and r past a geometric one; a geometric cut below the Poisson one, itself at most the cap, has 1 - r above
    33/cap, so that tail, at most (tol/4)^2 rho/(1 - rho) of pi(>= d) for a start distance d <= S, moves the bound
    by far less than tol."""
    alpha, beta, theta, gamma, cap = params.alpha, params.beta, params.theta, params.gamma, _TRANSIENT_SUPPORT_CAP
    states = np.array([min(max(state, -cap - 1), cap + 1) for state, _ in items])
    masses = np.array([mass for _, mass in items])
    cut = 0
    poisson_cuts = _poisson_cut(np.minimum([alpha / theta, beta / gamma], cap), tol / 4.0)[0]
    for (birth, death), poisson_cut in zip(((alpha, beta), (beta, alpha)), poisson_cuts.tolist()):
        ratio = birth / death
        geometric = math.ceil((math.log(tol) - math.log(4.0)) / math.log(ratio)) if 0.0 < ratio < 1.0 else math.inf
        cut = max(cut, min(poisson_cut, geometric))
    span = min(2 * (int(np.abs(states).max()) + cut) + 1, cap)
    ratios = (alpha / (beta + (span + 1) * theta), beta / (alpha + (span + 1) * gamma))
    passing = []
    if max(ratios) < 1.0:
        bound = np.zeros(span + 1)
        logs = _log_weights(params, span)
        sides = zip((logs[span + 1:], logs[span - 1::-1]), ratios, (np.maximum(states, 0), np.maximum(-states, 0)))
        for log_w, ratio, dist in sides:
            rest = log_w[-1] + math.log(ratio / (1.0 - ratio))
            log_tail = np.logaddexp.accumulate(np.concatenate(([rest], log_w[::-1], [0.0])))[:0:-1]
            # a start at distance d >= b counts whole, one below b adds its mass times pi(>= b)/pi(>= d)
            mass_at = np.bincount(np.minimum(dist, span + 1), weights=masses)
            bound[: mass_at.size] += np.cumsum(mass_at[::-1])[::-1][: span + 1]
            with np.errstate(divide="ignore"):
                below = np.logaddexp.accumulate(np.log(mass_at[:span]) - log_tail[: min(mass_at.size, span)])
            bound[1:] += np.exp(log_tail[1:] + below[np.minimum(np.arange(span), below.size - 1)])
        passing = np.flatnonzero(bound <= tol)
    if not len(passing):
        raise ResourceLimitError(f"the edge-mass bound is above {tol:.1e} on the box [-{span}, {span}]: the box "
                                 f"needs more than the transient support cap {cap} states a side")
    return int(passing[0])


def _uniformize(params: QueueParams, items: list[tuple[int, float]], t_grid: np.ndarray, bound: int, leak_tol: float):
    """Uniformization of the forward equations over [-bound, bound], one series for every time.

    With rate = alpha + beta + bound max(theta, gamma), P = I + Q/rate is a nonnegative tridiagonal
    stochastic step, monotone on each half, and p(t) = sum_k Pois(rate*t; k) p0 P^k; start states past the box
    are folded onto its edge.  The iterates p0 P^k, k = 0..K, are computed once, K the cut of the last time,
    into a buffer of _SERIES_ROWS zero-padded rows, and each full buffer is reduced to the six moment sums of
    each of its iterates.  Each grid time's moments weigh those sums by its Poisson weights from
    _poisson_windows, at the counts up to K within a width of its mode (the mass further out is below 1e-22).
    Returns the (time, 6) moment records (m, s, m+, m-, s+, s-), the largest edge mass over every iterate, the
    last time's dropped tail and the number K of matrix-vector steps; an edge mass above leak_tol raises
    TruncationError, and a rate*t past _SERIES_RATE_TIME_CAP raises ResourceLimitError before any step.
    """
    states = np.arange(-bound, bound + 1, dtype=float)
    birth = params.alpha + np.maximum(-states, 0.0) * params.gamma
    death = params.beta + np.maximum(states, 0.0) * params.theta
    birth[-1] = 0.0  # transitions leaving the box are dropped
    death[0] = 0.0
    rate = params.alpha + params.beta + bound * max(params.theta, params.gamma)
    if not rate * t_grid[-1] <= _SERIES_RATE_TIME_CAP:
        raise ResourceLimitError(f"the series needs about rate*t = {rate * t_grid[-1]:.3g} steps on the box "
                                 f"[-{bound}, {bound}], past the cap {_SERIES_RATE_TIME_CAP:.0e}")
    stay = 1.0 - (birth + death) / rate
    # inflow from the left and right neighbours; the zero pads of each row
    # stand in for the states outside the box
    up = np.concatenate(([0.0], birth[:-1] / rate))
    down = np.concatenate((death[1:] / rate, [0.0]))
    sq = states**2
    functionals = np.stack(
        (states, sq, np.maximum(states, 0.0), np.maximum(-states, 0.0), sq * (states > 0), sq * (states < 0)),
        axis=1,
    )

    blocks = range(0, t_grid.size, _SERIES_ROWS)
    # the last block of times gives the cut from its last row, and its rows serve its moments after the series
    cuts, tails, *last_block = _poisson_cut(rate * t_grid[blocks[-1]:], _SERIES_TAIL_TOL)
    n_terms, series_tail = int(cuts[-1]), float(tails[-1])
    term_moments = np.empty((n_terms + 1, 6))

    buf = np.zeros((_SERIES_ROWS, 2 * bound + 3))
    for state, mass in items:
        buf[0, min(max(state, -bound), bound) + bound + 1] += mass
    mid, left, right = list(buf[:, 1:-1]), list(buf[:, :-2]), list(buf[:, 2:])
    scratch = np.empty(2 * bound + 1)

    max_edge = 0.0
    for k in range(n_terms + 1):
        row = k % _SERIES_ROWS
        if k:
            # term k from term k - 1 in row - 1, which is the last row when row is 0
            np.multiply(stay, mid[row - 1], out=mid[row])
            np.multiply(up, left[row - 1], out=scratch)
            mid[row] += scratch
            np.multiply(down, right[row - 1], out=scratch)
            mid[row] += scratch
        if row == _SERIES_ROWS - 1 or k == n_terms:
            block = buf[:row + 1]
            max_edge = max(max_edge, float(block[:, 1].max()), float(block[:, -2].max()))
            np.matmul(block[:, 1:-1], functionals, out=term_moments[k - row:k + 1])
    if max_edge > leak_tol:
        raise TruncationError(f"boundary mass {max_edge:.3e} exceeds leak_tol {leak_tol:.1e} "
                              f"on the box [-{bound}, {bound}]")
    moments = np.empty((t_grid.size, 6))
    # a block of times at a time keeps the weights at most rows x (3 width + 1)
    for lo in blocks:
        mode, width, weights = last_block if lo == blocks[-1] else _poisson_windows(rate * t_grid[lo:lo + _SERIES_ROWS])
        for row, m, w in zip(moments[lo:], mode, weights):
            first, stop = max(m - width, 0), min(m + width, n_terms) + 1
            row[:] = w[first - m + width: stop - m + width] @ term_moments[first:stop]
    return moments, max_edge, series_tail, n_terms


def transient_moments(
    params: QueueParams,
    initial_pmf,
    t_grid: Iterable[float],
    leak_tol: float = 1e-8,
) -> TransientMoments:
    """Transient moment curves m, s, m+, m-, s+, s- on t_grid.

    Solves the forward equations on a reflecting box [-b, b] by uniformization: one Poisson series from the start
    law serves every grid time, cut where the last time's tail mass, series_tail_mass, falls below 1e-14.  Start
    states must be integers (integral floats such as 2.0 pass).

    b is chosen once, from a coupling bound.  X+ is dominated pathwise by the chain's positive half reflected at 0,
    a monotone reversible birth-death chain (births alpha, deaths beta + y theta) with stationary law pi on y >= 0.
    Started at s+ it stays below the copy started from pi conditioned on y >= s+, whose density against pi never
    rises above 1/pi(>= s+), so its mass at or above b, at any time or uniformized step, is at most pi(>= b)/pi(>= s+);
    the steps stay monotone at the top of the box since the uniformization rate is alpha + beta + b max(theta, gamma).
    The negative side gives pi(<= -b)/pi(<= -s-).  b is the smallest half-width at which the start law's sum of
    m_s min(1, ratio) over both sides is at most min(leak_tol, 1e-14); start states past b are folded onto the edge,
    inside the bound.  A b past _TRANSIENT_SUPPORT_CAP raises ResourceLimitError before anything of its width is
    built, and a series of more than about _SERIES_RATE_TIME_CAP steps before its first step.  max_boundary_mass,
    the measured largest edge mass over every series term, bounds the edge mass over continuous time; above
    leak_tol, which must be finite and > 0, it raises TruncationError naming the box, the mass and leak_tol.
    """
    t_grid = times(list(t_grid) if np.iterable(t_grid) else t_grid, "t_grid")
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise DomainError(f"t_grid must be a non-empty sequence of times, got {t_grid!r}")
    if np.any(np.diff(t_grid) <= 0.0):
        raise DomainError("t_grid must be strictly increasing")
    items = _initial_items(initial_pmf)
    bound = _transient_box(params, items, min(positive(leak_tol, "leak_tol"), _SERIES_TAIL_TOL))
    records, max_edge, series_tail, n_terms = _uniformize(params, items, t_grid, bound, leak_tol)
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
        series_terms=n_terms,
    )


def second_moment_lower_bound(params: QueueParams, m0: float, s0: float, t) -> float | np.ndarray:
    """Closed-form lower bound on the second moment at time t (theta == gamma only).

    Solves the surrogate ODE obtained by replacing m+(t) + m-(t) with |m(t)|
    in the second-moment equation; the replacement only lowers the source
    term, so the solution bounds s(t) from below and converges to
    ((alpha-beta)/theta)^2 + max(alpha, beta)/theta.  m(t) is the fluid path
    from m0, and the source is alpha + beta + 2 (alpha-beta) m + theta |m|.
    """
    start_moments(m0, s0, "m0", "initial second moment s0")
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

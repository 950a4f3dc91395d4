"""Exact discrete-event simulation of the double-ended queue.

Sellers and buyers arrive by independent renewal processes; an arrival on one
side instantly matches a waiting customer of the other side, so the signed
state never holds both.  Patience is exponential, so given X = x the total
abandonment hazard is |x| theta (or |x| gamma) whichever customers wait, and
the law of X does not depend on who they are.  The simulator therefore tracks
the count alone: one abandonment clock Exp(|x| rate), redrawn after every
event, competes with the two arrival clocks (the competing-exponentials step
of Gillespie's direct method).  Replications are reproducible: replication k
of a run with base seed s consumes only the streams (s, 4k..4k+3).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .numerics import InterarrivalModel, RandomStream, sample_exponential, sample_interarrival

__all__ = [
    "Scenario",
    "ScaledTemplate",
    "ReplicationResult",
    "SimulationEstimate",
    "ScaledHistogram",
    "run_replication",
    "estimate",
    "scaled_stationary_histogram",
]

_BLOCK = 4096
_CI_Z90 = 1.6448536269514722  # two-sided 90% normal quantile


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration: arrival models, patience rates, and budget."""

    seller_model: InterarrivalModel
    buyer_model: InterarrivalModel
    theta: float
    gamma: float
    horizon: float
    warmup: float
    replications: int
    initial_state: int = 0
    histogram_bound: int = 1000

    def __post_init__(self):
        if not (self.theta > 0.0 and self.gamma > 0.0):
            raise DomainError("patience rates theta and gamma must be positive")
        if not (0.0 <= self.warmup < self.horizon):
            raise DomainError(f"need 0 <= warmup < horizon, got {self.warmup}, {self.horizon}")
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.histogram_bound < 1:
            raise DomainError("histogram_bound must be >= 1")

    @classmethod
    def for_family(
        cls,
        family: str,
        alpha: float,
        beta: float,
        theta: float,
        gamma: float,
        horizon: float,
        warmup: float,
        replications: int,
        **kwargs,
    ) -> "Scenario":
        return cls(
            seller_model=InterarrivalModel(family, alpha),
            buyer_model=InterarrivalModel(family, beta),
            theta=theta,
            gamma=gamma,
            horizon=horizon,
            warmup=warmup,
            replications=replications,
            **kwargs,
        )


@dataclass(frozen=True)
class ReplicationResult:
    """Time-average occupancy over [warmup, horizon] for one replication.

    probs covers states -bound..bound; occupancy outside is accumulated in
    overflow.  probs.sum() + overflow == 1 up to roundoff.
    """

    bound: int
    probs: np.ndarray
    overflow: float

    @property
    def states(self) -> np.ndarray:
        return np.arange(-self.bound, self.bound + 1)

    def first_moment(self) -> float:
        return float(np.dot(self.states, self.probs))

    def second_moment(self) -> float:
        return float(np.dot(self.states.astype(float) ** 2, self.probs))


def _draws(sample):
    """Python floats from sample(size) calls, in blocks doubling from 64 to _BLOCK.

    Small first blocks keep short replications from drawing variates they
    never read; Python floats keep numpy scalars out of the event loop.
    """
    size = 64
    while True:
        yield from sample(size).tolist()
        size = min(2 * size, _BLOCK)


def run_replication(scenario: Scenario, stream: RandomStream) -> ReplicationResult:
    """Simulate one path over [0, horizon] and return its occupancy histogram.

    The stream is split into four fixed substreams (seller/buyer arrivals,
    seller/buyer patience) so the result is independent of draw interleaving.
    The patience substreams feed the abandonment clock: a draw E ~ Exp(theta)
    while sellers wait (Exp(gamma) while buyers wait) puts the next
    abandonment at now + E/|x|.
    """
    streams = [stream.substream(k) for k in range(4)]
    seller_arrivals = _draws(lambda n: sample_interarrival(scenario.seller_model, streams[0], n))
    buyer_arrivals = _draws(lambda n: sample_interarrival(scenario.buyer_model, streams[1], n))
    seller_patience = _draws(lambda n: sample_exponential(scenario.theta, streams[2], n))
    buyer_patience = _draws(lambda n: sample_exponential(scenario.gamma, streams[3], n))

    tau, horizon = scenario.warmup, scenario.horizon
    bound = scenario.histogram_bound
    hist = [0.0] * (2 * bound + 1)
    overflow = 0.0

    x = int(scenario.initial_state)
    # residual arrival clocks start fresh at time zero
    next_seller = next(seller_arrivals)
    next_buyer = next(buyer_arrivals)

    now = 0.0
    while now < horizon:
        # memoryless patience: a fresh clock after every event has the same law
        if x > 0:
            next_expiry = now + next(seller_patience) / x
        elif x < 0:
            next_expiry = now + next(buyer_patience) / -x
        else:
            next_expiry = math.inf

        # arrivals win ties against expiries; sellers win ties against buyers
        if next_seller <= next_buyer and next_seller <= next_expiry:
            event_time, kind = next_seller, 0
        elif next_buyer <= next_expiry:
            event_time, kind = next_buyer, 1
        else:
            event_time, kind = next_expiry, 2

        segment_end = min(event_time, horizon)
        if segment_end > tau:
            span = segment_end - max(now, tau)
            if span > 0.0:
                if -bound <= x <= bound:
                    hist[x + bound] += span
                else:
                    overflow += span
        if event_time >= horizon:
            break
        now = event_time

        if kind == 0:
            x += 1
            next_seller = now + next(seller_arrivals)
        elif kind == 1:
            x -= 1
            next_buyer = now + next(buyer_arrivals)
        else:
            x = x - 1 if x > 0 else x + 1

    total = horizon - tau
    return ReplicationResult(bound=bound, probs=np.array(hist) / total, overflow=overflow / total)


@dataclass(frozen=True)
class SimulationEstimate:
    """Across-replication estimates of the stationary pmf and its first two moments.

    The moment estimates are the histogram-weighted sums over the in-range
    states; CI half-widths are normal-theory 90% intervals computed from the
    across-replication spread, None when only one replication ran.
    """

    bound: int
    pmf: np.ndarray
    overflow: float
    L1: float
    L2: float
    ci_halfwidth_L1: float | None
    ci_halfwidth_L2: float | None
    replication_count: int
    seed: int
    per_replication_L1: np.ndarray = field(repr=False, default=None)
    per_replication_L2: np.ndarray = field(repr=False, default=None)

    @property
    def states(self) -> np.ndarray:
        return np.arange(-self.bound, self.bound + 1)


def estimate(scenario: Scenario, base_seed: int, stream_base: int = 0) -> SimulationEstimate:
    """Average replication histograms over independent streams and attach CIs.

    stream_base offsets the stream ids so several scenarios can share one
    seed without sharing randomness.  When any time after warmup falls
    outside the histogram box, a RuntimeWarning names the overflow share,
    because L1 and L2 then miss that part of the path.
    """
    hists = []
    l1s = []
    l2s = []
    overflows = []
    for k in range(scenario.replications):
        rep = run_replication(scenario, RandomStream(base_seed, stream_base + 4 * k))
        hists.append(rep.probs)
        overflows.append(rep.overflow)
        l1s.append(rep.first_moment())
        l2s.append(rep.second_moment())
    pmf = np.mean(hists, axis=0)
    states = np.arange(-scenario.histogram_bound, scenario.histogram_bound + 1)
    l1 = float(np.dot(states, pmf))
    l2 = float(np.dot(states.astype(float) ** 2, pmf))
    overflow = float(np.mean(overflows))
    if overflow > 0.0:
        warnings.warn(
            f"overflow share {overflow:.3g}: that share of the time after warmup lies outside "
            f"the histogram box [-{scenario.histogram_bound}, {scenario.histogram_bound}] "
            "and is left out of L1 and L2",
            RuntimeWarning,
            stacklevel=2,
        )
    n = scenario.replications
    if n > 1:
        ci1 = _CI_Z90 * float(np.std(l1s, ddof=1)) / math.sqrt(n)
        ci2 = _CI_Z90 * float(np.std(l2s, ddof=1)) / math.sqrt(n)
    else:
        ci1 = ci2 = None
    return SimulationEstimate(
        bound=scenario.histogram_bound,
        pmf=pmf,
        overflow=overflow,
        L1=l1,
        L2=l2,
        ci_halfwidth_L1=ci1,
        ci_halfwidth_L2=ci2,
        replication_count=n,
        seed=base_seed,
        per_replication_L1=np.array(l1s),
        per_replication_L2=np.array(l2s),
    )


@dataclass(frozen=True)
class ScaledTemplate:
    """Template for the diffusion-scaled pre-limit system.

    The index-n system runs with rates alpha + c/(2 sqrt(n)), beta -
    c/(2 sqrt(n)) and reneging theta/n, gamma/n; horizon and warmup are in
    diffusion time (multiplied by n for the underlying simulation).
    """

    family: str
    alpha: float
    beta: float
    c: float
    theta: float
    gamma: float
    horizon: float
    warmup: float
    replications: int = 1
    histogram_bound: int = 1000


@dataclass(frozen=True)
class ScaledHistogram:
    """Empirical pmf of X(nt)/sqrt(n) on the lattice i/sqrt(n)."""

    n: int
    bound: int
    pmf: np.ndarray
    overflow: float

    @property
    def lattice(self) -> np.ndarray:
        return np.arange(-self.bound, self.bound + 1) / math.sqrt(self.n)

    def mean(self) -> float:
        return float(np.dot(self.lattice, self.pmf))

    def second_moment(self) -> float:
        return float(np.dot(self.lattice**2, self.pmf))

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def tv_distance_to(self, density) -> float:
        """Total variation distance to a density discretized over the lattice cells.

        Cell k covers ((k - 1/2)/sqrt(n), (k + 1/2)/sqrt(n)]; mass outside the
        histogram range is compared against the overflow bucket.
        """
        half = 0.5 / math.sqrt(self.n)
        edges_lo = self.lattice - half
        edges_hi = self.lattice + half
        cell_mass = density.cdf(edges_hi) - density.cdf(edges_lo)
        tv = 0.5 * float(np.abs(self.pmf - cell_mass).sum())
        tv += 0.5 * abs(self.overflow - (1.0 - float(cell_mass.sum())))
        return tv


def scaled_stationary_histogram(
    template: ScaledTemplate, n: int, base_seed: int, stream_base: int = 0
) -> ScaledHistogram:
    """Occupancy histogram of the diffusion-scaled state for the index-n system."""
    if n < 1:
        raise DomainError("scaling index n must be >= 1")
    root = math.sqrt(n)
    scenario = Scenario(
        seller_model=InterarrivalModel(template.family, template.alpha + template.c / (2.0 * root)),
        buyer_model=InterarrivalModel(template.family, template.beta - template.c / (2.0 * root)),
        theta=template.theta / n,
        gamma=template.gamma / n,
        horizon=n * template.horizon,
        warmup=n * template.warmup,
        replications=template.replications,
        histogram_bound=template.histogram_bound,
    )
    result = estimate(scenario, base_seed, stream_base)
    return ScaledHistogram(
        n=n,
        bound=scenario.histogram_bound,
        pmf=result.pmf,
        overflow=result.overflow,
    )

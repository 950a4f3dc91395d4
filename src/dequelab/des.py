"""Exact discrete-event simulation of the double-ended queue.

Sellers and buyers arrive by independent renewal processes; an arrival on one
side instantly matches a waiting customer of the other side, so the signed
state never holds both.  Patience is exponential, so given X = x the total
abandonment hazard is |x| theta (or |x| gamma) whichever customers wait, and
the law of X does not depend on who they are.  The simulator therefore tracks
the count alone: one abandonment clock Exp(|x| rate), redrawn after every
event, competes with the two arrival clocks (the competing-exponentials step
of Gillespie's direct method).  One loop runs the path in two phases, the
warmup up to the warmup time and the measurement from it to the horizon; only
the second keeps the occupancy it records.  Replications are reproducible:
replication k of a run with base seed s consumes only the streams
(s, 4k..4k+3).
estimate_many advances the replications of many scenarios together in numpy
lanes, one event per lane per step, with the numbers of the one-at-a-time loop.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice

import numpy as np

from .errors import DomainError, positive, time_window, whole_number
from .numerics import InterarrivalModel, LatticeLaw, RandomStream, _blocked_dot, _on_box

__all__ = [
    "MAX_REPLICATIONS",
    "MAX_START_STATE",
    "MAX_HISTOGRAM_BOUND",
    "Scenario",
    "ScaledTemplate",
    "ReplicationResult",
    "SimulationEstimate",
    "ScaledHistogram",
    "run_replication",
    "estimate",
    "estimate_many",
    "scaled_stationary_histogram",
]

# Draws come in blocks doubling from 64 to this size (_blocks), in
# run_replication's loop and in each lockstep lane's four buffers; a lockstep
# lane that expects at least 4 blocks of arrivals starts on a full block
# (_lockstep).  Small first blocks keep short replications from drawing
# variates they never read.  On a 2-vCPU x86 box the heavy benchmark's 18
# scaled_stationary_histogram calls took a median 1.15 s with this cap and
# 1.14 s with a cap of 4096 (six interleaved rounds).
_BLOCK = 256
# Batches of fewer replications than this run each one on run_replication's
# loop.  On a 2-vCPU x86 box, lockstep lanes of one exponential cell (1, 1.5,
# 0.1, 0.15; horizon 700, warmup 200; six alternating rounds in one process)
# ran at 0.60-0.82x the speed of the scalar loop with 64 lanes, 0.85-1.33x
# with 128, 1.30-1.53x with 192 and 1.45-2.17x with 256; the grid
# benchmark's 360-lane batch ran at 1.22-1.81x.  So the crossover lies
# between 64 and 128 lanes, too near 128 to move it.  The lockstep kernel
# stays: without it, configs/full-grid.json took 1.3-1.4x as long at the
# paper budget and 1.15-1.3x at the desk budget (ROADMAP item 2).
_LOCKSTEP_MIN_LANES = 128
# At most this many lanes advance together; the rest wait for a free slot.
# A slot holds 4 * _BLOCK draws (8 KB) and a histogram row of 2 w + 2
# columns, w the half-width the batch's paths have reached (_lockstep): about
# 10 KB a slot on the benchmark's grid, where w ends at 128, against 24 KB
# with rows over the whole default bound of 1000.  So the kernel's memory does
# not grow with the number of lanes.  With 512 slots the grid's 360 lanes all
# run at once, in 3 391 passes (the longest lane's events) against 4 396 with
# 256 slots; on a 2-vCPU x86 box its wall_s fell 8-24% in each of seven
# alternating runs against 256 slots with rows over the whole bound.
_LIVE_LANES = 512
_CI_Z90 = 1.6448536269514722  # two-sided 90% normal quantile
# The most replications one Scenario takes.  The simulator walks and lists
# them one by one, so a larger count would not end in any useful time.
MAX_REPLICATIONS = 10**6
# The largest |initial_state|.  A lockstep batch widens every histogram row
# to the states its lanes reach, so a start at the cap widens the rows to at
# least 2 * 10^4 + 2 columns, 82 MB over _LIVE_LANES slots.  A path leaves a
# far start one customer an event, so it also takes about |initial_state|
# events to reach the body of the law.
MAX_START_STATE = 10**4
# The largest histogram_bound, the Poisson chain's cap on the states a side:
# an estimate builds its states -B..B at once, 16 MB at the cap.
MAX_HISTOGRAM_BOUND = 10**6


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
        positive(self.theta, "theta")
        positive(self.gamma, "gamma")
        time_window(self.warmup, self.horizon)
        for name, floor, ceiling in (
            ("replications", 1, MAX_REPLICATIONS),
            ("initial_state", -MAX_START_STATE, MAX_START_STATE),
            ("histogram_bound", 1, MAX_HISTOGRAM_BOUND),
        ):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, floor, ceiling=ceiling))

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


class ReplicationResult(LatticeLaw):
    """Time-average occupancy over [warmup, horizon] for one replication, at scale 1.

    probs covers states -bound..bound; occupancy outside is accumulated in
    overflow.  probs.sum() + overflow == 1 up to roundoff.
    """


def _samplers(scenario: Scenario, stream: RandomStream) -> tuple:
    """The sample(size) callables of substreams 0-3: seller and buyer arrivals, seller and buyer patience.

    One substream per kind of draw keeps a result independent of how the draws interleave.  Substream k is the
    generator of RandomStream(stream.seed, stream.stream_id + k), built from its key with no stream object.
    """
    from ._philox import philox_generator

    seller, buyer, seller_patience, buyer_patience = (
        philox_generator(stream.seed, stream.stream_id + k) for k in range(4)
    )
    return (
        partial(scenario.seller_model.sample, seller),
        partial(scenario.buyer_model.sample, buyer),
        partial(seller_patience.exponential, 1.0 / scenario.theta),
        partial(buyer_patience.exponential, 1.0 / scenario.gamma),
    )


def _blocks(sample, size: int = 64):
    """Arrays from sample(size) calls, in blocks doubling from size to _BLOCK."""
    while True:
        yield sample(size)
        size = min(2 * size, _BLOCK)


def _draws(sample):
    """Python floats from the blocks of sample, one at a time.

    The iterator is built from itertools, so its bound __next__, which the
    event loop calls once per draw, runs in C; only the first draw of a block
    resumes the generator _blocks.  Python floats keep numpy scalars out of
    the loop.
    """
    return chain.from_iterable(map(np.ndarray.tolist, _blocks(sample)))


def run_replication(scenario: Scenario, stream: RandomStream) -> ReplicationResult:
    """Simulate one path over [0, horizon] and return its occupancy histogram.

    The four substreams of stream feed the two arrival clocks and the
    abandonment clock (see _samplers): a patience draw E ~ Exp(theta) while
    sellers wait (Exp(gamma) while buyers wait) puts the next abandonment at
    now + E/|x|.
    """
    seller_arrival, buyer_arrival, seller_patience, buyer_patience = (
        _draws(sample).__next__ for sample in _samplers(scenario, stream)
    )
    tau, horizon = scenario.warmup, scenario.horizon
    bound = scenario.histogram_bound
    hist = [0.0] * (2 * bound + 1)

    x = scenario.initial_state
    # residual arrival clocks start fresh at time zero; the abandonment clock
    # is drawn here once and redrawn by the loop after every event
    next_seller = seller_arrival()
    next_buyer = buyer_arrival()
    if x > 0:
        next_expiry = seller_patience() / x
    elif x < 0:
        next_expiry = buyer_patience() / -x
    else:
        next_expiry = math.inf

    # Two phases of one loop: the warmup [0, tau), whose segments all fall
    # outside the empty window 1 <= x <= -1 and so go to an overflow that the
    # second phase resets, then the measurement [tau, horizon).  A phase stops
    # at the first event at or past its end without applying it, so the
    # clocks carry over, and its last segment is cut at the end; an event
    # exactly at tau is applied in the second phase after a zero-length
    # segment.  Each phase carries its window, so no event tests the warmup.
    for now, end, reach in ((0.0, tau, -1), (tau, horizon, bound)):
        overflow = 0.0
        while True:
            # arrivals win ties against expiries; sellers win ties against buyers
            if next_seller <= next_buyer and next_seller <= next_expiry:
                if next_seller >= end:
                    break
                event_time, step = next_seller, 1
                next_seller += seller_arrival()
            elif next_buyer <= next_expiry:
                if next_buyer >= end:
                    break
                event_time, step = next_buyer, -1
                next_buyer += buyer_arrival()
            else:
                if next_expiry >= end:
                    break
                event_time, step = next_expiry, -1 if x > 0 else 1
            # each segment between events adds its length to its state
            if -reach <= x <= reach:
                hist[x + reach] += event_time - now
            else:
                overflow += event_time - now
            now = event_time
            x += step
            # memoryless patience: a fresh clock after every event has the same law
            if x > 0:
                next_expiry = now + seller_patience() / x
            elif x < 0:
                next_expiry = now + buyer_patience() / -x
            else:
                next_expiry = math.inf
        if -reach <= x <= reach:
            hist[x + reach] += end - now
        else:
            overflow += end - now

    total = horizon - tau
    return ReplicationResult(bound, np.array(hist) / total, overflow / total, 1.0)


@dataclass(frozen=True)
class SimulationEstimate(LatticeLaw):
    """Across-replication estimates of the stationary pmf and its first two moments, at scale 1.

    The moment estimates L1 and L2 are the law's mean and second moment,
    summed over the in-range states; CI half-widths are normal-theory 90%
    intervals computed from the across-replication spread, None when only one
    replication ran.
    """

    ci_halfwidth_L1: float | None
    ci_halfwidth_L2: float | None
    replication_count: int
    seed: int
    per_replication_L1: np.ndarray = field(repr=False, default=None)
    per_replication_L2: np.ndarray = field(repr=False, default=None)

    L1 = property(LatticeLaw.mean)
    L2 = property(LatticeLaw.second_moment)


def estimate(
    scenario: Scenario, base_seed: int, stream_base: int = 0, *, _batch: Iterator[SimulationEstimate] | None = None
) -> SimulationEstimate:
    """Average replication histograms over independent streams and attach CIs.

    stream_base offsets the stream ids so several scenarios can share one
    seed without sharing randomness.  When any time after warmup falls
    outside the histogram box, a RuntimeWarning names the overflow share,
    because L1 and L2 then miss that part of the path.  estimate_many passes
    _batch, the simulation its scenarios share; the call then takes this
    scenario's estimate from it, and the warning names the caller of
    estimate_many.
    """
    batch = _simulate([scenario], base_seed, [stream_base]) if _batch is None else _batch
    result = next(batch)
    if result.overflow > 0.0:
        warnings.warn(
            f"overflow share {result.overflow:.3g}: that share of the time after warmup lies outside "
            f"the histogram box [-{scenario.histogram_bound}, {scenario.histogram_bound}] "
            "and is left out of L1 and L2",
            RuntimeWarning,
            stacklevel=2 if _batch is None else 3,
        )
    return result


def estimate_many(
    scenarios: Sequence[Scenario], base_seed: int, stream_bases: Sequence[int]
) -> list[SimulationEstimate]:
    """estimate(scenarios[i], base_seed, stream_bases[i]) for every i, simulated as one batch.

    It makes one estimate call per scenario, in order, and the calls share
    one simulation: a batch of at least _LOCKSTEP_MIN_LANES replications in
    all advances them together in numpy lanes, a smaller one runs each
    replication on run_replication's loop.  The results and the overflow
    warnings equal those of separate estimate calls, bit for bit.
    """
    if len(scenarios) != len(stream_bases):
        raise DomainError(f"got {len(scenarios)} scenarios but {len(stream_bases)} stream bases")
    batch = _simulate(scenarios, base_seed, stream_bases)
    results = []
    # a loop, not a comprehension, so estimate's stacklevel reaches our caller on every Python
    for sc, base in zip(scenarios, stream_bases):
        results.append(estimate(sc, base_seed, base, _batch=batch))
    return results


def _simulate(
    scenarios: Sequence[Scenario], base_seed: int, stream_bases: Sequence[int]
) -> Iterator[SimulationEstimate]:
    """The estimate of each scenario in turn; replication k reads the streams from base + 4k."""
    if sum(sc.replications for sc in scenarios) >= _LOCKSTEP_MIN_LANES:
        return _lockstep(scenarios, base_seed, stream_bases)
    return (
        _reduce(sc, base_seed, (run_replication(sc, RandomStream(base_seed, base + 4 * k))
                                for k in range(sc.replications)))
        for sc, base in zip(scenarios, stream_bases)
    )


def _reduce(scenario: Scenario, base_seed: int, reps: Iterable[ReplicationResult]) -> SimulationEstimate:
    """The estimate from the results of replications 0..n-1 of scenario, read once, in order.

    A result may be cropped to the states its path visited; its probs are
    read on the scenario's box -B..B.  The histograms are added one at a time
    in replication order, which is how np.mean(rows, axis=0) sums them, so
    the pmf has its bits without holding n rows at once.  The states -B..B
    and their squares are built once per scenario, and each replication's L1
    and L2 are blocked dots against them: the sums that its mean() and
    second_moment() take at scale 1, with their bits.
    """
    bound = scenario.histogram_bound
    states = np.arange(-bound, bound + 1, dtype=float)
    squares = states * states
    total = np.zeros(2 * bound + 1)
    l1s, l2s, overflows = [], [], []
    for rep in reps:
        probs = _on_box(rep.probs, bound)
        total += probs
        l1s.append(_blocked_dot(states.__getitem__, probs))
        l2s.append(_blocked_dot(squares.__getitem__, probs))
        overflows.append(rep.overflow)
    n = scenario.replications
    pmf = total / n
    if n > 1:
        ci1 = _CI_Z90 * float(np.std(l1s, ddof=1)) / math.sqrt(n)
        ci2 = _CI_Z90 * float(np.std(l2s, ddof=1)) / math.sqrt(n)
    else:
        ci1 = ci2 = None
    return SimulationEstimate(
        bound=scenario.histogram_bound,
        probs=pmf,
        overflow=float(np.mean(overflows)),
        scale=1.0,
        ci_halfwidth_L1=ci1,
        ci_halfwidth_L2=ci2,
        replication_count=n,
        seed=base_seed,
        per_replication_L1=np.array(l1s),
        per_replication_L2=np.array(l2s),
    )


def _lockstep(
    scenarios: Sequence[Scenario], base_seed: int, stream_bases: Sequence[int]
) -> Iterator[SimulationEstimate]:
    """Run every replication of every scenario in lockstep numpy lanes.

    A lane is one replication.  Each pass of the loop advances every live
    lane by exactly one event, under the rules of run_replication, so each
    lane reproduces run_replication on its own stream bit for bit.  Lanes
    start in order of expected arrivals, most first, at most _LIVE_LANES at
    once: a pass starts by admitting waiting lanes to the free slots, and a
    finished lane frees its slot and drops its generators.  Each slot owns

    - four draw buffers, one per substream, of _BLOCK values each in one
      flat array, each refilled with the next of its substream's _blocks.
      A lane that expects to read several blocks starts on a full one;
    - a histogram row over the states -w..w, whose last column collects the
      overflow of a lane beyond its own bound.  The half-width w is shared
      by all rows.  It starts at 64, or at the batch's largest bound B if
      that is smaller, and when a lane within its own bound steps past it,
      w becomes min(B, max(2 w, |x|)) and one copy re-lays every row.  So
      rows stay as narrow as the paths (|x| <= 94 on the benchmark's grid,
      against a bound of 1000).

    A lane also keeps its time clipped to its window, clip(t) = min(max(t,
    warmup), horizon).  A segment adds clip(event) - clip(now), which is the
    length run_replication adds: 0.0 before the warmup, event - warmup
    across it and horizon - now across the horizon.

    A finished lane's row is cropped to the states it visited until its
    scenario's last lane finishes; the scenario is then reduced to its
    estimate.  The generator yields the estimates in scenario order.
    """
    # longest first: the lanes admitted last are short ones, so the batch does
    # not end with a few long lanes running on their own
    expected_arrivals = [(sc.seller_model.rate + sc.buyer_model.rate) * sc.horizon for sc in scenarios]
    lanes = sorted(
        ((j, k) for j, sc in enumerate(scenarios) for k in range(sc.replications)),
        key=lambda lane: -expected_arrivals[lane[0]],
    )
    slots = min(_LIVE_LANES, len(lanes))
    buf = np.empty(4 * slots * _BLOCK)
    # read position and end of the current block of each buffer, as indices into buf
    pos = np.zeros(4 * slots, dtype=np.int64)
    end = np.full(4 * slots, -1, dtype=np.int64)  # -1: no lane, never refilled
    blocks = [None] * (4 * slots)
    top_bound = max(sc.histogram_bound for sc in scenarios)
    width = min(64, top_bound)
    hist = np.zeros((slots, 2 * width + 2))
    flat_hist = hist.reshape(-1)
    reps = [[None] * sc.replications for sc in scenarios]
    remaining = [sc.replications for sc in scenarios]
    results = [None] * len(scenarios)

    def refill(flat: int) -> None:
        block = next(blocks[flat])
        start = flat * _BLOCK
        buf[start : start + len(block)] = block
        pos[flat] = start
        end[flat] = start + len(block)

    def admit(slot: int, j: int, k: int) -> tuple:
        """Give lane (j, k) the slot and fill its buffers; returns the lane's state, one value per field."""
        sc = scenarios[j]
        flat = 4 * slot
        # the blocks of 64 and 128 spare a short lane draws it would not read; a long
        # lane reads about expected_arrivals / 2 draws a buffer and skips them
        first = _BLOCK if expected_arrivals[j] >= 4 * _BLOCK else 64
        samplers = _samplers(sc, RandomStream(base_seed, stream_bases[j] + 4 * k))
        blocks[flat : flat + 4] = (_blocks(sample, first) for sample in samplers)
        for i in range(4):
            refill(flat + i)
        # residual arrival clocks start fresh at time zero, whose clip is the warmup
        first_seller, first_buyer = buf[pos[flat : flat + 2]]
        pos[flat : flat + 2] += 1
        lane_of[slot] = j, k
        return (0.0, sc.warmup, first_seller, first_buyer, sc.warmup, sc.horizon, sc.initial_state,
                sc.histogram_bound, slot, slot * hist.shape[1] + width, min(sc.histogram_bound, width), flat, flat + 2)

    def finish(slot: int) -> None:
        """Take the result of the slot's lane and free the slot."""
        j, k = lane_of[slot]
        sc = scenarios[j]
        total = sc.horizon - sc.warmup
        # held cropped to the states visited until the scenario's last lane finishes
        c = int(np.abs(hist[slot, :-1].nonzero()[0] - width).max(initial=0))
        visited = hist[slot, width - c : width + c + 1] / total
        reps[j][k] = ReplicationResult(c, visited, float(hist[slot, -1] / total), 1.0)
        hist[slot] = 0.0
        end[4 * slot : 4 * slot + 4] = -1
        blocks[4 * slot : 4 * slot + 4] = (None,) * 4
        free.append(slot)
        remaining[j] -= 1
        if remaining[j] == 0:
            results[j] = _reduce(sc, base_seed, reps[j])
            reps[j] = None

    # The state of the live lanes, one array per field; every slot starts
    # free.  since is clip(now), the time from which the lane's current
    # segment counts; a lane past its reach adds to its row's last column;
    # arrivals and patience are its seller buffers, the buyer's follow each.
    now = since = next_seller = next_buyer = tau = horizon = np.empty(0)
    x = bound = slot = row = reach = arrivals = patience = np.empty(0, dtype=np.int64)
    free = list(range(slots))
    lane_of = [None] * slots
    waiting = iter(lanes)
    for j in range(len(scenarios)):
        with np.errstate(divide="ignore", invalid="ignore"):
            while remaining[j]:
                admitted = [admit(free.pop(), *lane) for lane in islice(waiting, len(free))]
                if admitted:
                    (now, since, next_seller, next_buyer, tau, horizon, x, bound, slot, row, reach, arrivals,
                     patience) = map(np.concatenate, zip((now, since, next_seller, next_buyer, tau, horizon, x, bound,
                                                          slot, row, reach, arrivals, patience), zip(*admitted)))
                ax = np.abs(x)
                # memoryless patience: a fresh clock after every event has the
                # same law.  A lane at x = 0 reads a draw it does not consume
                # and divides it by zero: its clock is inf, or nan, which the
                # tests below read as "no expiry".  x >> 63 is -1 where x < 0.
                sub = patience - (x >> 63)
                at = pos[sub]
                next_expiry = now + buf[at] / ax
                pos[sub] = at + np.minimum(ax, 1)

                # arrivals win ties against expiries; sellers win ties against buyers
                first = np.minimum(next_seller, next_buyer)
                expired = next_expiry < first
                event = np.fmin(first, next_expiry)
                arrived = ~expired
                seller = arrived & (next_seller <= next_buyer)
                buyer = arrived ^ seller

                clipped = np.minimum(np.maximum(event, tau), horizon)
                span = clipped - since
                column = row + x
                beyond = ax > reach
                if np.count_nonzero(beyond):
                    top = int(np.minimum(ax, bound).max())
                    if top > width:
                        # a lane within its own bound is past the rows: widen them all in one copy
                        wider = min(max(2 * width, top), top_bound)
                        grown = np.zeros((slots, 2 * wider + 2))
                        grown[:, wider - width : wider + width + 1] = hist[:, :-1]
                        grown[:, -1] = hist[:, -1]
                        hist, flat_hist, width = grown, grown.reshape(-1), wider
                        row = slot * hist.shape[1] + width
                        reach = np.minimum(bound, width)
                        column = row + x
                        beyond = ax > reach
                    column[beyond] = row[beyond] + width + 1
                flat_hist[column] += span

                sub = arrivals + buyer
                at = pos[sub]
                redrawn = event + buf[at]
                pos[sub] = at + arrived
                next_seller = np.where(seller, redrawn, next_seller)
                next_buyer = np.where(buyer, redrawn, next_buyer)
                # an expiry steps x toward zero, a seller arrival up, a buyer arrival down
                x -= np.sign(x) * expired
                x += seller
                x -= buyer
                now, since = event, clipped

                done = event >= horizon
                if np.count_nonzero(done):
                    for s in slot[done].tolist():
                        finish(s)
                    keep = ~done
                    (now, since, next_seller, next_buyer, tau, horizon, x, bound, slot, row, reach, arrivals,
                     patience) = (a[keep] for a in (now, since, next_seller, next_buyer, tau, horizon, x, bound, slot,
                                                    row, reach, arrivals, patience))
                exhausted = pos == end
                if np.count_nonzero(exhausted):
                    for flat in exhausted.nonzero()[0].tolist():
                        refill(flat)
        yield results[j]
        results[j] = None


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
class ScaledHistogram(LatticeLaw):
    """Empirical pmf of X(nt)/sqrt(n) on the lattice i/sqrt(n): a law at scale sqrt(n)."""

    n: int


def scaled_stationary_histogram(
    template: ScaledTemplate, n: int, base_seed: int, stream_base: int = 0
) -> ScaledHistogram:
    """Occupancy histogram of the diffusion-scaled state for the index-n system."""
    n = whole_number(n, "scaling index n", 1)
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
    return ScaledHistogram(bound=result.bound, probs=result.probs, overflow=result.overflow, scale=root, n=n)

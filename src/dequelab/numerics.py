"""Special functions, probability kernels, and reproducible random sampling.

Everything downstream (chain analysis, diffusion moments, simulators) is built
on the primitives collected here: Gaussian pdf/tails/hazard, truncated-normal
moments, the registry of interarrival families, interarrival-time models, and
counter-based random streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx

from .errors import DequeLabError, DomainError, finite_result, positive, whole_number

__all__ = [
    "normal_pdf",
    "normal_sf",
    "normal_logcdf",
    "normal_logsf",
    "normal_hazard",
    "truncated_normal_moments",
    "tv_distance",
    "FAMILY_ALIASES",
    "FAMILIES",
    "canonical_family",
    "InterarrivalModel",
    "RandomStream",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_3_OVER_2 = math.log(1.5)

def _check_variance(variance: float) -> float:
    return math.sqrt(positive(variance, "variance"))


def normal_pdf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    sd = _check_variance(variance)
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z - _LOG_SQRT_2PI) / sd


def normal_sf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """Upper tail P(X > x)."""
    sd = _check_variance(variance)
    z = (x - mean) / sd
    return 0.5 * math.erfc(z / _SQRT2)


def normal_logsf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """log P(X > x), stable in both tails."""
    sd = _check_variance(variance)
    z = finite_result(lambda: (x - mean) / sd, "the standardized point (x - mean)/sd")
    u = z / _SQRT2
    if u <= 0.0:
        # survival is at least 1/2; plain erfc has no underflow here
        return math.log(0.5 * math.erfc(u))
    # erfc(u) = erfcx(u) exp(-u^2) keeps the upper tail on the log scale
    return math.log(0.5 * erfcx(u)) - u * u


def normal_logcdf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """log P(X <= x), stable far into the lower tail."""
    return normal_logsf(-x, -mean, variance)


def normal_hazard(z: float) -> float:
    """Gaussian hazard (inverse Mills ratio) phi(z) / (1 - Phi(z)) for standard normal."""
    return _SQRT_2_OVER_PI / float(erfcx(z / _SQRT2))


def truncated_normal_moments(mean: float, variance: float, side: str) -> tuple[float, float]:
    """First two moments of a normal restricted to a half line.

    side "positive" restricts to (0, inf), "negative" to (-inf, 0).
    Evaluated through the hazard function so both deep-tail directions stay
    finite.
    """
    sd = _check_variance(variance)
    z = finite_result(lambda: -mean / sd, "the standardized zero -mean/sd")
    if side == "positive":
        h = normal_hazard(z)
        first = mean + sd * h
        second = mean * mean + variance + mean * sd * h
    elif side == "negative":
        h = normal_hazard(-z)  # phi(z) / Phi(z)
        first = mean - sd * h
        second = mean * mean + variance - mean * sd * h
    else:
        raise DomainError(f"side must be 'positive' or 'negative', got {side!r}")
    return first, second


def tv_distance(p, q) -> float:
    """Total variation distance between two pmfs on a common support: half the l1 gap."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


# Interarrival family names accepted on input, each mapped to its canonical name.
FAMILY_ALIASES = {
    "exp": "exponential",
    "exponential": "exponential",
    "uniform": "uniform",
    "erlang": "erlang",
    "erlang2": "erlang",
    "hyperexp": "hyperexponential",
    "hyperexponential": "hyperexponential",
}
FAMILIES = tuple(dict.fromkeys(FAMILY_ALIASES.values()))


def canonical_family(name: str, error: type[DequeLabError] = DomainError) -> str:
    """The canonical name of an interarrival family, given any of its names in any case."""
    try:
        return FAMILY_ALIASES[name.lower()]
    except (AttributeError, KeyError):
        raise error(f"unknown distribution {name!r}; valid names: {sorted(FAMILY_ALIASES)}") from None


@dataclass(frozen=True)
class InterarrivalModel:
    """A renewal interarrival law with mean 1/rate.

    Families (any name in FAMILY_ALIASES, in any case; the canonical name is stored):
      exponential        rate `rate`
      uniform            on [0, 2/rate]
      erlang             `stages` exponential stages, each with rate stages*rate
      hyperexponential   mixture: rate/2 w.p. 1/3, 2*rate w.p. 2/3

    `sd` is the standard deviation of the law itself.  `nominal_sd` is the
    value used when building diffusion-model coefficients: identical to `sd`
    except for the exponential family, where the convention is 1/sqrt(rate)
    (this is what the published comparison tables are computed with).
    """

    family: str
    rate: float
    stages: int = 2

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))
        positive(self.rate, "rate")
        if self.family == "erlang":
            whole_number(self.stages, "erlang stages", 1)

    @property
    def sd(self) -> float:
        if self.family == "exponential":
            return 1.0 / self.rate
        if self.family == "uniform":
            return 1.0 / (math.sqrt(3.0) * self.rate)
        if self.family == "erlang":
            return 1.0 / (math.sqrt(self.stages) * self.rate)
        return math.sqrt(2.0) / self.rate

    @property
    def nominal_sd(self) -> float:
        if self.family == "exponential":
            return 1.0 / math.sqrt(self.rate)
        return self.sd

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw size interarrival times; strictly positive, mean 1/rate."""
        if self.family == "exponential":
            return rng.exponential(1.0 / self.rate, size)
        if self.family == "uniform":
            return rng.uniform(0.0, 2.0 / self.rate, size)
        if self.family == "erlang":
            return rng.gamma(self.stages, 1.0 / (self.stages * self.rate), size)
        # hyperexponential: value i reads the consecutive variates (2i, 2i+1)
        # of one array call, so sample(m) then sample(n) equals sample(m + n).
        # The branch is slow when its Exp(1) variate is below log(3/2),
        # which has probability 1/3.
        pairs = rng.standard_exponential((size, 2))
        scale = np.where(pairs[:, 0] < _LOG_3_OVER_2, 2.0 / self.rate, 0.5 / self.rate)
        return pairs[:, 1] * scale


@dataclass
class RandomStream:
    """Reproducible counter-based random stream keyed by (seed, stream_id).

    Equal keys reproduce identical sequences; distinct stream ids give
    statistically independent streams (Philox counter-based generator).
    A stream owns its generator state and must not be shared across
    concurrent consumers.
    """

    seed: int
    stream_id: int = 0
    _rng: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        whole_number(self.stream_id, "stream_id", 0)

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
            self._rng = np.random.Generator(np.random.Philox(key=key))
        return self._rng

    def substream(self, offset: int) -> "RandomStream":
        """A fresh independent stream at stream_id + offset."""
        return RandomStream(self.seed, self.stream_id + offset)


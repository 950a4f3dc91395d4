"""Special functions, probability kernels, and reproducible random sampling.

Everything downstream (chain analysis, diffusion moments, simulators) is built
on the primitives collected here: the log regularized incomplete gamma
function, Gaussian pdf/tails/hazard, truncated-normal moments, the registry of
interarrival families, interarrival-time models, and counter-based random
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx

from .errors import DomainError

__all__ = [
    "log_regularized_lower_gamma",
    "normal_pdf",
    "normal_sf",
    "normal_logcdf",
    "normal_logsf",
    "normal_hazard",
    "truncated_normal_moments",
    "tv_distance",
    "FAMILY_ALIASES",
    "InterarrivalModel",
    "RandomStream",
    "sample_interarrival",
    "sample_exponential",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_3_OVER_2 = math.log(1.5)

# Iteration budget for the incomplete-gamma series / continued fraction.
_MAX_ITER = 10_000
_EPS = 1e-15


def _lower_series(t: float, y: float) -> float:
    """log of the regularized lower tail via the ascending series (0 < y < t + 1)."""
    ap = t
    term = 1.0 / t
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= y / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return -y + t * math.log(y) - math.lgamma(t) + math.log(total)
    raise DomainError(f"incomplete gamma series failed to converge for t={t}, y={y}")


def _upper_cf(t: float, y: float) -> float:
    """log of the regularized upper tail via the Lentz continued fraction (y >= t + 1)."""
    tiny = 1e-300
    b = y + 1.0 - t
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - t)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return -y + t * math.log(y) - math.lgamma(t) + math.log(h)
    raise DomainError(f"incomplete gamma continued fraction failed to converge for t={t}, y={y}")


def log_regularized_lower_gamma(t: float, y: float) -> float:
    """log P(t, y), accurate even where P underflows (deep lower tail)."""
    if not t > 0.0:
        raise DomainError(f"log_regularized_lower_gamma requires t > 0, got {t}")
    if y < 0.0:
        raise DomainError(f"log_regularized_lower_gamma requires y >= 0, got {y}")
    if y == 0.0:
        return -math.inf
    if y < t + 1.0:
        return _lower_series(t, y)
    return math.log1p(-math.exp(_upper_cf(t, y)))


def _check_variance(variance: float) -> float:
    if not variance > 0.0:
        raise DomainError(f"variance must be positive, got {variance}")
    return math.sqrt(variance)


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
    z = (x - mean) / sd
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
    return _SQRT_2_OVER_PI / erfcx(z / _SQRT2)


def truncated_normal_moments(mean: float, variance: float, side: str) -> tuple[float, float]:
    """First two moments of a normal restricted to a half line.

    side "positive" restricts to (0, inf), "negative" to (-inf, 0).
    Evaluated through the hazard function so both deep-tail directions stay
    finite.
    """
    sd = _check_variance(variance)
    z = -mean / sd
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
_FAMILIES = tuple(dict.fromkeys(FAMILY_ALIASES.values()))


@dataclass(frozen=True)
class InterarrivalModel:
    """A renewal interarrival law with mean 1/rate.

    Families:
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
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown interarrival family {self.family!r}; choose from {_FAMILIES}")
        if not 0.0 < self.rate < math.inf:
            raise DomainError(f"rate must be positive and finite, got {self.rate}")
        if self.family == "erlang" and self.stages < 1:
            raise DomainError(f"erlang stages must be >= 1, got {self.stages}")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

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

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw interarrival times; strictly positive, mean 1/rate."""
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
        n = 1 if size is None else size
        pairs = rng.standard_exponential((n, 2))
        scale = np.where(pairs[:, 0] < _LOG_3_OVER_2, 2.0 / self.rate, 0.5 / self.rate)
        out = pairs[:, 1] * scale
        return float(out[0]) if size is None else out


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
        if self.stream_id < 0:
            raise DomainError(f"stream_id must be non-negative, got {self.stream_id}")

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
            self._rng = np.random.Generator(np.random.Philox(key=key))
        return self._rng

    def substream(self, offset: int) -> "RandomStream":
        """A fresh independent stream at stream_id + offset."""
        return RandomStream(self.seed, self.stream_id + offset)


def sample_interarrival(model: InterarrivalModel, stream: RandomStream, size: int | None = None):
    return model.sample(stream.rng, size)


def sample_exponential(rate: float, stream: RandomStream, size: int | None = None):
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate}")
    return stream.rng.exponential(1.0 / rate, size)

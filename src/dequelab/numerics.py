"""Special functions, probability kernels, lattice laws, and reproducible random sampling.

Everything downstream (chain analysis, diffusion moments, simulators) is built
on the primitives collected here: the scaled complementary error function,
Gaussian log-tails and hazard, truncated-normal moments, the law on a box
of the integer lattice that every pmf of the package is, the registry of
interarrival families, interarrival-time models, and counter-based random
streams.  The special functions need numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DequeLabError, DomainError, finite_result, positive, whole_number

__all__ = [
    "erfcx",
    "log_ndtr",
    "normal_logcdf",
    "normal_logsf",
    "normal_hazard",
    "truncated_normal_moments",
    "LatticeLaw",
    "FAMILY_ALIASES",
    "FAMILIES",
    "canonical_family",
    "InterarrivalModel",
    "RandomStream",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_3_OVER_2 = math.log(1.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# W. J. Cody's rational approximations for the error function (Math. Comp. 23,
# 1969), in the Horner order of his CALERF: (numerator, denominator) by
# descending powers, the denominator monic with its leading 1 left out.
# erf(x) = x p/q in x^2 on |x| <= _ERF_NEAR, erfcx(x) = p/q in x on
# (_ERF_NEAR, 4], and erfcx(x) = (1/sqrt(pi) - t p/q)/x in t = 1/x^2 past 4.
_CODY_NEAR = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
     3.20937758913846947e03),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03, 2.84423683343917062e03),
)
_CODY_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
     2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03, 2.05107837782607147e03,
     1.23033935479799725e03),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02, 1.62138957456669019e03,
     3.29079923573345963e03, 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03),
)
_CODY_FAR = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
     1.60837851487422766e-2, 6.58749161529837803e-4),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1, 6.05183413124413191e-2,
     2.33520497626869185e-3),
)
_ERF_NEAR = 0.46875
# below this 2 exp(x^2), and so erfcx(x), is past the largest float
_ERFCX_MIN = -26.628
# exp(x^2) is taken as exp(h^2) exp((x - h)(x + h)), h = x rounded down to a
# multiple of this, so that h^2, the large part of the exponent, is exact
_SQUARE_SPLIT = 2.0**-16


def _ratio(t, num, den):
    """Cody's rational p(t)/q(t) by Horner's rule, for a float or an array t.

    The updates are in place, which spares an array its temporaries and rebinds a float."""
    p, q = num[0] * t, t + den[0]
    for a, b in zip(num[1:-1], den[1:]):
        p += a
        p *= t
        q *= t
        q += b
    return (p + num[-1]) / q


def _erfcx_near(x, exp):
    t = x * x
    return exp(t) * (1.0 - x * _ratio(t, *_CODY_NEAR))


def _erfcx_far(y):
    t = 1.0 / (y * y)
    return (_INV_SQRT_PI - t * _ratio(t, *_CODY_FAR)) / y


def _erfcx_reflect(x, r, exp):
    """erfcx(x) = 2 exp(x^2) - erfcx(-x) for x < 0, given r = erfcx(-x)."""
    h = x - x % _SQUARE_SPLIT
    e = exp(h * h) * exp((x - h) * (x + h))
    return (e + e) - r


def _float_exp(t: float) -> float:
    # numpy's exp, so that a float and an array element get the same bits
    return float(np.exp(t))


def erfcx(x):
    """The scaled complementary error function exp(x^2) erfc(x), for a float or an array.

    Cody's 1969 rational approximations in three ranges of |x|, with erfcx(x) = 2 exp(x^2) - erfcx(-x) for
    x < -0.46875 and inf below -26.628, where the value passes the largest float.  The relative error is below
    1e-15 on [-26.5, inf) (measured against mpmath).  A Python number (or numpy float64) takes a plain-float path
    and gives a float; an array evaluates each range on every element and selects, and gives an array.
    """
    if isinstance(x, (int, float)):
        x = float(x)
        y = abs(x)
        if y <= _ERF_NEAR:
            return _erfcx_near(x, _float_exp)
        r = _ratio(y, *_CODY_MID) if y <= 4.0 else _erfcx_far(y)
        if not x < 0.0:
            return r
        return math.inf if x < _ERFCX_MIN else _erfcx_reflect(x, r, _float_exp)
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    # the ranges an element is not in may divide by 0, overflow or give nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = np.where(y <= 4.0, _ratio(y, *_CODY_MID), _erfcx_far(y))
        negative = x < 0.0
        if negative.any():
            r = np.where(negative, np.where(x < _ERFCX_MIN, np.inf, _erfcx_reflect(x, r, np.exp)), r)
        return np.where(y <= _ERF_NEAR, _erfcx_near(x, np.exp), r)


def log_ndtr(z):
    """log Phi(z), the standard normal log-cdf, elementwise on an array; one erfcx evaluation serves both signs.

    With y = |z|/sqrt(2), Phi(z) = erfcx(y) exp(-z^2/2)/2 for z < 0 and 1 minus that for z >= 0.  The relative
    error is below 2e-14 on [-1e5, 8] (measured against mpmath)."""
    z = np.asarray(z, dtype=float)
    # z^2 overflows only where log Phi is -inf or 0
    with np.errstate(over="ignore", divide="ignore"):
        half_sq = 0.5 * z * z
        tail = 0.5 * erfcx(np.abs(z) / _SQRT2)
        return np.where(z < 0.0, np.log(tail) - half_sq, np.log1p(-tail * np.exp(-half_sq)))


def _check_variance(variance: float) -> float:
    return math.sqrt(positive(variance, "variance"))


def normal_logsf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """log P(X > x), stable in both tails."""
    sd = _check_variance(variance)
    z = finite_result(lambda: (x - mean) / sd, "the standardized point (x - mean)/sd")
    u = z / _SQRT2
    if u <= 0.0:
        # survival is at least 1/2: log1p of the small lower tail keeps a log near 0 relatively exact
        return math.log1p(-0.5 * math.erfc(-u))
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


@dataclass(frozen=True)
class LatticeLaw:
    """A law on the box of states -bound..bound of the integer lattice, state i at the point i/scale.

    probs[k] is the mass of states[k] and overflow the mass outside the box (0.0 for a chain law).  scale is 1.0,
    or sqrt(n) for the diffusion-scaled histogram of X(nt)/sqrt(n).
    """

    bound: int
    probs: np.ndarray
    overflow: float
    scale: float

    @property
    def states(self) -> np.ndarray:
        return np.arange(-self.bound, self.bound + 1)

    @property
    def lattice(self) -> np.ndarray:
        return self.states / self.scale

    @property
    def pmf(self) -> np.ndarray:
        """probs, under the name that the simulators' callers read."""
        return self.probs

    def prob(self, i: int) -> float:
        return float(self.probs[i + self.bound]) if abs(i) <= self.bound else 0.0

    def mean(self) -> float:
        return float(np.dot(self.lattice, self.probs))

    def second_moment(self) -> float:
        return float(np.dot(self.lattice**2, self.probs))

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def tv_distance_to(self, density) -> float:
        """Total variation distance to a density, taken as its masses on the lattice cells.

        Cell k covers ((k - 1/2)/scale, (k + 1/2)/scale]; the mass outside the box is compared against overflow.
        """
        cell_mass = density.cell_masses((np.arange(-self.bound, self.bound + 2) - 0.5) / self.scale)
        tv = 0.5 * float(np.abs(self.probs - cell_mass).sum())
        return tv + 0.5 * abs(self.overflow - (1.0 - float(cell_mass.sum())))


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
        if self.family == "uniform":
            # numpy draws on [0, 2/rate] only when the end is finite
            finite_result(lambda: 2.0 / self.rate, "the uniform interarrival end 2/rate")
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
        """The stream's generator, built on first use by _philox.philox_generator, where every stream is keyed."""
        if self._rng is None:
            from ._philox import philox_generator

            self._rng = philox_generator(self.seed, self.stream_id)
        return self._rng

    def substream(self, offset: int) -> "RandomStream":
        """A fresh independent stream at stream_id + offset."""
        return RandomStream(self.seed, self.stream_id + offset)


"""Queue parameter bundle shared by the analytic and simulation modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numerics import InterarrivalModel

__all__ = ["QueueParams"]


@dataclass(frozen=True)
class QueueParams:
    """Arrival, variability, and reneging parameters of the double-ended queue.

    alpha / beta are seller / buyer arrival rates, sigma / varsigma the
    interarrival standard deviations entering the diffusion coefficients,
    theta / gamma the per-customer reneging rates.  Every value given must be
    finite.  Positive reneging rates are required: the chain is positive
    recurrent only then.

    sigma and varsigma are needed only by the diffusion coefficients and stay
    None when omitted, which suits the Poisson chain and the fluid limit.
    Build diffusion inputs with QueueParams.for_family, which sets them to the
    family's nominal sds, or pass them explicitly.
    """

    alpha: float
    beta: float
    theta: float
    gamma: float
    sigma: float | None = None
    varsigma: float | None = None

    def __post_init__(self):
        for name in ("alpha", "beta", "theta", "gamma"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be strictly positive and finite, got {value}")
        for name in ("sigma", "varsigma"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise DomainError(f"{name} must be non-negative and finite, got {value}")

    @classmethod
    def for_family(
        cls,
        family: str,
        alpha: float,
        beta: float,
        theta: float,
        gamma: float,
    ) -> "QueueParams":
        """Parameters with sigma/varsigma set to the family's nominal sd.

        The nominal sd is what the diffusion-model coefficient tables use;
        see InterarrivalModel.nominal_sd for the exponential-family caveat.
        """
        seller = InterarrivalModel(family, alpha)
        buyer = InterarrivalModel(family, beta)
        return cls(alpha, beta, theta, gamma, seller.nominal_sd, buyer.nominal_sd)

    @property
    def drift_offset(self) -> float:
        return self.alpha - self.beta

    @property
    def diffusion_coeff_sq(self) -> float:
        """a^2 = alpha^3 sigma^2 + beta^3 varsigma^2."""
        if self.sigma is None or self.varsigma is None:
            raise DomainError(
                "the diffusion coefficient needs sigma and varsigma; build the parameters "
                "with QueueParams.for_family or pass both explicitly"
            )
        return self.alpha**3 * self.sigma**2 + self.beta**3 * self.varsigma**2

    @property
    def diffusion_coeff(self) -> float:
        return math.sqrt(self.diffusion_coeff_sq)

    @property
    def heavy_traffic_coeff_sq(self) -> float:
        """b^2 = a^2 + |alpha - beta|."""
        return self.diffusion_coeff_sq + abs(self.alpha - self.beta)

    @property
    def heavy_traffic_coeff(self) -> float:
        return math.sqrt(self.heavy_traffic_coeff_sq)

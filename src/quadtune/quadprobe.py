"""Quadratic probing of the loss along the step direction.

Training loss, viewed as a function of a small perturbation ``eps`` on the
current learning rate, is locally a quadratic ``k0 + k1*eps + k2*eps**2``.
This module fits that quadratic to sampled (eps, loss) pairs and turns the
fitted minimum into a bounded learning-rate perturbation proposal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, QuadtuneError
from .stats import least_squares_quadratic

# Below this (relative) size the curvature term is treated as zero to avoid
# overflow in -k1/(2*k2).
_CURVATURE_FLOOR = 1e-15


@dataclass(frozen=True)
class LossSample:
    """One probed (epsilon, loss) pair along the step direction."""

    epsilon: float
    loss: float


@dataclass(frozen=True)
class QuadFit:
    """Least-squares coefficients of loss ~ k0 + k1*eps + k2*eps^2."""

    k0: float
    k1: float
    k2: float
    residual_rms: float

    def predict(self, epsilon: float) -> float:
        return self.k0 + self.k1 * epsilon + self.k2 * epsilon * epsilon


class ProposalKind(enum.Enum):
    ACCEPT = "accept"
    REJECT_NO_MINIMUM = "reject_no_minimum"
    REJECT_PHASE_FILTER = "reject_phase_filter"
    CLAMPED_TO_BOUND = "clamped_to_bound"


@dataclass(frozen=True)
class EpsilonProposal:
    """Outcome of one probe round: an epsilon to apply, or a rejection."""

    kind: ProposalKind
    epsilon: Optional[float] = None

    @property
    def is_applicable(self) -> bool:
        return self.kind in (ProposalKind.ACCEPT, ProposalKind.CLAMPED_TO_BOUND)


def probe_points(eta: float, bound: float, n: int, span_fraction: float) -> list[float]:
    """Epsilon sample grid: n values uniform on +-min(span_fraction*eta, bound).

    Symmetric about 0; includes 0 exactly when n is odd. All |eps| <= bound.
    """
    if n < 3:
        raise InvalidArgumentError("need at least 3 probe points to determine a quadratic")
    if eta <= 0.0:
        raise InvalidArgumentError("eta must be positive")
    if bound <= 0.0:
        raise InvalidArgumentError("bound must be positive")
    if not 0.0 < span_fraction <= 1.0:
        raise InvalidArgumentError("span_fraction must be in (0, 1]")
    b = min(span_fraction * eta, bound)
    # Symmetric by construction: positions are exact negations of each other,
    # so grid[i] == -grid[n-1-i] bit-for-bit and the center of an odd grid is 0.
    half = (n - 1) / 2.0
    positions = (np.arange(n) - half) / half
    return [float(b * p) for p in positions]


def fit_quadratic(samples: Sequence[LossSample]) -> QuadFit:
    """Least-squares quadratic through loss samples.

    Exact interpolation when exactly 3 distinct epsilons are given; otherwise
    minimizes the sum of squared residuals.
    """
    if any(not math.isfinite(s.loss) for s in samples):
        raise QuadtuneError("non-finite loss in fit input")
    xs = np.array([s.epsilon for s in samples], dtype=np.float64)
    ys = np.array([s.loss for s in samples], dtype=np.float64)
    k0, k1, k2 = least_squares_quadratic(xs, ys)
    # Losses near the float limit square to inf, which is the honest rms of such a fit.
    with np.errstate(over="ignore"):
        residuals = ys - (k0 + k1 * xs + k2 * xs * xs)
        rms = float(np.sqrt(np.mean(residuals * residuals)))
    return QuadFit(k0=k0, k1=k1, k2=k2, residual_rms=rms)


def epsilon_bound(r: float, current_loss: float) -> float:
    """Trust-region bound on |eps| from |eps|^3 < r * loss."""
    if r <= 0.0:
        raise InvalidArgumentError("epsilon threshold r must be positive")
    if current_loss < 0.0:
        raise InvalidArgumentError("current_loss must be nonnegative")
    if current_loss == 0.0:
        return 0.0
    return float(np.cbrt(r * current_loss))


def propose_epsilon(fit: QuadFit, bound: float) -> EpsilonProposal:
    """Turn a fitted quadratic into a bounded perturbation proposal.

    Positive curvature: take the interior minimum -k1/(2*k2), clamped to
    +-bound. Nonpositive (or negligible) curvature: no interior minimum, so
    return the endpoint with the lower predicted loss; ties prefer -bound
    (lowering the learning rate).
    """
    if bound < 0.0:
        raise InvalidArgumentError("bound must be nonnegative")
    k1, k2 = fit.k1, fit.k2
    if k2 > _CURVATURE_FLOOR * max(1.0, abs(k1)):
        eps_min = -k1 / (2.0 * k2)
        if abs(eps_min) <= bound:
            return EpsilonProposal(ProposalKind.ACCEPT, eps_min)
        return EpsilonProposal(ProposalKind.CLAMPED_TO_BOUND, math.copysign(bound, eps_min))
    lo = fit.predict(-bound)
    hi = fit.predict(bound)
    chosen = -bound if lo <= hi else bound
    return EpsilonProposal(ProposalKind.CLAMPED_TO_BOUND, chosen)

"""Shared numeric utilities: quadratic least squares, summary stats, finite differences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, QuadtuneError


@dataclass(frozen=True)
class SummaryStats:
    """Population mean/stddev (n divisor) over a small sample."""

    mean: float
    stddev: float
    n: int


def summarize(values: Sequence[float]) -> SummaryStats:
    """Population mean and standard deviation (divide by n, not n-1)."""
    if len(values) == 0:
        raise InvalidArgumentError("summarize requires a non-empty sequence")
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    stddev = float(np.sqrt(np.mean((arr - mean) ** 2)))
    return SummaryStats(mean=mean, stddev=stddev, n=len(values))


def least_squares_quadratic(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Fit y = k0 + k1*x + k2*x^2 by ordinary least squares.

    Solves the normal equations on a centered and scaled design so the fit
    stays well conditioned even for abscissae of order 1e-5 (small learning
    rates). Exact interpolation for three distinct points. Raises
    QuadtuneError on a non-finite value or fewer than 3 distinct abscissae.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidArgumentError("xs and ys must be 1-D and the same length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise QuadtuneError("non-finite abscissa or ordinate in quadratic fit input")
    n = x.size
    # With every value finite, a set counts the distinct abscissae as np.unique would.
    if len(set(x.tolist())) < 3:
        raise QuadtuneError("need at least 3 distinct abscissae for a quadratic fit")

    m = float(x.sum()) / n
    xc = x - m
    s = float(np.abs(xc).max())
    u = xc / s

    design = np.empty((n, 3))
    design[:, 0] = 1.0
    design[:, 1] = u
    design[:, 2] = u * u
    a0, a1, a2 = np.linalg.solve(design.T @ design, design.T @ y)

    # De-scale and de-center back to the original x coordinates.
    b2 = a2 / (s * s)
    b1 = a1 / s
    k2 = b2
    k1 = b1 - 2.0 * b2 * m
    k0 = a0 - b1 * m + b2 * m * m
    return float(k0), float(k1), float(k2)


def fd_gradient(loss_fn: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate; test oracle only."""
    theta = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        up = loss_fn(bumped)
        bumped[i] = theta[i] - h
        down = loss_fn(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad

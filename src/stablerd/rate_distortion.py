"""Rate-distortion functions under a strength constraint on the error.

For a symmetric stable scalar source with strength s = alpha^(1/alpha) gamma,

    R(D) = max{ ln(s / D), 0 }      (nats),

the same expression holds for sub-Gaussian vector sources, and independent
components combine through an exact reverse water-filling allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistortion
from .strength import strength_closed_form

__all__ = [
    "RDPoint",
    "WaterFillAllocation",
    "TestChannel",
    "rd_scalar",
    "distortion_at_rate",
    "rd_vector_subgaussian",
    "reverse_waterfill",
    "test_channel",
]


@dataclass(frozen=True)
class RDPoint:
    """A (distortion, rate) pair; the rate is in nats."""

    distortion: float
    rate: float


@dataclass(frozen=True)
class WaterFillAllocation:
    """Per-component distortions, the water level, and the total rate in nats."""

    distortions: np.ndarray
    level: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "distortions", np.asarray(self.distortions, dtype=float))


@dataclass(frozen=True)
class TestChannel:
    """Scales of the backward channel X = Xhat + Z achieving the bound."""

    alpha: float
    gamma_xhat: float
    gamma_z: float


def rd_scalar(alpha: float, gamma_x: float, D: float) -> RDPoint:
    """Rate needed for error strength at most D, scalar symmetric stable source."""
    if not D > 0.0:
        raise InvalidDistortion("D must be positive")
    s = strength_closed_form(alpha, gamma_x)
    return RDPoint(distortion=float(D), rate=max(math.log(s / D), 0.0))


def distortion_at_rate(alpha: float, gamma_x: float, R: float) -> float:
    """Inverse of rd_scalar on R > 0: D = alpha^(1/alpha) gamma_x e^-R."""
    if R < 0.0:
        raise ValueError("R must be nonnegative")
    return strength_closed_form(alpha, gamma_x) * math.exp(-R)


def rd_vector_subgaussian(alpha: float, gamma_x: float, d: int, D: float) -> RDPoint:
    """Rate for a d-dimensional sub-Gaussian source; the strength is dimension-free."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return rd_scalar(alpha, gamma_x, D)


def reverse_waterfill(alpha: float, component_strengths, D: float) -> WaterFillAllocation:
    """Optimal distortion split over independent components.

    Solves sum_i min(level, s_i) = D exactly on the sorted breakpoints (the
    sum is piecewise linear and increasing), then D_i = min(level, s_i) and
    R = sum max{ln(s_i / D_i), 0}.  The distortion constraint sums component
    strengths without dimension normalization, so D scales with d.
    """
    s = np.asarray(component_strengths, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("component_strengths must be a nonempty 1-d array")
    if not np.all((s > 0.0) & (s < math.inf)):  # NaN fails both
        raise ValueError("all component strengths must be positive and finite")
    if not D > 0.0:
        raise InvalidDistortion("D must be positive")
    total = float(np.sum(s))
    if D >= total:
        return WaterFillAllocation(
            distortions=s.copy(), level=float(np.max(s)), rate=0.0
        )
    order = np.sort(s)
    d = s.size
    # On [order[k-1], order[k]] the filled sum is cum[k] + (d - k) * level,
    # with cum[k] the mass of the k smallest (already saturated) components.
    cum = np.concatenate([[0.0], np.cumsum(order)])
    filled_at_break = cum[1:] + (d - 1 - np.arange(d)) * order
    k = int(np.searchsorted(filled_at_break, D))
    level = (D - cum[k]) / (d - k)
    dist = np.minimum(level, s)
    rate = float(np.sum(np.maximum(np.log(s / dist), 0.0)))
    return WaterFillAllocation(distortions=dist, level=float(level), rate=rate)


def test_channel(alpha: float, gamma_x: float, D: float) -> TestChannel:
    """Backward-channel scales: gamma_Z = D alpha^(-1/alpha), the rest by additivity."""
    s = strength_closed_form(alpha, gamma_x)
    if not 0.0 < D < s:
        raise InvalidDistortion(
            f"test channel requires 0 < D < source strength {s}"
        )
    gamma_z = D * alpha ** (-1.0 / alpha)
    gamma_xhat = (gamma_x ** alpha - gamma_z ** alpha) ** (1.0 / alpha)
    return TestChannel(alpha=float(alpha), gamma_xhat=gamma_xhat, gamma_z=gamma_z)

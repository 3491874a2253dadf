"""Truncated Pareto (heavy-tailed) score distribution.

Heavy-tailed scores are the stress case for ordering uncertainty: a few
tuples dominate while the bulk is nearly tied.  Used by the non-uniform
score-distribution experiment (``DIST`` in
``repro.experiments.EXPERIMENTS``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.distributions.base import ArrayLike, ScoreDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.piecewise import PiecewisePolynomial


class TruncatedPareto(ScoreDistribution):
    """Pareto(scale, shape) truncated to ``[scale, upper]``.

    The pdf is proportional to ``x^{-(shape+1)}`` on ``[scale, upper]``.
    """

    def __init__(self, scale: float, shape: float, upper: float) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale!r}")
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape!r}")
        if upper <= scale:
            raise ValueError("upper truncation must exceed the scale")
        self._scale = float(scale)
        self._shape = float(shape)
        self._upper_bound = float(upper)
        # Mass of the untruncated Pareto inside [scale, upper].
        self._mass = 1.0 - (self._scale / self._upper_bound) ** self._shape

    @property
    def scale(self) -> float:
        """Pareto scale (left endpoint of the support)."""
        return self._scale

    @property
    def shape(self) -> float:
        """Pareto tail index (smaller = heavier tail)."""
        return self._shape

    @property
    def lower(self) -> float:
        return self._scale

    @property
    def upper(self) -> float:
        return self._upper_bound

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        inside = (x >= self._scale) & (x <= self._upper_bound)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = (
                self._shape
                * self._scale**self._shape
                / np.where(inside, x, 1.0) ** (self._shape + 1.0)
            )
        return np.where(inside, raw / self._mass, 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        clipped = np.clip(x, self._scale, self._upper_bound)
        raw = 1.0 - (self._scale / clipped) ** self._shape
        value = raw / self._mass
        value = np.where(x < self._scale, 0.0, value)
        value = np.where(x >= self._upper_bound, 1.0, value)
        return np.clip(value, 0.0, 1.0)

    def quantile(self, p: ArrayLike) -> ArrayLike:
        p = np.asarray(p, dtype=float)
        p = np.clip(p, 0.0, 1.0)
        raw = p * self._mass
        value = self._scale / (1.0 - raw) ** (1.0 / self._shape)
        return np.clip(value, self._scale, self._upper_bound)

    def mean(self) -> float:
        a, s, u = self._shape, self._scale, self._upper_bound
        if abs(a - 1.0) < 1e-12:
            raw = s * np.log(u / s)
        else:
            raw = a * s**a / (1.0 - a) * (u ** (1.0 - a) - s ** (1.0 - a))
        return float(raw / self._mass)

    def variance(self) -> float:
        a, s, u = self._shape, self._scale, self._upper_bound
        if abs(a - 2.0) < 1e-12:
            raw2 = 2.0 * s**2 * np.log(u / s)
        else:
            raw2 = a * s**a / (2.0 - a) * (u ** (2.0 - a) - s ** (2.0 - a))
        second_moment = float(raw2 / self._mass)
        return max(second_moment - self.mean() ** 2, 0.0)

    def piecewise_pdf(self, resolution: Optional[int] = None) -> PiecewisePolynomial:
        bins = resolution or self.DEFAULT_RESOLUTION
        return Histogram.discretize(self, bins=bins).piecewise_pdf()

    def __repr__(self) -> str:
        return (
            f"TruncatedPareto(scale={self._scale:.6g}, shape={self._shape:.6g}, "
            f"upper={self._upper_bound:.6g})"
        )


__all__ = ["TruncatedPareto"]

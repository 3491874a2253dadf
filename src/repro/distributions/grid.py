"""Shared-grid numeric view of a set of score distributions.

The *grid* TPO engine evaluates the ordering-probability recursion of
Li & Deshpande (PVLDB'10) numerically instead of symbolically.  All
distributions are projected onto one common cell grid; densities live at
cell midpoints, cumulative quantities at cell edges.  Midpoint-rule
integration is exact for piecewise-constant pdfs whose breakpoints are grid
edges (we insert every distribution's support endpoints), and second-order
accurate otherwise — errors are far below the probability tolerance used to
prune negligible TPO branches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distributions.base import ScoreDistribution


class Grid:
    """A common integration grid for a family of distributions.

    Parameters
    ----------
    edges:
        Strictly increasing cell edges covering the union of supports.
    """

    def __init__(self, edges: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("grid needs at least two edges")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("grid edges must be strictly increasing")
        self.edges = edges
        self.mids = 0.5 * (edges[:-1] + edges[1:])
        self.widths = np.diff(edges)

    @classmethod
    def for_distributions(
        cls,
        dists: Sequence[ScoreDistribution],
        resolution: int = 1024,
    ) -> "Grid":
        """Build a grid covering all supports.

        Every distribution's support endpoints become grid edges (so
        piecewise-constant pdfs are integrated exactly); the rest of the
        span is filled so that no cell exceeds ``span / resolution``.
        """
        if not dists:
            raise ValueError("need at least one distribution")
        points = np.unique(np.array([[d.lower, d.upper] for d in dists], dtype=float))
        if points.size == 1:
            points = np.append(points, points[0] + 1e-9)
        lo, hi = points[0], points[-1]
        max_width = (hi - lo) / float(resolution)
        # Each segment holds the first ``pieces`` points of np.linspace(left,
        # right, pieces + 1), computed as it does: i · (span / pieces) + left.
        spans = np.diff(points)
        pieces = np.maximum(1, np.ceil(spans / max_width).astype(np.intp))
        first = np.repeat(np.cumsum(pieces) - pieces, pieces)
        index = np.arange(first.size, dtype=np.float64) - first
        edges = index * np.repeat(spans / pieces, pieces)
        edges += np.repeat(points[:-1], pieces)
        return cls(np.append(edges, hi))

    @property
    def cell_count(self) -> int:
        """Number of integration cells."""
        return self.mids.size

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------

    def density(self, dist: ScoreDistribution) -> np.ndarray:
        """Pdf evaluated at cell midpoints."""
        return np.asarray(dist.pdf(self.mids), dtype=float)

    def cdf(self, dist: ScoreDistribution) -> np.ndarray:
        """CDF evaluated at cell midpoints."""
        return np.asarray(dist.cdf(self.mids), dtype=float)

    def __repr__(self) -> str:
        return (
            f"Grid(cells={self.cell_count}, "
            f"span=[{self.edges[0]:.6g}, {self.edges[-1]:.6g}])"
        )


__all__ = ["Grid"]

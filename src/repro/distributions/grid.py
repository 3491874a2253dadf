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

from typing import List, Sequence

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
        critical = set()
        for d in dists:
            critical.add(float(d.lower))
            critical.add(float(d.upper))
        points = np.array(sorted(critical))
        lo, hi = points[0], points[-1]
        if hi <= lo:
            hi = lo + 1e-9
        max_width = (hi - lo) / float(resolution)
        edges: List[float] = []
        for left, right in zip(points[:-1], points[1:], strict=True):
            span = right - left
            if span <= 0:
                continue
            pieces = max(1, int(np.ceil(span / max_width)))
            edges.extend(np.linspace(left, right, pieces + 1)[:-1])
        edges.append(hi)
        return cls(np.asarray(edges))

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

    # ------------------------------------------------------------------
    # Integration primitives
    # ------------------------------------------------------------------

    def integral(self, cell_values: np.ndarray) -> float:
        """``∫ f`` with ``f`` given by midpoint values."""
        return float(np.dot(cell_values, self.widths))

    def upper_tail(self, cell_values: np.ndarray) -> np.ndarray:
        """``T_i = ∫_{mid_i}^{∞} f`` for every cell midpoint ``mid_i``.

        The tail from a midpoint contains half of the cell's own mass plus
        all later cells.
        """
        masses = cell_values * self.widths
        # reversed cumulative sum, excluding the cell itself
        after = np.concatenate([np.cumsum(masses[::-1])[::-1][1:], [0.0]])
        return after + 0.5 * masses

    def __repr__(self) -> str:
        return (
            f"Grid(cells={self.cell_count}, "
            f"span=[{self.edges[0]:.6g}, {self.edges[-1]:.6g}])"
        )


__all__ = ["Grid"]

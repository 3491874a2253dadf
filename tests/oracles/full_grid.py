"""The full-grid TPO build, kept as a parity oracle.

Before the support-windowed build, ``repro.tpo.builders.GridBuilder``
kept the frontier's prefix densities as one ``(W, C)`` matrix over the
whole grid, took every upper tail with a ``cumsum`` across all ``C``
cells, and computed each candidate set's exclude-one CDF products on
every cell for every candidate.  This module preserves that path — same
grouping, full-width matmul operands — so the parity tests can hold the
windowed engine's levels to it: equal tuple ids and parent indices,
masses within a relative 1e-12.  Like the engine, it copies a twin's
(equal projections) child mass from its parent's first twin, so exact
ties break the same way under a beam.

It is intentionally *not* registered in ``repro.api.ENGINES``.  The
per-segment ``np.linspace`` loop that laid out the grid edges before
:meth:`Grid.for_distributions` was vectorized is kept here too
(:func:`loop_grid_edges`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.distributions.base import ScoreDistribution
from repro.distributions.grid import Grid
from repro.tpo.builders import GridBuilder, _effective
from repro.tpo.tree import TPOTree


class FullGridBuilder(GridBuilder):
    """:class:`GridBuilder` computing every grid cell of every step."""

    def _initialize(self, tree: TPOTree) -> None:
        dists = [_effective(d) for d in tree.distributions]
        grid = Grid.for_distributions(dists, self.resolution)
        densities = np.stack([grid.density(d) for d in dists])
        cdfs = np.stack([grid.cdf(d) for d in dists])
        tree.engine_cache = _FullGridCache(grid, densities, cdfs)

    def extend(self, tree: TPOTree) -> None:
        cache: _FullGridCache = tree.engine_cache
        grid = cache.grid
        depth = tree.built_depth
        if depth >= tree.k:
            return
        cells = grid.cell_count
        remaining = self._remaining_candidates(tree)
        width, m = remaining.shape
        if depth == 0:
            tails = np.ones((1, cells), dtype=np.float64)
        else:
            tails = _upper_tail_rows(cache.frontier_h, grid)
        sets, inverse = np.unique(remaining, axis=0, return_inverse=True)
        order = np.argsort(inverse.ravel(), kind="stable")
        bounds = np.append(
            np.flatnonzero(np.diff(inverse.ravel()[order], prepend=-1)),
            order.size,
        )
        probs = np.empty((width, m), dtype=np.float64)
        created = 0
        anytime = self.beam_active
        for group in range(sets.shape[0]):
            rows = order[bounds[group] : bounds[group + 1]]
            cand = sets[group]
            integrand = (
                cache.densities[cand]
                * _exclude_one_products(cache.cdfs[cand])
                * grid.widths
            )
            block = tails[rows] @ integrand.T  # (W_g, m)
            twins = cache.twin[cand]
            block = block[:, (twins[:, None] == twins[None, :]).argmax(axis=1)]
            probs[rows] = block
            if not anytime:
                created += int(
                    np.count_nonzero(block > self.min_probability)
                )
                self._check_size(tree, created)
        keep_flat, loss = self._apply_beam(
            probs, probs.ravel() > self.min_probability
        )
        if anytime:
            self._check_size(tree, int(np.count_nonzero(keep_flat)))
        keep_rows, keep_cols = np.nonzero(keep_flat.reshape(width, m))
        child_tuples = remaining[keep_rows, keep_cols]
        if depth + 1 < tree.k:
            cache.frontier_h = cache.densities[child_tuples] * tails[keep_rows]
        else:
            cache.frontier_h = None
        tree.append_level(
            child_tuples, keep_rows, probs[keep_rows, keep_cols]
        )
        if loss is not None:
            tree.record_level_loss(*loss)


class _FullGridCache:
    """Grid projections, each tuple's first twin, and the ``(W, C)``
    frontier density matrix."""

    __slots__ = ("grid", "densities", "cdfs", "twin", "frontier_h")

    def __init__(
        self, grid: Grid, densities: np.ndarray, cdfs: np.ndarray
    ) -> None:
        self.grid = grid
        self.densities = densities
        self.cdfs = cdfs
        _, first, inverse = np.unique(
            np.hstack((densities, cdfs)),
            axis=0,
            return_index=True,
            return_inverse=True,
        )
        self.twin = first[inverse.ravel()]
        self.frontier_h: Optional[np.ndarray] = None

    def prune_frontier(
        self, alive: np.ndarray, index_map: np.ndarray
    ) -> None:
        """Drop the prefix-density rows of pruned frontier nodes."""
        if self.frontier_h is not None:
            self.frontier_h = self.frontier_h[alive]


def _upper_tail_rows(cell_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Row-wise upper tails ``T_i = ∫_{mid_i}^∞ f`` of a ``(W, C)`` matrix.

    The tail from a cell midpoint holds half of the cell's own mass plus
    every later cell's.
    """
    masses = cell_values * grid.widths
    suffix = np.cumsum(masses[:, ::-1], axis=1)[:, ::-1]
    after = np.concatenate(
        [suffix[:, 1:], np.zeros((masses.shape[0], 1), dtype=np.float64)],
        axis=1,
    )
    return after + 0.5 * masses


def _exclude_one_products(stacked: np.ndarray) -> np.ndarray:
    """Products of all *other* rows: ``out[i, :] = Π_{j≠i} rows[j, :]``.

    Computed with prefix/suffix cumulative products in O(m·C); avoids the
    numerically hazardous divide-by-row alternative (CDFs are 0 on the
    left of each support).
    """
    m = stacked.shape[0]
    if m == 1:
        return np.ones_like(stacked)
    prefix = np.ones_like(stacked)
    suffix = np.ones_like(stacked)
    for i in range(1, m):
        prefix[i] = prefix[i - 1] * stacked[i - 1]
    for i in range(m - 2, -1, -1):
        suffix[i] = suffix[i + 1] * stacked[i + 1]
    return prefix * suffix


def loop_grid_edges(
    dists: Sequence[ScoreDistribution], resolution: int
) -> np.ndarray:
    """The grid edges, one ``np.linspace`` per segment between the sorted
    support endpoints (two or more), each cut to cells of at most
    ``span / resolution``."""
    points = np.array(sorted({float(x) for d in dists for x in (d.lower, d.upper)}))
    lo, hi = points[0], points[-1]
    max_width = (hi - lo) / float(resolution)
    edges: List[float] = []
    for left, right in zip(points[:-1], points[1:], strict=True):
        pieces = max(1, int(np.ceil((right - left) / max_width)))
        edges.extend(np.linspace(left, right, pieces + 1)[:-1])
    edges.append(hi)
    return np.asarray(edges)

"""TPO construction engines over the flat level-table tree.

All builders implement the same level-by-level recursion for prefix-ranking
probabilities (Li & Deshpande, PVLDB'10): with independent score variables,
the event "prefix ``t_1 ≻ … ≻ t_d`` is the top-d ranking" has probability

``Pr = ∫ h_d(x) · Π_{j ∉ prefix} F_j(x) dx``, where
``h_1 = f_{t_1}`` and ``h_{d+1}(x) = f_{t_{d+1}}(x) · ∫_x^∞ h_d(u) du``.

``h_d`` — the *prefix density* — is what makes one-level extension (and
hence the paper's ``incr`` algorithm) cheap.  Since the flat level-table
refactor, it no longer lives on per-node objects: each engine keeps a
payload *indexed by the frontier level's rows* in ``tree.engine_cache``
(for the grid engine, blocks of cell masses grouped by each row's last
tuple and cut to that tuple's support band; a list of piecewise
polynomials for the exact engine; a sample→node index vector for Monte
Carlo) and extends the whole frontier in one batched pass — no Python
loop over nodes on the numeric hot path.

Three interchangeable engines:

* :class:`ExactBuilder` — closed-form piecewise-polynomial integration;
  exact for the polynomial distribution family, used as ground truth.
* :class:`GridBuilder` — vectorized midpoint integration on a shared grid;
  the default workhorse.
* :class:`MonteCarloBuilder` — empirical tree over joint score samples;
  used for cross-validation and very large instances.

The engines deliberately ship different ``min_probability`` defaults —
grid ``1e-9`` (matches its integration error), exact ``1e-12`` (the
polynomial calculus is precise enough to keep far smaller branches), and
Monte Carlo ``0.0`` (an empirical count is either zero or at least
``1/samples``, so a threshold would silently shadow the sample budget).
The defaults are part of the engine signature that keys the TPO cache
(see :meth:`repro.api.specs.EngineSpec.signature_for`) and are pinned by
the dtype/default contract tests.

**Anytime beam.**  Every engine also supports a mass-bounded beam:
``beam_epsilon`` is a per-level lost-mass budget (the lightest candidate
children are dropped while the level's cumulative dropped mass stays
within it) and ``beam_width`` caps each level at the W heaviest
children.  Because sibling masses partition their parent's mass, the
dropped prefix mass is an exact upper bound on the ordering mass lost
through the dropped subtrees, so a beam build certifies
``tree.lost_mass ≤ beam_epsilon · levels`` (when the width cap does not
bind) and every retained ordering keeps its exact mass.  With the beam
off, construction is bit-identical to the exact path.

The retired pointer-chasing grid path and the full-grid (unwindowed)
batched path survive only as parity oracles in the test suite
(``tests/oracles/pointer_tpo.py``, ``tests/oracles/full_grid.py``).
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.api.catalog import ENGINES
from repro.distributions.base import ScoreDistribution
from repro.distributions.grid import Grid
from repro.distributions.piecewise import PiecewisePolynomial, product
from repro.distributions.uniform import Uniform
from repro.tpo.tree import TPOTree
from repro.utils.rng import SeedLike, ensure_rng

def _effective(dist: ScoreDistribution) -> ScoreDistribution:
    """Replace deterministic scores by negligible-width intervals.

    The continuous engines integrate densities; an atom has none, so a
    point mass is modeled as a uniform of width ``1e-9`` around its value.
    The substitution changes no ordering probability by more than the
    engines' own tolerance.
    """
    if dist.is_deterministic:
        value = dist.lower
        half = 5e-10 * max(1.0, abs(value))
        return Uniform(value - half, value + half)
    return dist


class TPOSizeError(RuntimeError):
    """Raised when a TPO would exceed the configured ordering budget.

    Exponentially bushy trees are the motivation for the paper's ``incr``
    algorithm; this guard turns an out-of-memory crash into an actionable
    error suggesting a narrower workload, a smaller K, ``incr``, or the
    anytime beam (``beam_epsilon`` / ``beam_width``).
    """


class TPOBuilder(abc.ABC):
    """Common interface of the TPO construction engines.

    ``build`` materializes all K levels; ``extend`` adds exactly one level
    to a partially built tree (the hook the ``incr`` algorithm uses).
    """

    #: Children with probability below this are not materialized.
    min_probability: float

    def __init__(
        self,
        min_probability: float = 1e-9,
        max_orderings: int = 200000,
        beam_epsilon: float = 0.0,
        beam_width: Optional[int] = None,
    ) -> None:
        if min_probability < 0:
            raise ValueError("min_probability must be non-negative")
        if max_orderings < 1:
            raise ValueError("max_orderings must be positive")
        if not 0.0 <= beam_epsilon < 1.0:
            raise ValueError(
                f"beam_epsilon must lie in [0, 1), got {beam_epsilon}"
            )
        if beam_width is not None and beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        self.min_probability = min_probability
        self.max_orderings = max_orderings
        self.beam_epsilon = float(beam_epsilon)
        self.beam_width = beam_width

    @property
    def beam_active(self) -> bool:
        """True when either anytime-beam knob is engaged."""
        return self.beam_epsilon > 0.0 or self.beam_width is not None

    def _check_size(self, tree: TPOTree, level_width: int) -> None:
        """Abort level construction that exceeds ``max_orderings``."""
        if level_width > self.max_orderings:
            raise TPOSizeError(
                f"TPO level {tree.built_depth + 1} holds {level_width} "
                f"orderings, above the limit of {self.max_orderings}; "
                "narrow the score pdfs, lower k, use the incr algorithm, "
                "or build anytime with a beam (try beam_epsilon=1e-3 per "
                f"level, or beam_width={self.max_orderings}) for a "
                "certified approximation"
            )

    def _apply_beam(
        self, probs: np.ndarray, keep: np.ndarray
    ) -> Tuple[np.ndarray, Optional[Tuple[float, float, int]]]:
        """Apply the anytime beam to one level's candidate children.

        ``probs``/``keep`` are flat, parent-major-aligned arrays of every
        candidate child's prefix mass and the ``min_probability``
        survivor mask.  The beam (a) drops the lightest survivors while
        the level's cumulative dropped mass — counting what
        ``min_probability`` already discarded — stays within the
        ``beam_epsilon`` budget, and (b) caps the level at the
        ``beam_width`` heaviest survivors.  Both steps break mass ties
        toward keeping the earlier (parent-major) child, so beam builds
        are deterministic.  At least one child always survives.

        Returns ``(keep, loss)`` where ``loss`` is the
        ``(mass, node_max, count)`` triple for
        :meth:`TPOTree.record_level_loss`, or ``None`` when the beam is
        off (the mask is returned untouched) or nothing was dropped.
        """
        probs = np.asarray(probs, dtype=float).reshape(-1)
        keep = np.asarray(keep, dtype=bool).reshape(-1)
        if not self.beam_active:
            return keep, None
        keep = keep.copy()
        total = float(probs.sum())
        dropped_mass = total - float(probs[keep].sum())
        if self.beam_epsilon > 0.0:
            survivors = np.flatnonzero(keep)
            if survivors.size > 1:
                order = np.argsort(probs[survivors], kind="stable")
                cumulative = dropped_mass + np.cumsum(
                    probs[survivors[order]]
                )
                cut = int(
                    np.searchsorted(
                        cumulative, self.beam_epsilon, side="right"
                    )
                )
                cut = min(cut, survivors.size - 1)
                if cut > 0:
                    keep[survivors[order[:cut]]] = False
        if self.beam_width is not None:
            survivors = np.flatnonzero(keep)
            if survivors.size > self.beam_width:
                order = np.argsort(-probs[survivors], kind="stable")
                keep[survivors[order[self.beam_width :]]] = False
        dropped = ~keep & (probs > 0.0)
        if not dropped.any():
            return keep, None
        lost = float(probs[dropped].sum())
        if lost <= 0.0:
            return keep, None
        return keep, (lost, float(probs[dropped].max()), int(dropped.sum()))

    def build(self, distributions: Sequence[ScoreDistribution], k: int) -> TPOTree:
        """Materialize the full depth-K tree of possible orderings."""
        tree = self.start(distributions, k)
        while not tree.is_complete:
            self.extend(tree)
        tree.renormalize()
        return tree

    def start(
        self, distributions: Sequence[ScoreDistribution], k: int
    ) -> TPOTree:
        """Create an empty tree and attach engine state (no levels built)."""
        tree = TPOTree(distributions, k)
        self._initialize(tree)
        return tree

    @abc.abstractmethod
    def _initialize(self, tree: TPOTree) -> None:
        """Attach engine-specific caches to a fresh tree."""

    @abc.abstractmethod
    def extend(self, tree: TPOTree) -> None:
        """Materialize one more level of ``tree``."""

    def _remaining_candidates(self, tree: TPOTree) -> np.ndarray:
        """``(W, N − depth)`` per-frontier-node candidate tuples, ascending.

        Every depth-``d`` prefix holds ``d`` distinct tuples, so each
        frontier node has exactly ``N − d`` candidates; row-major
        ``np.nonzero`` of the absent-tuple mask yields them sorted, which
        reproduces the pointer-era child order exactly.
        """
        n = tree.n_tuples
        depth = tree.built_depth
        if depth == 0:
            return np.arange(n, dtype=np.intp).reshape(1, n)
        paths = tree.paths_at_depth(depth)
        width = paths.shape[0]
        present = np.zeros((width, n), dtype=bool)
        present[np.arange(width)[:, None], paths] = True
        return np.nonzero(~present)[1].reshape(width, n - depth)


# ----------------------------------------------------------------------
# Grid engine
# ----------------------------------------------------------------------


class GridBuilder(TPOBuilder):
    """Numeric TPO construction on a shared integration grid.

    ``extend`` is one batched pass over the whole frontier, and every
    numeric step runs only where its result is read:

    * each frontier row's prefix mass lives on its last tuple's grid
      support band (``h_{d+1} = f_t · T(h_d)`` vanishes outside
      ``supp f_t``), so its upper tail is one ``cumsum`` inside the band
      — left of it the tail is the row mass, right of it zero;
    * the frontier is grouped by candidate *set* (``m = N − depth``
      tuples), and all sets' exclude-one CDF-product integrands come out
      of one stacked pass, each only on its set's window and only for its
      live candidates (see :meth:`_GridCache.set_windows`);
    * each group's children drop out of one ``(W_g, span) × (span, live)``
      product of its tails and integrands, both cut to the set's window
      and the integrand to its live candidates.

    The integrand is an exact zero outside its window (a skipped CDF
    factor an exact one), so cutting the product drops only exact-zero
    terms; it changes the summation order, though, so levels agree with
    a full-grid build to a relative ``1e-12``, not bit for bit.  Twins
    (tuples with equal grid projections) get exactly tied children.

    Parameters
    ----------
    resolution:
        Target number of grid cells across the union of supports.
    min_probability:
        Branches below this probability are dropped (their total mass is
        bounded by ``N · min_probability`` per level).
    """

    def __init__(
        self,
        resolution: int = 1024,
        min_probability: float = 1e-9,
        max_orderings: int = 200000,
        beam_epsilon: float = 0.0,
        beam_width: Optional[int] = None,
    ) -> None:
        super().__init__(
            min_probability, max_orderings, beam_epsilon, beam_width
        )
        if resolution < 8:
            raise ValueError(f"resolution must be >= 8, got {resolution}")
        self.resolution = resolution

    def _initialize(self, tree: TPOTree) -> None:
        dists = [_effective(d) for d in tree.distributions]
        grid = Grid.for_distributions(dists, self.resolution)
        densities = np.stack([grid.density(d) for d in dists])
        cdfs = np.stack([grid.cdf(d) for d in dists])
        tree.engine_cache = _GridCache(grid, densities, cdfs)

    def extend(self, tree: TPOTree) -> None:
        cache: _GridCache = tree.engine_cache
        depth = tree.built_depth
        if depth >= tree.k:
            return
        sets, inverse, order, bounds = _candidate_sets(tree)
        width = inverse.size
        m = sets.shape[1]
        reaches, starts, stops, live = cache.set_windows(sets)
        twins = cache.set_twins(sets)

        # The child probability ∫ f_t · T_node · Π_{j≠t} F_j factors into
        # (tail of the node) × (integrand of the candidate *set*): the
        # exclude-one CDF products depend on which tuples remain, not on
        # the order the prefix ranked them.  Group the frontier by
        # candidate set; all of a group's children drop out of one product
        # of its rows' tails, cut to the set's window, with its live
        # candidates' integrand rows.  Dead candidates (and every
        # candidate of a set with an empty window) keep zero children.
        tails, at = cache.frontier_tails(
            reaches[inverse], starts[inverse], stops[inverse]
        )
        ranked_at = at[order]
        probs = np.zeros((width, m), dtype=np.float64)
        # Counting per set aborts a runaway level early, if it can run away;
        # a beam decides what survives once the level is known (post-beam).
        counting = not self.beam_active and width * m > self.max_orderings
        created = 0
        for group, columns, values in cache.set_integrands(sets, starts, stops, live):
            members = slice(bounds[group], bounds[group + 1])
            rows = order[members]
            window = tails[ranked_at[members], starts[group] : stops[group]]
            probs[rows[:, None], columns] = window @ values.T
            if group in twins:
                probs[rows] = probs[rows[:, None], twins[group]]
            if counting:
                created += int(np.count_nonzero(probs[rows] > self.min_probability))
                self._check_size(tree, created)
        keep_flat, loss = self._apply_beam(
            probs, probs.ravel() > self.min_probability
        )
        if self.beam_active:
            self._check_size(tree, int(np.count_nonzero(keep_flat)))
        keep_rows, keep_cols = np.nonzero(keep_flat.reshape(width, m))
        child_tuples = sets[inverse[keep_rows], keep_cols]
        if depth + 1 < tree.k:
            cache.set_frontier(child_tuples, tails, at[keep_rows])
        else:
            # The deepest level never extends again, so its (far widest)
            # prefix masses are never materialized at all.
            cache.frontier, cache.width = [], 0
        tree.append_level(
            child_tuples, keep_rows, probs[keep_rows, keep_cols]
        )
        if loss is not None:
            tree.record_level_loss(*loss)


def _candidate_sets(
    tree: TPOTree,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the frontier rows by the tuples their prefixes leave.

    Returns ``(sets, inverse, order, bounds)``: ``sets`` is
    ``(G, N − depth)``, each row the ascending tuples a frontier prefix
    has not ranked yet, in lexicographic row order; ``inverse[w]`` is
    frontier row ``w``'s set; ``order[bounds[g]:bounds[g + 1]]`` are set
    ``g``'s rows, ascending.  Rows are keyed by their sorted prefix
    (``depth ≤ K`` columns, never the ``N − depth`` remaining ones), and
    descending prefixes complement to ascending candidate sets.
    """
    n = tree.n_tuples
    depth = tree.built_depth
    if depth == 0:
        one = np.zeros(1, dtype=np.intp)
        return np.arange(n, dtype=np.intp).reshape(1, n), one, one, np.arange(2)
    prefixes = np.sort(tree.paths_at_depth(depth), axis=1)
    width = prefixes.shape[0]
    order = np.lexsort(-prefixes[:, ::-1].T)
    ranked = prefixes[order]
    fresh = np.ones(width, dtype=bool)
    fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(width, dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    unique = ranked[fresh]
    count = unique.shape[0]
    present = np.zeros((count, n), dtype=bool)
    present[np.arange(count)[:, None], unique] = True
    sets = np.nonzero(~present)[1].reshape(count, n - depth)
    return sets, inverse, order, np.append(np.flatnonzero(fresh), width)


#: Cells (``G · L · span``) of one stacked integrand pass, bounding its memory.
_INTEGRAND_CELLS = 1 << 18


class _GridCache:
    """Per-tree numeric context for :class:`GridBuilder`.

    ``masses``/``cdfs`` are the ``(N, C)`` grid projections, a mass being
    the midpoint density times the cell width, and ``[lo[t], hi[t])`` is
    tuple ``t``'s support band: its first to its last non-zero density
    cell.  ``first[t] ≤ lo[t]`` is the first cell where ``t``'s density
    *or* CDF is non-zero, and from ``settled[t]`` on its CDF is exactly
    1.0.  ``twin[t]`` is the smallest tuple whose grid projections equal
    ``t``'s bit for bit (``None`` when no two tuples share them).

    ``frontier`` holds the deepest level's prefix masses as blocks
    ``(t, rows, h)``: the frontier rows whose last tuple is ``t``, and
    their cell masses on ``t``'s band only, a ``(len(rows), hi[t] − lo[t])``
    matrix (``None`` before the first level).  It is the only mutable
    piece, replaced wholesale on every extension and remapped by
    :meth:`prune_frontier` when the tree is pruned mid-build.
    """

    __slots__ = (
        "grid",
        "masses",
        "cdfs",
        "lo",
        "hi",
        "first",
        "settled",
        "twin",
        "frontier",
        "width",
    )

    def __init__(
        self, grid: Grid, densities: np.ndarray, cdfs: np.ndarray
    ) -> None:
        self.grid = grid
        self.masses = densities * grid.widths
        self.cdfs = cdfs
        self.lo = _first_true(densities != 0.0)
        self.hi = _end_of_last_true(densities != 0.0)
        self.first = np.minimum(self.lo, _first_true(cdfs != 0.0))
        self.settled = _end_of_last_true(cdfs != 1.0)
        # Keyed by each row's bytes: ``np.unique(axis=0)`` compares rows
        # field by field, ≈15 ms per 18-tuple tree at 1024 cells on a
        # 2-vCPU VM.
        seen: Dict[bytes, int] = {}
        twin = np.array(
            [
                seen.setdefault(row.tobytes(), t)
                for t, row in enumerate(np.hstack((self.masses, cdfs)))
            ],
            dtype=np.intp,
        )
        self.twin = None if len(seen) == twin.size else twin
        self.frontier: Optional[List[Tuple[int, np.ndarray, np.ndarray]]]
        self.frontier = None
        self.width = 1

    def frontier_tails(
        self, reaches: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Upper tails ``T(h)`` of the frontier's prefix masses, where read.

        Returns ``(tails, at)``: frontier row ``w``'s tail is row ``at[w]``
        of the ``(W, C)`` tails, a block's rows consecutive.  Only cells
        ``[reaches[w], stops[w])`` are written: its set's window
        ``[starts[w], stops[w])``, which the set's product reads, widened
        left to the bands of the candidates that may become its children
        (:meth:`set_frontier` reads the tail there).  Per block, from its
        rows' smallest reach to their largest stop: in the band the
        reversed ``cumsum`` of the masses (from the right, so cells left
        of the first window start are skipped) less half the cell's own,
        right of it exact zeros, left of it the row mass down to the
        smallest window start and zeros below.  The root's tail is 1
        everywhere.

        The tail is exact from a row's window start on.  Left of it a
        child's band may read an inexact (finite) value, so the child's
        mass is off left of the window start ``first[u]`` (``u`` the
        candidate fixing it); but while ``u`` is unranked every later
        window starts at or after ``first[u]``, where a tail sums only
        cells right of it, and once ``u`` is ranked its band lies right of
        ``first[u]``.
        """
        cells = self.grid.cell_count
        if self.frontier is None:
            return np.ones((1, cells), dtype=np.float64), np.zeros(1, dtype=np.intp)
        tails = np.empty((self.width, cells), dtype=np.float64)
        at = np.empty(self.width, dtype=np.intp)
        end = 0
        for t, rows, h in self.frontier:
            begin, end = end, end + rows.size
            at[rows] = np.arange(begin, end)
            tail = tails[begin:end]
            reach, left = reaches[rows].min(), starts[rows].min()
            hi = self.hi[t]
            lo = min(max(left, self.lo[t]), hi)
            band = h[:, lo - self.lo[t] :]
            np.cumsum(band[:, ::-1], axis=1, out=tail[:, lo:hi][:, ::-1])
            tail[:, reach:left] = 0.0
            tail[:, left:lo] = tail[:, lo : lo + 1]
            tail[:, lo:hi] -= band * 0.5
            tail[:, hi : stops[rows].max()] = 0.0
        return tails, at

    def set_windows(
        self, sets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per candidate set, the cell window its integrand can fill.

        Left of ``start`` (the set's largest ``first``) the tuple holding
        it has zero density and a zero CDF, so every candidate's
        integrand vanishes there.  A candidate is *live* unless its
        density ends and its CDF is exactly 1.0 by ``start``; a dead
        candidate's integrand row is zero and its CDF factor an exact 1.0
        on the whole window, so dropping it changes no bit.  The window
        ends at the live candidates' largest ``hi``.  ``reach`` is the
        first cell of any band a child of the set can have: only a
        candidate with density right of ``start`` gets a non-zero child.
        Returns ``(reaches, starts, stops, live)``; ``stops ≤ starts``
        means an all-zero integrand.
        """
        starts = self.first[sets].max(axis=1)
        hi = self.hi[sets]
        dense = hi > starts[:, None]
        live = dense | (self.settled[sets] > starts[:, None])
        stops = np.where(live, hi, 0).max(axis=1)
        reaches = np.where(dense, self.lo[sets], starts[:, None]).min(axis=1)
        return reaches, starts, stops, live

    def set_twins(self, sets: np.ndarray) -> Dict[int, np.ndarray]:
        """Per candidate set holding twins, each candidate's first twin's
        column, keyed by the set's index.

        Twins have equal projections, so their children under one parent
        have equal masses; copying the first twin's column makes them tie
        exactly (one product may round equal columns differently), as the
        beam's tie-breaking toward the earlier child expects.  Sets
        without two twins are left out.
        """
        if self.twin is None:
            return {}
        twins = self.twin[sets]
        columns = (twins[:, :, None] == twins[:, None, :]).argmax(axis=2)
        moved = (columns != np.arange(sets.shape[1])).any(axis=1)
        return {int(group): columns[group] for group in np.flatnonzero(moved)}

    def set_integrands(
        self, sets: np.ndarray, starts: np.ndarray, stops: np.ndarray, live: np.ndarray
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(group, columns, values)`` per set with a non-empty window.

        ``values[i]`` is ``Π_{j≠t} F_j`` times ``t``'s cell mass on cells
        ``[starts[group], stops[group])`` for the live candidate
        ``t = sets[group, columns[i]]``.  All sets run as one stacked
        ``(G, L, span)`` pass over strided window views (shifted left where
        a window would run past the grid), their live candidates padded
        with sentinel rows whose CDF is exactly 1.0: a factor 1.0 is exact,
        so every value equals the per-set product bit for bit.
        """
        spans = stops - starts
        groups = np.flatnonzero(spans > 0)
        counts = live.sum(axis=1)
        columns = np.argsort(~live, axis=1, kind="stable")
        rows = int(counts[groups].max(initial=1))
        span = int(spans[groups].max(initial=1))
        shifted = np.minimum(starts, self.grid.cell_count - span)
        cdfs, masses = (  # view[..., a, :] = t[..., a : a + span]
            as_strided(t, (*t.shape[:-1], t.shape[-1] - span + 1, span),
                       (*t.strides, t.strides[-1]), writeable=False)
            for t in (self.cdfs, self.masses)
        )
        step = max(1, _INTEGRAND_CELLS // (rows * span))
        for part in np.split(groups, np.arange(step, groups.size, step)):
            cand = sets[part[:, None], columns[part, :rows]]
            at = shifted[part, None]
            stacked = cdfs[cand, at]
            stacked[np.arange(rows) >= counts[part, None]] = 1.0
            values = np.empty_like(stacked)
            values[:, 0] = 1.0
            for i in range(1, rows):
                np.multiply(values[:, i - 1], stacked[:, i - 1], out=values[:, i])
            suffix = np.ones_like(stacked[:, 0])
            for i in range(rows - 2, -1, -1):
                suffix *= stacked[:, i + 1]
                values[:, i] *= suffix
            values *= masses[cand, at]
            for group, block, first in zip(
                part, values, starts[part] - at[:, 0], strict=True
            ):
                live_rows, cells = counts[group], slice(first, first + spans[group])
                yield int(group), columns[group, :live_rows], block[:live_rows, cells]

    def set_frontier(
        self, child_tuples: np.ndarray, tails: np.ndarray, parents: np.ndarray
    ) -> None:
        """Install the new level's banded prefix masses ``m_t · T(h_parent)``.

        ``parents[w]`` is the row of ``tails`` holding child ``w``'s
        parent tail.
        """
        order = np.argsort(child_tuples, kind="stable")
        ranked = child_tuples[order]
        cuts = np.flatnonzero(np.diff(ranked, prepend=-1))
        blocks = []
        for begin, end in zip(cuts, np.append(cuts[1:], order.size)):
            t = int(ranked[begin])
            rows = order[begin:end]
            lo, hi = self.lo[t], self.hi[t]
            h = self.masses[t, lo:hi] * tails[parents[rows], lo:hi]
            blocks.append((t, rows, h))
        self.frontier = blocks
        self.width = int(child_tuples.size)

    def prune_frontier(
        self, alive: np.ndarray, index_map: np.ndarray
    ) -> None:
        """Drop pruned frontier rows and renumber the survivors."""
        if self.frontier is None:
            return
        blocks = []
        for t, rows, h in self.frontier:
            keep = alive[rows]
            if keep.any():
                blocks.append((t, index_map[rows[keep]], h[keep]))
        self.frontier = blocks
        self.width = int(np.count_nonzero(alive))


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Per row, the index of the first True (the row length if none)."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), mask.shape[1])


def _end_of_last_true(mask: np.ndarray) -> np.ndarray:
    """Per row, one past the index of the last True (0 if none)."""
    return mask.shape[1] - _first_true(mask[:, ::-1])


# ----------------------------------------------------------------------
# Exact engine
# ----------------------------------------------------------------------


class ExactBuilder(TPOBuilder):
    """Closed-form TPO construction via piecewise-polynomial calculus.

    Exact for uniform, triangular, histogram, and point-mass scores; smooth
    distributions are first discretized through their
    :meth:`~repro.distributions.base.ScoreDistribution.piecewise_pdf`.
    Intended for small instances (it is the test oracle for the other
    engines); cost grows with the product polynomial degrees, roughly
    ``O(nodes · N² · pieces)``.  Per-frontier prefix densities are a list
    of polynomials aligned with the top level's rows; the node loop stays
    in Python because the polynomial calculus itself dominates.
    """

    def __init__(
        self,
        min_probability: float = 1e-12,
        resolution: Optional[int] = None,
        max_orderings: int = 200000,
        beam_epsilon: float = 0.0,
        beam_width: Optional[int] = None,
    ) -> None:
        super().__init__(
            min_probability, max_orderings, beam_epsilon, beam_width
        )
        self.resolution = resolution

    def _initialize(self, tree: TPOTree) -> None:
        dists = [_effective(d) for d in tree.distributions]
        lo = min(d.lower for d in dists)
        hi = max(d.upper for d in dists)
        pdfs = [d.piecewise_pdf(self.resolution) for d in dists]
        cdfs = [
            p.antiderivative().extend_right_constant(hi).extend_domain(lo, hi)
            for p in pdfs
        ]
        tree.engine_cache = _ExactCache(lo, hi, pdfs, cdfs)

    def extend(self, tree: TPOTree) -> None:
        cache: _ExactCache = tree.engine_cache
        depth = tree.built_depth
        if depth >= tree.k:
            return
        remaining = self._remaining_candidates(tree)
        if depth == 0:
            tails: List[Optional[PiecewisePolynomial]] = [None]
        else:
            tails = [
                _upper_tail_poly(h, cache.lo, cache.hi)
                for h in cache.frontier_polys
            ]
        tuple_ids: List[int] = []
        parent_idx: List[int] = []
        probs: List[float] = []
        new_polys: List[PiecewisePolynomial] = []
        anytime = self.beam_active
        # A beam ranks the whole level, so it collects all positive mass.
        threshold = 0.0 if anytime else self.min_probability
        for parent, (candidates, tail) in enumerate(zip(remaining, tails, strict=True)):
            for position, t in enumerate(candidates):
                others = np.delete(candidates, position)
                h_child = (
                    cache.pdfs[t] if tail is None else cache.pdfs[t] * tail
                )
                if h_child.is_zero():
                    continue
                integrand = h_child
                if others.size:
                    integrand = h_child * product(
                        [cache.cdfs[j] for j in others]
                    )
                prob = integrand.definite_integral()
                if prob > threshold:
                    tuple_ids.append(int(t))
                    parent_idx.append(parent)
                    probs.append(float(prob))
                    new_polys.append(h_child)
            if not anytime:
                self._check_size(tree, len(tuple_ids))
        if anytime:
            probs_arr = np.asarray(probs, dtype=float)
            keep, loss = self._apply_beam(
                probs_arr, probs_arr > self.min_probability
            )
            self._check_size(tree, int(np.count_nonzero(keep)))
            kept = np.flatnonzero(keep)
            tuple_ids = [tuple_ids[i] for i in kept]
            parent_idx = [parent_idx[i] for i in kept]
            probs = [probs[i] for i in kept]
            new_polys = [new_polys[i] for i in kept]
        else:
            loss = None
        cache.frontier_polys = new_polys
        tree.append_level(
            np.asarray(tuple_ids), np.asarray(parent_idx), np.asarray(probs)
        )
        if loss is not None:
            tree.record_level_loss(*loss)


class _ExactCache:
    """Per-tree symbolic context for :class:`ExactBuilder`."""

    __slots__ = ("lo", "hi", "pdfs", "cdfs", "frontier_polys")

    def __init__(
        self,
        lo: float,
        hi: float,
        pdfs: List[PiecewisePolynomial],
        cdfs: List[PiecewisePolynomial],
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.pdfs = pdfs
        self.cdfs = cdfs
        self.frontier_polys: List[PiecewisePolynomial] = []

    def prune_frontier(
        self, alive: np.ndarray, index_map: np.ndarray
    ) -> None:
        """Drop the prefix-density polynomials of pruned frontier nodes."""
        if self.frontier_polys:
            self.frontier_polys = [
                poly
                for poly, keep in zip(self.frontier_polys, alive, strict=True)
                if keep
            ]


def _upper_tail_poly(
    h: PiecewisePolynomial, lo: float, hi: float
) -> PiecewisePolynomial:
    """``T(x) = ∫_x^∞ h`` as a piecewise polynomial on ``[lo, hi]``."""
    total = h.definite_integral()
    antiderivative = (
        h.antiderivative().extend_right_constant(hi).extend_domain(lo, hi)
    )
    return PiecewisePolynomial.constant(total, lo, hi) - antiderivative


# ----------------------------------------------------------------------
# Monte Carlo engine
# ----------------------------------------------------------------------


class MonteCarloBuilder(TPOBuilder):
    """Empirical TPO over joint samples of the score vector.

    The engine cache maps every sample to the frontier node whose prefix
    it is consistent with (``-1`` once dropped), so extension is one
    global stable group-by over ``(node, next_tuple)`` keys — a single
    argsort of the active samples replaces the pointer-era per-node
    argsorts.  The tree converges to the exact one as ``samples → ∞`` at
    the usual ``O(1/√M)`` rate.
    """

    def __init__(
        self,
        samples: int = 20000,
        seed: SeedLike = None,
        min_probability: float = 0.0,
        max_orderings: int = 200000,
        beam_epsilon: float = 0.0,
        beam_width: Optional[int] = None,
    ) -> None:
        super().__init__(
            min_probability, max_orderings, beam_epsilon, beam_width
        )
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        self.samples = samples
        self.seed = seed

    def _initialize(self, tree: TPOTree) -> None:
        rng = ensure_rng(self.seed)
        dists = tree.distributions
        matrix = np.column_stack(
            [np.atleast_1d(d.sample(rng, self.samples)) for d in dists]
        )
        # Random jitter breaks ties between equal samples (e.g. atoms).
        matrix = matrix + rng.random(matrix.shape) * 1e-12
        ranks = np.argsort(-matrix, axis=1)[:, : tree.k]
        tree.engine_cache = _MonteCarloCache(ranks)

    def extend(self, tree: TPOTree) -> None:
        cache: _MonteCarloCache = tree.engine_cache
        depth = tree.built_depth
        if depth >= tree.k:
            return
        total = cache.ranks.shape[0]
        n = tree.n_tuples
        active = np.flatnonzero(cache.sample_node >= 0)
        if active.size == 0:
            tree.append_level(
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.float64),
            )
            return
        # One global stable group-by over (frontier node, next tuple).
        keys = cache.sample_node[active] * n + cache.ranks[active, depth]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.flatnonzero(
            np.diff(sorted_keys, prepend=sorted_keys[0] - 1)
        )
        counts = np.diff(np.append(starts, sorted_keys.size))
        group_keys = sorted_keys[starts]
        probs = counts / total
        keep, loss = self._apply_beam(probs, probs > self.min_probability)
        self._check_size(tree, int(np.count_nonzero(keep)))
        child_of_group = np.full(group_keys.size, -1, dtype=np.int64)
        child_of_group[keep] = np.arange(int(np.count_nonzero(keep)))
        # Reassign every active sample to its (possibly dropped) child.
        group_per_sample = np.repeat(
            np.arange(group_keys.size), counts
        )
        new_assignment = np.full(total, -1, dtype=np.int64)
        new_assignment[active[order]] = child_of_group[group_per_sample]
        cache.sample_node = new_assignment
        tree.append_level(
            (group_keys % n)[keep],
            (group_keys // n)[keep],
            probs[keep],
        )
        if loss is not None:
            # Empirical masses, so the bound is certified w.r.t. the
            # sampled distribution the tree itself represents.
            tree.record_level_loss(*loss)


class _MonteCarloCache:
    """Per-tree sample context for :class:`MonteCarloBuilder`.

    ``sample_node[s]`` is the frontier-level row index whose prefix sample
    ``s`` realizes, or ``-1`` once the sample's prefix was dropped
    (pruned, or below ``min_probability``).
    """

    __slots__ = ("ranks", "sample_node")

    def __init__(self, ranks: np.ndarray) -> None:
        self.ranks = ranks
        self.sample_node = np.zeros(ranks.shape[0], dtype=np.int64)

    def prune_frontier(
        self, alive: np.ndarray, index_map: np.ndarray
    ) -> None:
        """Remap sample assignments through the level compaction."""
        assigned = self.sample_node >= 0
        remapped = self.sample_node.copy()
        remapped[assigned] = index_map[self.sample_node[assigned]]
        self.sample_node = remapped


__all__ = [
    "TPOBuilder",
    "TPOSizeError",
    "GridBuilder",
    "ExactBuilder",
    "MonteCarloBuilder",
    "ENGINES",
]

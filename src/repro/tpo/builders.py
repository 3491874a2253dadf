"""TPO construction engines over the flat level-table tree.

All builders implement the same level-by-level recursion for prefix-ranking
probabilities (Li & Deshpande, PVLDB'10): with independent score variables,
the event "prefix ``t_1 ≻ … ≻ t_d`` is the top-d ranking" has probability

``Pr = ∫ h_d(x) · Π_{j ∉ prefix} F_j(x) dx``, where
``h_1 = f_{t_1}`` and ``h_{d+1}(x) = f_{t_{d+1}}(x) · ∫_x^∞ h_d(u) du``.

``h_d`` — the *prefix density* — is what makes one-level extension (and
hence the paper's ``incr`` algorithm) cheap.  Since the flat level-table
refactor, it no longer lives on per-node objects: each engine keeps a
payload *aligned with the frontier level's row order* in
``tree.engine_cache`` (a ``(W, C)`` density matrix for the grid engine, a
list of piecewise polynomials for the exact engine, a sample→node index
vector for Monte Carlo) and extends the whole frontier in one batched
pass — no Python loop over nodes on the numeric hot path.

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

The retired pointer-chasing grid path survives only as a parity oracle
in the test suite (``tests/oracles/pointer_tpo.py``).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

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

    ``extend`` is one batched pass over the whole frontier: one
    vectorized upper-tail sweep over the ``(W, C)`` prefix-density
    matrix, one exclude-one cumulative-product integrand per distinct
    candidate *set* (``m = N − depth`` candidates per node, ``C`` grid
    cells), and one ``(W_g, C) × (C, m)`` matmul per set-group —
    probabilities for every child of every frontier node with no
    per-node Python work.

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

        # The child probability ∫ f_t · T_node · Π_{j≠t} F_j factors into
        # (tail of the node) × (integrand of the candidate *set*): the
        # exclude-one CDF products depend on which tuples remain, not on
        # the order the prefix ranked them.  Group the frontier by
        # candidate set, build each set's (m, C) integrand once, and all
        # of a group's children drop out of a single (W_g, C) × (C, m)
        # matmul — the per-node pointer loop becomes one GEMM per set.
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
            probs[rows] = block
            if not anytime:
                # The incremental count aborts runaway levels before all
                # groups are computed; a beam decides what survives only
                # once the whole level is known, so it checks post-beam.
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
            # Child prefix densities h_{d+1} = f_t · T(h_d), kept rows
            # only.  The deepest level never extends again, so its (far
            # widest) density matrix is never materialized at all.
            cache.frontier_h = cache.densities[child_tuples] * tails[keep_rows]
        else:
            cache.frontier_h = None
        tree.append_level(
            child_tuples, keep_rows, probs[keep_rows, keep_cols]
        )
        if loss is not None:
            tree.record_level_loss(*loss)


class _GridCache:
    """Per-tree numeric context for :class:`GridBuilder`.

    ``frontier_h`` is the ``(W, C)`` matrix of prefix densities of the
    deepest level's nodes, row-aligned with that level — the only mutable
    piece, replaced wholesale on every extension and compacted by
    :meth:`prune_frontier` when the tree is pruned mid-build.
    """

    __slots__ = ("grid", "densities", "cdfs", "frontier_h")

    def __init__(
        self, grid: Grid, densities: np.ndarray, cdfs: np.ndarray
    ) -> None:
        self.grid = grid
        self.densities = densities
        self.cdfs = cdfs
        self.frontier_h: Optional[np.ndarray] = None

    def prune_frontier(
        self, alive: np.ndarray, index_map: np.ndarray
    ) -> None:
        """Drop the prefix-density rows of pruned frontier nodes."""
        if self.frontier_h is not None:
            self.frontier_h = self.frontier_h[alive]


def _exclude_one_products(stacked: np.ndarray) -> np.ndarray:
    """Products of all *other* rows: ``out[…, i, :] = Π_{j≠i} rows[…, j, :]``.

    Operates on the second-to-last axis of an ``(…, m, C)`` stack, so one
    call covers every frontier node of a chunk.  Computed with
    prefix/suffix cumulative products in O(m·C) per node; avoids the
    numerically hazardous divide-by-row alternative (CDFs are 0 on the
    left of each support).
    """
    m = stacked.shape[-2]
    if m == 1:
        return np.ones_like(stacked)
    prefix = np.ones_like(stacked)
    suffix = np.ones_like(stacked)
    for i in range(1, m):
        prefix[..., i, :] = prefix[..., i - 1, :] * stacked[..., i - 1, :]
    for i in range(m - 2, -1, -1):
        suffix[..., i, :] = suffix[..., i + 1, :] * stacked[..., i + 1, :]
    return prefix * suffix


def _upper_tail_rows(cell_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Row-wise :meth:`Grid.upper_tail` of a ``(W, C)`` density matrix."""
    masses = cell_values * grid.widths
    suffix = np.cumsum(masses[:, ::-1], axis=1)[:, ::-1]
    after = np.concatenate(
        [suffix[:, 1:], np.zeros((masses.shape[0], 1), dtype=np.float64)],
        axis=1,
    )
    return after + 0.5 * masses


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
                if anytime:
                    # A beam ranks the whole level at once, so every
                    # positive-mass candidate is collected first.
                    if prob > 0.0:
                        tuple_ids.append(int(t))
                        parent_idx.append(parent)
                        probs.append(float(prob))
                        new_polys.append(h_child)
                elif prob > self.min_probability:
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

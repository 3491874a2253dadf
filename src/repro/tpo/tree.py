"""The tree of possible orderings (TPO) ``T_K`` as a flat level table.

The tree is the *construction* view of the ordering space: builders grow it
level by level (which the ``incr`` algorithm exploits), structural pruning
applies crowd answers to partially built trees, and
:meth:`TPOTree.to_space` flattens the current leaves into the vectorized
:class:`~repro.tpo.space.OrderingSpace` that policies and uncertainty
measures consume.

Internally the tree is **not** a pointer structure.  Each materialized
level ``d`` is one :class:`TPOLevel` — a structure-of-arrays triple

* ``tuple_ids``  — ``(W_d,)`` int32, the tuple ranked at depth ``d``;
* ``parent_idx`` — ``(W_d,)`` intp index into level ``d − 1``
  (non-decreasing, so every node's children are a contiguous slice);
* ``probs``      — ``(W_d,)`` float64 prefix-ranking probabilities

— which makes every structural operation a handful of numpy passes:
``renormalize`` is a ``bincount`` sweep from the leaves up,
``prune_with_answer`` propagates alive/winner-seen masks down the levels,
and ``to_space`` is ``K`` vectorized gathers along the ``parent_idx``
chains (no per-leaf walk).  Builders append whole levels at once with
:meth:`append_level` and keep their per-frontier numeric payloads (prefix
densities, sample assignments) in ``engine_cache``, indexed by the top
level's rows.  The binary form of the tables is
:mod:`repro.tpo.serialize`'s npz archive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.distributions.base import ScoreDistribution
from repro.tpo.space import (
    DegenerateSpaceError,
    OrderingSpace,
    conditioned_lost_mass,
)


class TPOLevel:
    """One materialized level of a :class:`TPOTree` (plain array triple)."""

    __slots__ = ("tuple_ids", "parent_idx", "probs")

    def __init__(
        self,
        tuple_ids: np.ndarray,
        parent_idx: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        self.tuple_ids = tuple_ids
        self.parent_idx = parent_idx
        self.probs = probs

    @property
    def width(self) -> int:
        """Number of nodes in this level."""
        return self.tuple_ids.size

    def __repr__(self) -> str:
        return f"TPOLevel(width={self.width})"


class TPOTree:
    """A (possibly partially built) tree of possible orderings.

    Parameters
    ----------
    distributions:
        Score distributions of the N tuples; index = tuple identity.
    k:
        Target depth (the K of the top-K query).
    """

    def __init__(
        self, distributions: Sequence[ScoreDistribution], k: int
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not distributions:
            raise ValueError("need at least one tuple")
        self.distributions = list(distributions)
        self.k = min(k, len(self.distributions))
        #: Flat level tables; ``levels[d - 1]`` holds depth ``d``.
        self.levels: List[TPOLevel] = []
        #: Engine-managed numeric context (set by the builder in use).
        self.engine_cache = None
        #: Certified upper bound on the fraction of ordering mass dropped
        #: by an anytime beam (0.0 for exact builds).
        self.lost_mass = 0.0
        #: Per-level dropped prefix mass, aligned with ``levels``.
        self.level_lost: List[float] = []
        #: Largest single dropped node's prefix mass (bounds any one lost
        #: ordering's mass, used for modal certification).
        self.lost_node_max = 0.0
        #: Upper bound on how many orderings the dropped subtrees held.
        self.lost_leaves = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_tuples(self) -> int:
        """Universe size N."""
        return len(self.distributions)

    @property
    def built_depth(self) -> int:
        """Depth to which the tree has been materialized so far."""
        return len(self.levels)

    @property
    def is_complete(self) -> bool:
        """True once all K levels are materialized."""
        return self.built_depth >= self.k

    @property
    def is_approximate(self) -> bool:
        """True when an anytime beam dropped mass during construction."""
        return self.lost_mass > 0.0

    def ordering_count(self) -> int:
        """Number of possible orderings currently represented."""
        if not self.levels:
            return 1  # the root alone represents the empty prefix
        return self.levels[-1].width

    # ------------------------------------------------------------------
    # Level-table primitives
    # ------------------------------------------------------------------

    def append_level(
        self,
        tuple_ids: np.ndarray,
        parent_idx: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        """Materialize one more level from builder output arrays.

        ``parent_idx`` must be non-decreasing (parent-major row order);
        this is what keeps every node's children a contiguous slice and
        the leaf order identical to the pointer-era depth-first layout.
        """
        tuple_ids = np.asarray(tuple_ids, dtype=np.int32).reshape(-1)
        parent_idx = np.asarray(parent_idx, dtype=np.intp).reshape(-1)
        probs = np.asarray(probs, dtype=float).reshape(-1)
        if not (tuple_ids.size == parent_idx.size == probs.size):
            raise ValueError("level arrays must be aligned")
        parent_width = self.levels[-1].width if self.levels else 1
        if parent_idx.size:
            if parent_idx.min() < 0 or parent_idx.max() >= parent_width:
                raise ValueError(
                    f"parent indices must lie in [0, {parent_width})"
                )
            if np.any(np.diff(parent_idx) < 0):
                raise ValueError("parent_idx must be non-decreasing")
        self.levels.append(TPOLevel(tuple_ids, parent_idx, probs))
        self.level_lost.append(0.0)

    def record_level_loss(
        self, mass: float, node_max: float, dropped: int
    ) -> None:
        """Record the anytime beam's certified loss for the newest level.

        ``mass`` is the exact prefix mass of the candidate children the
        beam dropped while building the level just appended.  Sibling
        masses partition their parent's mass, so the ordering mass that
        would eventually flow through a dropped node is at most that
        node's prefix mass — summing the per-level drops therefore
        certifies ``lost_mass`` as an upper bound on the total ordering
        mass missing from the materialized tree.  ``node_max`` and
        ``dropped`` feed the modal-certification and entropy-slack bounds
        of the interval-aware uncertainty measures.
        """
        if not self.levels:
            raise ValueError("no level to record loss against")
        mass = float(mass)
        if mass <= 0.0:
            return
        self.level_lost[-1] += mass
        self.lost_mass = min(1.0, self.lost_mass + mass)
        self.lost_node_max = max(self.lost_node_max, float(node_max))
        # Each dropped node at the current depth roots at most
        # prod_{t=d}^{k-1} (n - t) completions (falling factorial).
        completions = 1.0
        for taken in range(self.built_depth, self.k):
            completions *= self.n_tuples - taken
        self.lost_leaves += float(dropped) * completions

    def paths_at_depth(self, depth: int) -> np.ndarray:
        """``(W_d, depth)`` prefix matrix of every node at ``depth``.

        Reconstructed with ``depth`` vectorized gathers up the
        ``parent_idx`` chains — this is the whole former "leaf walk".
        """
        if not 1 <= depth <= self.built_depth:
            raise ValueError(
                f"depth must lie in [1, {self.built_depth}], got {depth}"
            )
        width = self.levels[depth - 1].width
        paths = np.empty((width, depth), dtype=np.int32)
        index = np.arange(width)
        for level_depth in range(depth, 0, -1):
            level = self.levels[level_depth - 1]
            paths[:, level_depth - 1] = level.tuple_ids[index]
            index = level.parent_idx[index]
        return paths

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------

    def to_space(self) -> OrderingSpace:
        """Flatten the current leaf table into an :class:`OrderingSpace`."""
        if self.built_depth == 0:
            raise ValueError("tree has no materialized levels yet")
        top = self.levels[-1]
        return OrderingSpace(
            self.paths_at_depth(self.built_depth),
            top.probs,
            self.n_tuples,
            lost_mass=self.lost_mass,
            lost_leaves=self.lost_leaves,
        )

    # ------------------------------------------------------------------
    # Structural updates (used by the incremental algorithm)
    # ------------------------------------------------------------------

    def renormalize(self) -> None:
        """Rescale leaf masses to sum to 1; recompute internal masses."""
        if not self.levels:
            return
        top = self.levels[-1]
        total = float(top.probs.sum())
        if total <= 0:
            raise DegenerateSpaceError("tree has zero mass after pruning")
        top.probs = top.probs / total
        self._recompute_internal()

    def _recompute_internal(self) -> None:
        """Set every internal level's masses to its children's sums.

        One ``bincount`` per level from the leaves up; interior nodes
        whose entire subtree was pruned away end up with mass 0.
        """
        for depth in range(self.built_depth - 1, 0, -1):
            child = self.levels[depth]
            self.levels[depth - 1].probs = np.bincount(
                child.parent_idx,
                weights=child.probs,
                minlength=self.levels[depth - 1].width,
            )

    def prune_with_answer(self, i: int, j: int, holds: bool) -> int:
        """Remove subtrees whose prefix contradicts the answer ``t_i ?≺ t_j``.

        A prefix contradicts ``t_i ≺ t_j`` as soon as ``t_j`` appears while
        ``t_i`` has not appeared earlier — any completion would rank ``t_j``
        higher.  Works on partially built trees; remaining mass is
        renormalized.  Returns the number of removed nodes.

        Vectorized: alive/winner-seen masks propagate down the level
        tables through one ``parent_idx`` gather per level, then each
        level is compacted and its parent indices remapped.

        Atomic: a contradictory answer raises *before* any node is
        removed, so callers that swallow the error keep a usable tree (a
        half-pruned zero-mass tree used to crash the ``incr`` replay
        loop much later, in an unguarded ``renormalize``).
        """
        winner, loser = (i, j) if holds else (j, i)
        if not self.levels:
            return 0

        alive_masks: List[np.ndarray] = []
        parent_alive = np.ones(1, dtype=bool)
        parent_seen = np.zeros(1, dtype=bool)
        for level in self.levels:
            p_alive = parent_alive[level.parent_idx]
            p_seen = parent_seen[level.parent_idx]
            killed = (level.tuple_ids == loser) & ~p_seen
            alive = p_alive & ~killed
            alive_masks.append(alive)
            parent_alive = alive
            parent_seen = p_seen | (level.tuple_ids == winner)

        total = float(self.levels[-1].probs.sum())
        surviving = float(self.levels[-1].probs[alive_masks[-1]].sum())
        if surviving <= 0.0:
            raise DegenerateSpaceError(
                f"answer t{winner} ≺ t{loser} contradicts every ordering"
            )
        if self.lost_mass > 0.0 and total > 0.0:
            # The beam-dropped mass may be entirely consistent with the
            # answer, so conditioning can only inflate its share.
            self.lost_mass = conditioned_lost_mass(
                self.lost_mass, surviving / total
            )

        removed = int(sum(int((~mask).sum()) for mask in alive_masks))
        if removed:
            index_map: Optional[np.ndarray] = None
            for level, alive in zip(self.levels, alive_masks, strict=True):
                parent = (
                    level.parent_idx
                    if index_map is None
                    else index_map[level.parent_idx]
                )
                keep = np.flatnonzero(alive)
                index_map = np.full(alive.size, -1, dtype=np.intp)
                index_map[keep] = np.arange(keep.size)
                level.tuple_ids = level.tuple_ids[keep]
                level.parent_idx = parent[keep]
                level.probs = level.probs[keep]
            # Frontier-aligned engine payloads must follow the compaction.
            cache = self.engine_cache
            if cache is not None and hasattr(cache, "prune_frontier"):
                cache.prune_frontier(alive_masks[-1], index_map)
        self.renormalize()
        return removed

    def __repr__(self) -> str:
        return (
            f"TPOTree(n={self.n_tuples}, k={self.k}, "
            f"built={self.built_depth}, orderings={self.ordering_count()})"
        )


__all__ = ["TPOTree", "TPOLevel"]

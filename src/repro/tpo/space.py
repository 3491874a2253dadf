"""The space of possible orderings as a flat, vectorized leaf table.

Question-selection policies evaluate thousands of hypothetical prunings per
selected question; walking a pointer-based tree for each would dominate the
run time.  :class:`OrderingSpace` therefore flattens a TPO into

* ``paths``  — an ``(L, K)`` integer matrix, row = one possible top-K prefix
  ranking (best rank first), and
* ``probabilities`` — the ``(L,)`` leaf probability vector,

so that answer agreement, pruning, Bayesian reweighting, and uncertainty
evaluation are all numpy array operations.  Spaces are immutable: every
update returns a new space (the arrays are shared where possible).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_fraction


def _rows_per_chunk(size: int, cap: int = 4096) -> int:
    """Rows per chunk keeping a ``rows × size`` float64 temporary (``size``:
    a mask width, ``L`` or the cell count, or a pair count) near 128 MB."""
    return max(1, min(cap, (1 << 24) // max(size, 1)))


class DegenerateSpaceError(ValueError):
    """Raised when conditioning would leave an empty ordering space."""


def conditioned_lost_mass(lost: float, kept: float) -> float:
    """Worst-case lost-mass bound after conditioning on retained mass.

    Of the true distribution, a ``1 − lost`` fraction is represented and
    a ``kept`` fraction of *that* survives the conditioning event; the
    unrepresented remainder may be entirely consistent with the evidence,
    so its conditional share is at most
    ``lost / (lost + (1 − lost) · kept)``.
    """
    if lost <= 0.0:
        return 0.0
    if lost >= 1.0:
        return 1.0
    denominator = lost + (1.0 - lost) * max(float(kept), 0.0)
    if denominator <= 0.0:
        return 1.0
    return min(1.0, lost / denominator)


class OrderingSpace:
    """A weighted set of possible top-K prefix orderings.

    Parameters
    ----------
    paths:
        ``(L, K)`` array of tuple indices; row = ordering, best rank first.
    probabilities:
        ``(L,)`` non-negative weights; normalized on construction.
    n_tuples:
        Size of the tuple universe (indices in ``paths`` are < ``n_tuples``).
    lost_mass:
        Certified upper bound on the fraction of the true ordering mass
        an anytime beam dropped during construction (0.0 = exact).  The
        stored ``probabilities`` are then the true distribution
        *conditioned on* the retained orderings.
    lost_leaves:
        Upper bound on how many orderings the dropped mass is spread
        over (feeds the entropy interval's support term).
    """

    __slots__ = (
        "paths",
        "probabilities",
        "n_tuples",
        "lost_mass",
        "lost_leaves",
        "_positions",
        "_prefix_index",
        "_attached",
        "__weakref__",
    )

    def __init__(
        self,
        paths: np.ndarray,
        probabilities: np.ndarray,
        n_tuples: int,
        lost_mass: float = 0.0,
        lost_leaves: float = 0.0,
    ) -> None:
        paths = np.asarray(paths, dtype=np.int32)
        if paths.ndim != 2:
            raise ValueError(f"paths must be 2-D, got shape {paths.shape}")
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (paths.shape[0],):
            raise ValueError(
                f"probabilities shape {probabilities.shape} does not match "
                f"{paths.shape[0]} paths"
            )
        if paths.shape[0] == 0:
            raise DegenerateSpaceError("ordering space has no paths")
        if np.any(probabilities < 0):
            raise ValueError("probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise DegenerateSpaceError("ordering space has zero total mass")
        if not 0.0 <= lost_mass <= 1.0:
            raise ValueError(f"lost_mass must lie in [0, 1], got {lost_mass}")
        if lost_leaves < 0.0:
            raise ValueError(f"lost_leaves must be >= 0, got {lost_leaves}")
        self.paths = paths
        self.probabilities = probabilities / total
        self.n_tuples = int(n_tuples)
        self.lost_mass = float(lost_mass)
        self.lost_leaves = float(lost_leaves)
        self._positions: Optional[np.ndarray] = None
        #: depth → (order, starts) segment index of the prefix groups.
        self._prefix_index: dict = {}
        #: key → ``(meta, rows, index)``: see :meth:`attach_rows`.
        self._attached: dict = {}

    # ------------------------------------------------------------------
    # Shape & views
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of possible orderings (leaves)."""
        return self.paths.shape[0]

    @property
    def depth(self) -> int:
        """Prefix length K of every ordering."""
        return self.paths.shape[1]

    @property
    def is_certain(self) -> bool:
        """True when a single ordering remains."""
        return self.size == 1

    @property
    def is_approximate(self) -> bool:
        """True when an anytime beam dropped mass during construction."""
        return self.lost_mass > 0.0

    def positions(self) -> np.ndarray:
        """``(L, N)`` rank of each tuple per path; ``depth`` marks "absent".

        The sentinel equals :attr:`depth`, i.e. absent tuples are treated
        as ranked strictly below every present tuple — exactly the
        semantics of a top-K prefix.
        """
        if self._positions is None:
            length, depth = self.paths.shape
            positions = np.full((length, self.n_tuples), depth, dtype=np.int32)
            rows = np.repeat(np.arange(length), depth)
            positions[rows, self.paths.ravel()] = np.tile(
                np.arange(depth), length
            )
            self._positions = positions
        return self._positions

    def present_tuples(self) -> np.ndarray:
        """Sorted indices of tuples appearing in at least one ordering."""
        return np.unique(self.paths)

    # ------------------------------------------------------------------
    # Question semantics
    # ------------------------------------------------------------------

    def agreement_codes(self, i: int, j: int) -> np.ndarray:
        """Per-path stance on the claim ``t_i ≺ t_j`` (ranked higher).

        Returns an ``(L,)`` int8 array: ``+1`` the path implies
        ``t_i ≺ t_j``; ``-1`` it implies ``t_j ≺ t_i``; ``0`` undetermined
        (neither tuple in the prefix).
        """
        pos = self.positions()
        return np.sign(pos[:, j] - pos[:, i]).astype(np.int8)

    def stance_matrix(
        self, i_indices: Sequence[int], j_indices: Sequence[int]
    ) -> np.ndarray:
        """Stances of every path on ``B`` pairs in one shot.

        Vectorized generalization of :meth:`agreement_codes`: given aligned
        index vectors ``i_indices``/``j_indices`` of length ``B``, returns
        the ``(L, B)`` int8 matrix whose column ``b`` equals
        ``agreement_codes(i_indices[b], j_indices[b])``.  Built in row
        chunks of narrow positions (the stance is the sign of the rank
        difference), so the temporaries stay bounded at any ``L · B``.
        """
        pos = self.positions()
        i_indices = np.asarray(i_indices, dtype=np.intp)
        j_indices = np.asarray(j_indices, dtype=np.intp)
        if i_indices.shape != j_indices.shape or i_indices.ndim != 1:
            raise ValueError("i_indices and j_indices must be aligned 1-D")
        narrow = np.int8 if self.depth < 127 else np.int16
        codes = np.empty((self.size, i_indices.size), dtype=np.int8)
        step = _rows_per_chunk(i_indices.size)
        for start in range(0, self.size, step):
            rows = pos[start : start + step].astype(narrow)
            difference = rows[:, j_indices] - rows[:, i_indices]
            np.sign(difference, out=codes[start : start + step], casting="same_kind")
        return codes

    def condition(self, i: int, j: int, holds: bool) -> "OrderingSpace":
        """Prune paths disagreeing with the answer to ``t_i ?≺ t_j``.

        ``holds=True`` keeps paths consistent with ``t_i ≺ t_j`` (including
        undetermined ones) and renormalizes — the paper's pruning step for
        reliable workers.  Raises :class:`DegenerateSpaceError` when the
        answer contradicts every remaining ordering.
        """
        codes = self.agreement_codes(i, j)
        forbidden = -1 if holds else 1
        keep = codes != forbidden
        if not np.any(keep):
            raise DegenerateSpaceError(
                f"answer t{i} {'≺' if holds else '⊀'} t{j} contradicts all orderings"
            )
        return self.restrict(keep)

    def reweight_by_answer(
        self, i: int, j: int, holds: bool, accuracy: float
    ) -> "OrderingSpace":
        """Bayesian update for a noisy answer with worker ``accuracy``.

        Paths agreeing with the reported answer are scaled by ``accuracy``,
        disagreeing ones by ``1 − accuracy``, undetermined ones by ``0.5``
        (the answer carries no evidence about them); the result is
        renormalized.  With ``accuracy == 1`` this degenerates to
        :meth:`condition`.
        """
        check_fraction("accuracy", accuracy)
        codes = self.agreement_codes(i, j)
        agree_value = 1 if holds else -1
        weights = np.where(
            codes == agree_value,
            accuracy,
            np.where(codes == 0, 0.5, 1.0 - accuracy),
        )
        return self.reweight(
            weights, lost_weight_bound=max(accuracy, 1.0 - accuracy)
        )

    # ------------------------------------------------------------------
    # Generic updates
    # ------------------------------------------------------------------

    def restrict(self, keep: np.ndarray) -> "OrderingSpace":
        """Sub-space of the paths selected by boolean mask ``keep``.

        An already-computed positions matrix is sliced into the child
        (its rows depend on each path alone), so pruning never forces a
        from-scratch ``(L, N)`` rebuild.  Attached rows carry over as a
        row index, gathered on their next read.  The prefix-group index
        cannot carry over — dropping rows changes the grouping.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.all():
            return self
        child = OrderingSpace(
            self.paths[keep],
            self.probabilities[keep],
            self.n_tuples,
            lost_mass=conditioned_lost_mass(
                self.lost_mass, float(self.probabilities[keep].sum())
            ),
            lost_leaves=self.lost_leaves,
        )
        if self._positions is not None:
            child._positions = self._positions[keep]
        # A snapshot: another thread may attach to a shared space meanwhile.
        for key, (meta, rows, index) in list(self._attached.items()):
            index = np.flatnonzero(keep) if index is None else index[keep]
            child._attached[key] = (meta, rows, index)
        return child

    def reweight(
        self,
        weights: np.ndarray,
        lost_weight_bound: Optional[float] = None,
    ) -> "OrderingSpace":
        """Multiply path masses by ``weights`` and renormalize.

        ``lost_weight_bound`` caps the weight any beam-dropped (absent)
        ordering could have received; without it the maximum retained
        weight is used, which is only sound when the weighting rule
        cannot favour an absent path over every present one.

        The child shares this space's ``paths`` array, so the positions
        matrix, the prefix-group index and the attached rows —
        functions of the paths alone — carry over instead of being silently
        dropped (rebuilding the ``(L, N)`` positions after every noisy answer
        used to dominate noisy-worker sessions).  The index dict is shared, so a
        depth computed lazily by either space serves both.
        """
        weights = np.asarray(weights, dtype=float)
        updated = self.probabilities * weights
        total = updated.sum()
        if total <= 0:
            raise DegenerateSpaceError("reweighting removed all mass")
        lost = self.lost_mass
        if lost > 0.0:
            # Worst case the unrepresented mass carried the largest weight.
            w_max = (
                float(lost_weight_bound)
                if lost_weight_bound is not None
                else float(weights.max())
            )
            if w_max > 0.0:
                lost = conditioned_lost_mass(lost, float(total) / w_max)
        child = OrderingSpace(
            self.paths,
            updated,
            self.n_tuples,
            lost_mass=lost,
            lost_leaves=self.lost_leaves,
        )
        child._positions = self._positions
        child._prefix_index = self._prefix_index
        child._attached = dict(self._attached)
        return child

    def attach_rows(self, key: Any, meta: Any, rows: np.ndarray) -> None:
        """Keep ``rows`` (one per path) and their ``meta`` under ``key``:
        :meth:`restrict` passes on the kept rows (gathered on the next read),
        :meth:`reweight` shares them.  Entries must be functions of the
        paths and ``key``, so threads sharing a space store equal values."""
        self._attached[key] = (meta, rows, None)

    def attached_rows(self, key: Any) -> Optional[Tuple[Any, np.ndarray]]:
        """``(meta, rows)`` attached under ``key`` here or to an ancestor."""
        entry = self._attached.get(key)
        if entry is None:
            return None
        meta, rows, index = entry
        if index is not None:
            rows = rows[index]
            self._attached[key] = (meta, rows, None)
        return meta, rows

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def prefix_groups(self, depth: int) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate path mass by length-``depth`` prefix.

        Returns ``(prefixes, masses)`` where ``prefixes`` is ``(G, depth)``
        and ``masses`` sums to 1.  Used by the per-level entropy measure.
        """
        if not 1 <= depth <= self.depth:
            raise ValueError(
                f"depth must lie in [1, {self.depth}], got {depth}"
            )
        prefixes, inverse = np.unique(
            self.paths[:, :depth], axis=0, return_inverse=True
        )
        masses = np.bincount(inverse, weights=self.probabilities)
        return prefixes, masses

    def prefix_group_index(self, depth: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached segment index of the length-``depth`` prefix groups.

        Returns ``(order, starts)`` such that ``values[order]`` sorted by
        group can be segment-summed with ``np.add.reduceat(…, starts)``.
        Depends only on the immutable path table, so batched evaluators
        that regroup many hypothetical posteriors per space (e.g. the
        weighted-entropy measure) compute it once per depth.
        """
        cached = self._prefix_index.get(depth)
        if cached is None:
            if not 1 <= depth <= self.depth:
                raise ValueError(
                    f"depth must lie in [1, {self.depth}], got {depth}"
                )
            _, inverse = np.unique(
                self.paths[:, :depth], axis=0, return_inverse=True
            )
            inverse = inverse.ravel()
            order = np.argsort(inverse, kind="stable")
            starts = np.flatnonzero(
                np.diff(inverse[order], prepend=inverse[order[0]] - 1)
            )
            cached = (order, starts)
            self._prefix_index[depth] = cached
        return cached

    def most_probable_ordering(self) -> np.ndarray:
        """The single most probable top-K prefix (the paper's MPO).

        Ties on the maximal mass resolve to the lexicographically
        smallest path, so the MPO is stable across platforms and numpy
        versions.
        """
        probabilities = self.probabilities
        ties = np.flatnonzero(probabilities == probabilities.max())
        if ties.size == 1:
            return self.paths[ties[0]].copy()
        tied_paths = self.paths[ties]
        first = np.lexsort(tuple(tied_paths.T[::-1]))[0]
        return tied_paths[first].copy()

    def rank_marginals(self) -> np.ndarray:
        """``(N, K)`` matrix of ``Pr(tuple i occupies rank k)``."""
        marginals = np.zeros((self.n_tuples, self.depth), dtype=np.float64)
        for rank in range(self.depth):
            np.add.at(
                marginals[:, rank], self.paths[:, rank], self.probabilities
            )
        return marginals

    def pairwise_order_masses(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-pair order and co-absence masses, accumulated over ranks.

        Returns two ``(N, N)`` arrays ``(less, both_absent)`` where
        ``less[i, j] = Pr(pos(t_i) < pos(t_j))`` (strictly ranked higher,
        counting "present beats absent") and ``both_absent[i, j]`` is the
        mass of paths containing neither tuple — the only way two distinct
        tuples share a position under the top-K prefix semantics.

        Accumulates rank-pair counts with ``bincount`` over the ``(L, K)``
        path table, so peak memory is ``O(L·N + N²)`` rather than the
        ``O(L·N²)`` of a dense per-path stance tensor — the blow-up that
        made the ORA objective unusable at large ``L``.
        """
        n = self.n_tuples
        p = self.probabilities
        paths = self.paths.astype(np.int64)
        flat_bins = n * n
        strict = np.zeros(flat_bins, dtype=np.float64)
        present_mass = np.zeros(n, dtype=np.float64)
        for r in range(self.depth):
            present_mass += np.bincount(paths[:, r], weights=p, minlength=n)
            for s in range(r + 1, self.depth):
                strict += np.bincount(
                    paths[:, r] * n + paths[:, s], weights=p, minlength=flat_bins
                )
        strict = strict.reshape(n, n)
        # The below-rank counts are exactly the transpose of the above-rank
        # counts, so co-presence needs no second bincount pass.
        both_present = strict + strict.T
        # present-i over absent-j, by inclusion–exclusion over presence.
        less = strict + present_mass[:, None] - both_present
        both_absent = (
            1.0 - present_mass[:, None] - present_mass[None, :] + both_present
        )
        np.clip(less, 0.0, 1.0, out=less)
        np.clip(both_absent, 0.0, 1.0, out=both_absent)
        np.fill_diagonal(less, 0.0)
        np.fill_diagonal(both_absent, 0.0)
        return less, both_absent

    def pairwise_preference(self) -> np.ndarray:
        """``(N, N)`` matrix ``W[i, j] = Pr(t_i ≺ t_j)`` over the space.

        Undetermined paths split their mass evenly between the two orders,
        so ``W + Wᵀ = 1`` off the diagonal.  This is the weighted tournament
        the Optimal Rank Aggregation is computed from.  Computed via
        :meth:`pairwise_order_masses` (no ``(L, N, N)`` intermediate).
        """
        less, both_absent = self.pairwise_order_masses()
        w = less + 0.5 * both_absent
        np.fill_diagonal(w, 0.0)
        return w

    def __repr__(self) -> str:
        return (
            f"OrderingSpace(orderings={self.size}, depth={self.depth}, "
            f"tuples={self.n_tuples})"
        )


__all__ = ["OrderingSpace", "DegenerateSpaceError", "conditioned_lost_mass"]

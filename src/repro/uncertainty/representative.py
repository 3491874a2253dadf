"""Representative-ordering uncertainty measures (``U_ORA`` and ``U_MPO``).

Both quantify uncertainty as the probability-weighted distance between the
orderings of the space and one representative:

* ``U_ORA`` — the Optimal Rank Aggregation, the median ordering minimizing
  exactly this expected distance (Soliman et al., SIGMOD'11);
* ``U_MPO`` — the Most Probable Ordering, i.e. the modal leaf.

By construction ``U_ORA(T) ≤ U_MPO(T)`` when the ORA is computed exactly —
a relation the property tests check on small instances.
"""

from __future__ import annotations

import weakref
from typing import Optional, Tuple

import numpy as np

from repro.rank.aggregation import borda_aggregation, optimal_rank_aggregation
from repro.rank.kendall import (
    DEFAULT_PENALTY,
    expected_topk_distance,
    topk_distance_profile,
)
from repro.tpo.space import OrderingSpace
from repro.uncertainty.base import UncertaintyMeasure


#: Per-space distance-profile caches; weak keys tie each cache's lifetime
#: to its space, the FIFO limit bounds memory at ~limit·L floats per space.
_PROFILE_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_PROFILE_CACHE_LIMIT = 128


def _scaled_distance_interval(
    value: float, delta: float
) -> Tuple[float, float]:
    """Interval of an expected normalized distance under ≤ ``delta`` lost mass.

    With the reference certified unchanged, the true expectation mixes
    the retained conditional (worth ``value``) with at most ``delta``
    unseen mass whose normalized distance lies in ``[0, 1]``:
    ``(1 − δ*)·value + δ*·[0, 1]`` for some ``δ* ≤ δ``, which the
    endpoints below contain.
    """
    lo = max(0.0, (1.0 - delta) * value)
    hi = min(1.0, value + delta * (1.0 - value))
    return (lo, hi)


def _profile_dot(
    space: OrderingSpace,
    weights: np.ndarray,
    references: np.ndarray,
    penalty: float,
) -> np.ndarray:
    """Expected normalized distance of each weights row to its reference.

    ``references`` is ``(B, K)``; rows sharing a reference share one
    distance profile.  Profiles are cached per space (weakly keyed, so
    they die with it) because one greedy selection step makes many
    separate calls against the same space with largely identical
    references; the per-space cache is FIFO-bounded so a deep search
    generating many distinct references cannot pin O(L) memory per
    reference indefinitely.
    """
    totals = weights.sum(axis=1)
    values = np.empty(weights.shape[0])
    profiles = _PROFILE_CACHES.get(space)
    if profiles is None:
        profiles = {}
        _PROFILE_CACHES[space] = profiles
    for row_index in range(weights.shape[0]):
        key = (references[row_index].tobytes(), penalty)
        profile = profiles.get(key)
        if profile is None:
            profile = topk_distance_profile(
                space,
                references[row_index],
                penalty=penalty,
                normalized=True,
            )
            if len(profiles) >= _PROFILE_CACHE_LIMIT:
                profiles.pop(next(iter(profiles)))
            profiles[key] = profile
        values[row_index] = (
            np.dot(weights[row_index], profile) / totals[row_index]
        )
    return values


class ORAUncertainty(UncertaintyMeasure):
    """``U_ORA``: expected normalized top-K distance to the ORA.

    Parameters
    ----------
    method:
        Aggregation algorithm (see
        :func:`repro.rank.aggregation.optimal_rank_aggregation`).  The
        default ``"borda"`` keeps the measure cheap enough to sit inside
        question-selection loops; use ``"auto"``/``"exact"`` when fidelity
        matters more than speed.
    penalty:
        Fagin neutral-pair penalty of the underlying distance.
    """

    name = "ORA"

    def __init__(
        self, method: str = "borda", penalty: float = DEFAULT_PENALTY
    ) -> None:
        self.method = method
        self.penalty = penalty

    def __call__(self, space: OrderingSpace) -> float:
        if space.is_certain:
            return 0.0
        reference = optimal_rank_aggregation(
            space, k=space.depth, method=self.method, penalty=self.penalty
        )
        return expected_topk_distance(
            space, reference, penalty=self.penalty, normalized=True
        )

    def evaluate_interval(
        self, space: OrderingSpace
    ) -> Tuple[float, float]:
        """Interval for the Borda-aggregated expected distance.

        Sound when the Borda reference is *stable* under the lost mass:
        expected positions shift by at most ``δ·K`` (a position is in
        ``[0, K]``), so if every consecutive gap among the reference-
        deciding expected positions (the first K and the K-boundary)
        exceeds ``2δK``, the full space aggregates to the same reference
        and the scaled-mixture interval applies.  Otherwise the reference
        itself may differ and only the trivial ``[0, 1]`` is certified.
        """
        value = float(self(space))
        delta = space.lost_mass
        if delta <= 0.0:
            return (value, value)
        if delta >= 1.0 or self.method != "borda":
            return (0.0, 1.0)
        if self._borda_reference_stable(space, delta):
            return _scaled_distance_interval(value, delta)
        return (0.0, 1.0)

    @staticmethod
    def _borda_reference_stable(
        space: OrderingSpace, delta: float
    ) -> bool:
        """True when ≤ ``delta`` lost mass cannot flip the Borda reference."""
        pos = space.positions().astype(float)
        expected = space.probabilities @ pos
        order = np.argsort(expected, kind="stable")
        boundary = expected[order[: space.depth + 1]]
        gaps = np.diff(boundary)
        return bool(np.all(gaps > 2.0 * delta * space.depth))

    def evaluate_batch(
        self, space: OrderingSpace, weights: np.ndarray
    ) -> np.ndarray:
        """Batched ``U_ORA`` for the Borda aggregation method.

        Borda only needs each hypothetical's expected tuple positions —
        one matmul for the whole batch; the expected distance to each
        aggregate is a profile dot product.  Non-Borda methods fall back
        to the generic per-row oracle (their aggregations are not
        expressible as a reweighting of shared statistics).
        """
        if self.method != "borda":
            return super().evaluate_batch(space, weights)
        weights = self._check_weights(space, weights)
        return self._borda_values(space, weights, support=weights > 0.0)

    def evaluate_restrictions(
        self,
        space: OrderingSpace,
        masks: Optional[np.ndarray] = None,
        cells: Optional[np.ndarray] = None,
        sums: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pruning hypotheticals keep the mask as the survivor set.

        Presence must come from the *mask*, not from ``weights > 0``: a
        kept zero-probability path still contributes its tuples to the
        Borda candidate set, exactly as ``space.restrict(mask)`` retains
        the path — deriving support from the weights would silently drop
        such tuples and break scalar parity.
        """
        if self.method != "borda" or sums is not None:
            return super().evaluate_restrictions(space, masks, cells, sums)
        if cells is not None:
            masks = np.asarray(masks)[:, cells]
        masks = np.asarray(masks, dtype=bool)
        weights = self._check_weights(
            space, masks * space.probabilities[None, :]
        )
        return self._borda_values(space, weights, support=masks)

    def _borda_values(
        self, space: OrderingSpace, weights: np.ndarray, support: np.ndarray
    ) -> np.ndarray:
        """Shared Borda pricing given per-row survivor sets ``support``."""
        if weights.shape[0] == 0:
            return np.zeros(0)
        depth = space.depth
        pos = space.positions().astype(float)
        totals = weights.sum(axis=1, keepdims=True)
        expected = (weights / totals) @ pos
        # A tuple is present in a hypothetical space iff some surviving
        # path contains it; absent tuples sort last (Borda ignores them).
        present = support.astype(float) @ (pos < depth).astype(float) > 0.0
        masked = np.where(present, expected, np.inf)
        # Stable argsort ties on ascending tuple index — exactly the order
        # borda_aggregation produces from its sorted candidate list.
        order = np.argsort(masked, axis=1, kind="stable")
        references = order[:, :depth].astype(np.int32)
        # Exact or last-ulp ties among the expected positions that decide
        # the reference (the first K and the K-boundary) are fp-association
        # sensitive: the vectorized sums may round differently than the
        # scalar oracle's compacted sums and flip the stable sort.  Those
        # rows re-derive their reference through the scalar Borda path so
        # the documented batch/scalar parity holds even on tied spaces
        # (e.g. uniform path masses from the Monte Carlo engine).
        boundary = np.take_along_axis(masked, order[:, : depth + 1], axis=1)
        tied = np.any(np.diff(boundary, axis=1) <= 1e-9, axis=1)
        for row_index in np.flatnonzero(tied):
            row = weights[row_index]
            keep = support[row_index]
            if np.array_equal(row[keep], space.probabilities[keep]):
                # Pure masking (an answer-conditioned pruning): restrict()
                # — not a fresh OrderingSpace — so an all-true mask returns
                # the space itself without renormalizing, exactly like the
                # scalar residual oracle; rebuilding would divide by a
                # ≈1.0 sum and perturb tied positions at the last ulp.
                restricted = space.restrict(keep)
            else:
                # Genuinely reweighted posterior: the reference must be
                # aggregated under the row's own masses, matching the
                # base-class row-by-row oracle.
                restricted = OrderingSpace(
                    space.paths[keep], row[keep], space.n_tuples
                )
            references[row_index] = borda_aggregation(restricted, depth)
        return _profile_dot(space, weights, references, self.penalty)


class MPOUncertainty(UncertaintyMeasure):
    """``U_MPO``: expected normalized top-K distance to the modal ordering."""

    name = "MPO"

    def __init__(self, penalty: float = DEFAULT_PENALTY) -> None:
        self.penalty = penalty

    def __call__(self, space: OrderingSpace) -> float:
        if space.is_certain:
            return 0.0
        reference = space.most_probable_ordering()
        return expected_topk_distance(
            space, reference, penalty=self.penalty, normalized=True
        )

    def evaluate_interval(
        self, space: OrderingSpace
    ) -> Tuple[float, float]:
        """Interval for the expected distance to the modal ordering.

        The mode is certified unchanged when the heaviest retained
        ordering's share of the *full* mass, ``q_max·(1 − δ)``, strictly
        exceeds ``δ`` — no unseen ordering can outweigh it.  Then the
        scaled-mixture interval applies; otherwise the modal reference
        itself is uncertain and only ``[0, 1]`` is certified.
        """
        value = float(self(space))
        delta = space.lost_mass
        if delta <= 0.0:
            return (value, value)
        q_max = float(space.probabilities.max())
        if delta < 1.0 and q_max * (1.0 - delta) > delta:
            return _scaled_distance_interval(value, delta)
        return (0.0, 1.0)

    def evaluate_batch(
        self, space: OrderingSpace, weights: np.ndarray
    ) -> np.ndarray:
        """Batched ``U_MPO``: modal path per row, shared distance profiles.

        Hypothetical posteriors are reweightings of one path table, so the
        modal ordering is an argmax per row and rows sharing a mode share
        one distance profile.
        """
        weights = self._check_weights(space, weights)
        if weights.shape[0] == 0:
            return np.zeros(0)
        modal = np.argmax(weights, axis=1)
        references = space.paths[modal]
        return _profile_dot(space, weights, references, self.penalty)


__all__ = ["ORAUncertainty", "MPOUncertainty"]

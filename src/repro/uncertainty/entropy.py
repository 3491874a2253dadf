"""Entropy-based uncertainty measures (``U_H`` and ``U_Hw``).

``U_H`` is the state-of-the-art baseline the paper compares against: the
Shannon entropy of the leaf (ordering) probabilities.  ``U_Hw`` additionally
looks at the *structure* of the tree by combining the entropies of the
prefix distributions at every level ``1..K`` — two spaces with identical
leaf entropy but different agreement on the first ranks are told apart.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tpo.space import OrderingSpace
from repro.uncertainty.base import UncertaintyMeasure


def _lost_entropy_slack(
    delta: float, lost_leaves: float, base: float
) -> float:
    """Upper entropy slack from ≤ ``delta`` mass over ≤ ``lost_leaves`` outcomes.

    Splitting a distribution as ``(1 − δ*) q + δ* r`` with ``δ* ≤ δ`` and
    ``r`` supported on at most ``T`` outcomes, the grouping identity gives
    ``H(p) ≤ H(q) + h(δ*) + δ*·ln T`` (nats), where ``h`` is the binary
    entropy.  Maximized over ``δ* ∈ [0, δ]``: ``h`` peaks at 1/2 and the
    linear term at ``δ``.  Returned in ``base`` units.
    """
    x = min(max(delta, 0.0), 0.5)
    binary = 0.0
    if 0.0 < x < 1.0:
        binary = -x * np.log(x) - (1.0 - x) * np.log(1.0 - x)
    support = np.log(max(float(lost_leaves), 1.0))
    return float((binary + delta * support) / np.log(base))


def _plogp(p: np.ndarray) -> np.ndarray:
    """``p·ln p`` per entry, 0 where ``p`` is 0."""
    plogp = np.zeros_like(p)
    positive = p > 0.0
    plogp[positive] = p[positive] * np.log(p[positive])
    return plogp


def shannon_entropy(masses: np.ndarray, base: float = 2.0) -> float:
    """Entropy of a probability vector, ignoring zero entries."""
    masses = np.asarray(masses, dtype=float)
    positive = masses[masses > 0]
    if positive.size <= 1:
        return 0.0
    return float(-np.sum(positive * np.log(positive)) / np.log(base))


def shannon_entropy_rows(matrix: np.ndarray, base: float = 2.0) -> np.ndarray:
    """Row-wise entropy of a ``(B, G)`` matrix of unnormalized masses.

    Each row is normalized to a distribution first; zero entries contribute
    nothing (matching :func:`shannon_entropy` on the compacted row).
    """
    matrix = np.asarray(matrix, dtype=float)
    totals = matrix.sum(axis=1, keepdims=True)
    normalized = np.divide(
        matrix, totals, out=np.zeros_like(matrix), where=totals > 0
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            normalized > 0, normalized * np.log(normalized), 0.0
        )
    return -terms.sum(axis=1) / np.log(base)


class EntropyMeasure(UncertaintyMeasure):
    """``U_H``: Shannon entropy of the ordering probabilities.

    Depends only on the leaf probability vector — the tree structure is
    invisible to it, which is exactly the weakness the paper's structural
    measures address.
    """

    name = "H"

    def __init__(self, base: float = 2.0) -> None:
        if base <= 1.0:
            raise ValueError(f"entropy base must exceed 1, got {base}")
        self.base = base

    def __call__(self, space: OrderingSpace) -> float:
        return shannon_entropy(space.probabilities, self.base)

    def evaluate_interval(
        self, space: OrderingSpace
    ) -> Tuple[float, float]:
        """Sharp entropy interval under certified lost mass.

        The retained distribution ``q`` is the true one conditioned on
        the kept orderings, so ``H(p) ≥ (1 − δ)·H(q)`` (dropping the
        non-negative cross terms of the grouping identity) and
        ``H(p) ≤ H(q) + h(δ) + δ·ln T`` with ``T`` bounded by the tree's
        lost-leaf count.
        """
        value = float(self(space))
        delta = space.lost_mass
        if delta <= 0.0:
            return (value, value)
        slack = _lost_entropy_slack(delta, space.lost_leaves, self.base)
        return (max(0.0, (1.0 - delta) * value), value + slack)

    def evaluate_batch(
        self, space: OrderingSpace, weights: np.ndarray
    ) -> np.ndarray:
        """Row-wise leaf entropy — no intermediate spaces."""
        weights = self._check_weights(space, weights)
        return shannon_entropy_rows(weights, self.base)

    def evaluate_restrictions(
        self,
        space: OrderingSpace,
        masks: Optional[np.ndarray] = None,
        cells: Optional[np.ndarray] = None,
        sums: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pruning hypotheticals via ``Σ q·ln q = (Σ_S p·ln p)/T − ln T``.

        The value is ``(ln T − Σ/T) / ln b`` from a restriction's sums
        ``T`` of ``p`` and ``Σ`` of ``p·ln p`` (:meth:`restriction_terms`).
        Given ``masks``, the per-path ``p·ln p`` vector is computed once,
        so each row costs two mask–vector products and zero
        transcendentals.  Cell masks sum ``p`` and ``p·ln p`` per cell
        first, so rows are only as wide as the cells: this is the capped
        set path.  Single-question ranking and uncapped set-extension
        ranking skip the masks altogether: they sum the two terms per
        answer branch or per cell with matrix products and pass the
        ``(..., 2)`` ``sums``.
        """
        if sums is not None:
            totals, plogp_sums = sums[..., 0], sums[..., 1]
        else:
            masks = np.asarray(masks, dtype=float)
            p = space.probabilities
            plogp = _plogp(p)
            if cells is not None:
                p = np.bincount(cells, weights=p, minlength=masks.shape[1])
                plogp = np.bincount(cells, weights=plogp, minlength=p.size)
            totals = masks @ p
            if np.any(totals <= 0.0):
                raise ValueError("every restriction needs surviving mass")
            plogp_sums = masks @ plogp
        return (np.log(totals) - plogp_sums / totals) / np.log(self.base)

    def restriction_terms(self, space: OrderingSpace) -> np.ndarray:
        """``(p, p·ln p)`` per path: a restriction's entropy follows from
        their sums ``T`` and ``Σ`` (:meth:`evaluate_restrictions`)."""
        p = space.probabilities
        return np.column_stack((p, _plogp(p)))


WeightsLike = Union[None, Sequence[float], Callable[[int], np.ndarray]]


def linear_level_weights(depth: int) -> np.ndarray:
    """Default ``U_Hw`` weights: ``w_k ∝ K − k + 1`` (top ranks dominate).

    The extended abstract fixes only that ``U_Hw`` is "a weighted
    combination of entropy values at the first K levels"; linearly
    decreasing weights encode the natural reading that uncertainty about
    rank 1 hurts a top-K answer more than uncertainty about rank K
    (documented design choice, overridable).
    """
    raw = np.arange(depth, 0, -1, dtype=float)
    return raw / raw.sum()


class WeightedEntropyMeasure(UncertaintyMeasure):
    """``U_Hw``: weighted combination of per-level prefix entropies.

    ``U_Hw(T_K) = Σ_{k=1..K} w_k · H(level-k prefix distribution)``.
    """

    name = "Hw"

    def __init__(self, weights: WeightsLike = None, base: float = 2.0) -> None:
        if base <= 1.0:
            raise ValueError(f"entropy base must exceed 1, got {base}")
        self.base = base
        self._weights = weights

    def level_weights(self, depth: int) -> np.ndarray:
        """Resolve the weight vector for a K-level space (sums to 1)."""
        if self._weights is None:
            return linear_level_weights(depth)
        if callable(self._weights):
            weights = np.asarray(self._weights(depth), dtype=float)
        else:
            weights = np.asarray(self._weights, dtype=float)
            if weights.size < depth:
                raise ValueError(
                    f"need at least {depth} level weights, got {weights.size}"
                )
            weights = weights[:depth]
        total = weights.sum()
        if total <= 0:
            raise ValueError("level weights must have positive sum")
        return weights / total

    def __call__(self, space: OrderingSpace) -> float:
        weights = self.level_weights(space.depth)
        value = 0.0
        for level in range(1, space.depth + 1):
            if weights[level - 1] == 0.0:
                continue
            _, masses = space.prefix_groups(level)
            value += weights[level - 1] * shannon_entropy(masses, self.base)
        return value

    def evaluate_interval(
        self, space: OrderingSpace
    ) -> Tuple[float, float]:
        """Interval for the weighted per-level combination.

        Each level's prefix entropy obeys the same lost-mass bounds as
        the leaf entropy (a dropped subtree hides at most the leaf count
        of prefixes per level, and the dropped mass per level is within
        the same δ), and the level weights sum to 1 — so the slack of
        the combination is bounded by the single-level slack.
        """
        value = float(self(space))
        delta = space.lost_mass
        if delta <= 0.0:
            return (value, value)
        slack = _lost_entropy_slack(delta, space.lost_leaves, self.base)
        return (max(0.0, (1.0 - delta) * value), value + slack)

    def evaluate_batch(
        self, space: OrderingSpace, weights: np.ndarray
    ) -> np.ndarray:
        """Per-level prefix entropies via segment sums over shared groups.

        The prefix grouping of the *full* space is computed once per level;
        each hypothetical posterior only redistributes mass among those
        groups (a pruned prefix simply ends up with zero mass, which is
        entropy-neutral), so one ``reduceat`` per level prices every
        hypothetical without touching path arrays again.
        """
        weights = self._check_weights(space, weights)
        level_weights = self.level_weights(space.depth)
        totals = weights.sum(axis=1, keepdims=True)
        normalized = weights / totals
        values = np.zeros(weights.shape[0])
        for level in range(1, space.depth + 1):
            if level_weights[level - 1] == 0.0:
                continue
            order, starts = space.prefix_group_index(level)
            group_masses = np.add.reduceat(
                normalized[:, order], starts, axis=1
            )
            values += level_weights[level - 1] * shannon_entropy_rows(
                group_masses, self.base
            )
        return values


__all__ = [
    "shannon_entropy",
    "shannon_entropy_rows",
    "linear_level_weights",
    "EntropyMeasure",
    "WeightedEntropyMeasure",
]

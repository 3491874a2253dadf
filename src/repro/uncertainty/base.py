"""Interface for TPO uncertainty measures.

The paper proposes four measures of how uncertain a tree of possible
orderings is (§II): entropy, weighted per-level entropy, and expected
distance to a representative ordering (ORA or MPO).  All of them are
functions of the flattened ordering space, so a measure here is simply a
callable ``space → float`` with two contractual properties the test suite
enforces:

* **certainty ⇒ zero** — a space with one ordering measures 0;
* **non-negativity** — values are ≥ 0.

Measures are *not* required to be comparable across different spaces (they
quantify residual uncertainty of one query), and the question-selection
machinery never compares values across budgets or datasets.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from repro.tpo.space import OrderingSpace


class UncertaintyMeasure(abc.ABC):
    """A functional quantifying the uncertainty of an ordering space."""

    #: Short identifier used in experiment configs and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def __call__(self, space: OrderingSpace) -> float:
        """Evaluate the measure; must be ≥ 0 and 0 for a singleton space."""

    def evaluate_interval(
        self, space: OrderingSpace
    ) -> Tuple[float, float]:
        """Certified interval ``[lo, hi]`` around the exact measure value.

        On an exact space (``space.lost_mass == 0``) both endpoints equal
        ``self(space)``.  On a beam-approximate space the interval must
        contain the value the measure would report on the full, unpruned
        space — the epistemic contract of the anytime engines: an
        approximation may widen the answer but never lie about it.

        This base fallback knows nothing about a custom measure's modulus
        of continuity under missing mass, so it returns the trivial
        ``[0, inf)`` bound; the built-in measures override it with sharp
        intervals.
        """
        value = float(self(space))
        if space.lost_mass <= 0.0:
            return (value, value)
        return (0.0, float("inf"))

    # ------------------------------------------------------------------
    # Batched evaluation over hypothetical posteriors
    # ------------------------------------------------------------------

    def evaluate_batch(
        self, space: OrderingSpace, weights: np.ndarray
    ) -> np.ndarray:
        """Evaluate the measure on many hypothetical posteriors at once.

        ``weights`` is a ``(B, L)`` matrix of non-negative path masses over
        ``space.paths``; each row describes one hypothetical posterior
        (e.g. the space after pruning with one possible answer).  Rows need
        not be normalized, but every row must carry positive total mass.
        A zero entry means the path is excluded — semantically identical to
        ``space.restrict`` followed by renormalization.

        Returns the ``(B,)`` vector of measure values.  Subclasses override
        this with vectorized implementations that never materialize an
        intermediate :class:`OrderingSpace`; this base fallback keeps
        arbitrary user measures correct by evaluating row-by-row on
        restricted spaces (the scalar oracle the parity tests compare
        against).
        """
        weights = self._check_weights(space, weights)
        values = np.empty(weights.shape[0])
        for row_index, row in enumerate(weights):
            keep = row > 0.0
            restricted = OrderingSpace(
                space.paths[keep], row[keep], space.n_tuples
            )
            values[row_index] = self(restricted)
        return values

    def evaluate_restrictions(
        self,
        space: OrderingSpace,
        masks: Optional[np.ndarray] = None,
        cells: Optional[np.ndarray] = None,
        sums: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate the measure after many hypothetical *prunings* at once.

        ``masks`` is a ``(B, L)`` boolean matrix; row ``r`` describes the
        sub-space keeping exactly the paths where ``masks[r]`` is True
        (with their original relative probabilities).  Semantically this is
        ``evaluate_batch(space, masks * space.probabilities)`` — the form
        every answer-conditioned residual takes — but knowing the rows are
        maskings of one shared vector lets measures precompute per-path
        statistics once and reduce each row to dot products (see
        :class:`~repro.uncertainty.entropy.EntropyMeasure`).

        With ``cells`` (each path's cell, ``(L,)``) the rows mask cells
        and a path survives when its cell does; this fallback prices the
        expanded path masks ``masks[:, cells]``.

        A measure that declares :meth:`restriction_terms` also takes the
        restrictions as ``sums`` instead of masks: ``(..., m)`` sums of
        the terms over each restriction's paths, one restriction per
        leading index, each keeping positive mass.  Callers that sum the
        terms with matrix products (single-question and set-extension
        ranking) price them this way.
        """
        if sums is not None:
            raise NotImplementedError(
                f"{type(self).__name__} declares no additive restriction terms"
            )
        masks = np.asarray(masks)
        if cells is not None:
            masks = masks[:, cells]
        return self.evaluate_batch(
            space, masks * space.probabilities[None, :]
        )

    def restriction_terms(self, space: OrderingSpace) -> Optional[np.ndarray]:
        """Per-path additive terms that determine the measure, or ``None``.

        A measure whose value on every restriction of ``space`` follows
        from the restriction's sums of a few per-path terms declares them
        here: an ``(L, m)`` matrix whose first column is the path mass
        ``p``, and :meth:`evaluate_restrictions` maps the ``m`` sums of
        each restriction (its ``sums`` argument) to its value.
        Single-question ranking then prices both answers of every
        candidate from two matrix products per column chunk, and
        set-extension ranking every candidate's cells from one per greedy
        step.  The default ``None`` keeps a measure on the mask paths
        (:meth:`evaluate_restrictions` with ``masks``, and ``cells`` for
        sets).
        """
        return None

    @staticmethod
    def _check_weights(space: OrderingSpace, weights: np.ndarray) -> np.ndarray:
        """Validate a hypothetical-posterior matrix (shared by overrides)."""
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[1] != space.size:
            raise ValueError(
                f"weights must be (B, {space.size}), got {weights.shape}"
            )
        if np.any(weights < 0.0):
            raise ValueError("hypothetical posterior weights must be >= 0")
        if weights.shape[0] and np.any(weights.sum(axis=1) <= 0.0):
            raise ValueError("every weights row needs positive total mass")
        return weights

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


__all__ = ["UncertaintyMeasure"]

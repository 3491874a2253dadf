"""Scalar residual-uncertainty oracles for the batched evaluator paths.

Each function prices answers the slow, obvious way — one restricted
:class:`~repro.tpo.space.OrderingSpace` per answer outcome, evaluated by
:meth:`ResidualEvaluator.uncertainty` — so the parity tests can pin
``rank_singles_batch``, ``set_residual_from_codes`` and
``rank_set_extensions`` to it within 1e-9.  Evaluations are counted on
the evaluator like any other.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.questions.model import Question
from repro.questions.residual import ResidualEvaluator
from repro.tpo.space import OrderingSpace


def rank_singles(
    evaluator: ResidualEvaluator,
    space: OrderingSpace,
    questions: Sequence[Question],
) -> np.ndarray:
    """``R_q`` for every candidate, one :meth:`ResidualEvaluator.single`
    call at a time."""
    return np.array(
        [evaluator.single(space, q) for q in questions], dtype=np.float64
    )


def set_residual_from_codes_scalar(
    evaluator: ResidualEvaluator,
    space: OrderingSpace,
    codes: np.ndarray,
    pattern_cap: Optional[int] = None,
) -> float:
    """``R_Q`` given an ``(L, B)`` stance matrix, one restricted space per
    answer pattern (oracle for ``set_residual_from_codes``)."""
    if codes.shape[1] == 0:
        return evaluator.uncertainty(space)
    patterns, inverse = np.unique(codes, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    masses = np.bincount(inverse, weights=space.probabilities)
    order = np.argsort(-masses)
    residual = 0.0
    evaluated_mass = 0.0
    for position, pattern_index in enumerate(order):
        if pattern_cap is not None and position >= pattern_cap:
            break
        mass = masses[pattern_index]
        if mass <= 0.0:
            continue
        pattern = patterns[pattern_index]
        constrained = pattern != 0
        if not np.any(constrained):
            compatible = np.ones(space.size, dtype=bool)
        else:
            relevant = codes[:, constrained]
            target = pattern[constrained]
            compatible = np.all((relevant == 0) | (relevant == target), axis=1)
        residual += mass * evaluator.uncertainty(space.restrict(compatible))
        evaluated_mass += mass
    if evaluated_mass < 1.0 - 1e-12:
        residual += (1.0 - evaluated_mass) * evaluator.uncertainty(space)
    return residual


__all__ = ["rank_singles", "set_residual_from_codes_scalar"]

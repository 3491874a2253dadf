"""``C-off`` — the conditional offline algorithm (§III-A).

Questions are picked one at a time, each minimizing the *joint* expected
residual uncertainty ``R_{⟨q*_1, …, q*_i, q⟩}(T_K)`` conditioned on the
previously selected (but not yet answered!) questions.  Unlike ``TB-off``
this accounts for redundancy between questions; unlike the online
algorithms it never sees an answer, so the whole batch can be published at
once.  Greedy over a monotone objective — the classic quality/cost middle
ground the paper's Figure 1 shows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.policies.base import OfflinePolicy
from repro.questions.model import Question
from repro.questions.residual import ResidualEvaluator
from repro.tpo.space import OrderingSpace
from repro.utils.validation import check_cap


class ConditionalPolicy(OfflinePolicy):
    """Greedy joint-residual minimization (no answers observed).

    Parameters
    ----------
    pattern_cap:
        Optional bound on answer patterns evaluated per candidate set
        (see :meth:`ResidualEvaluator.set_residual_from_codes`); ``None``
        evaluates exactly, otherwise an ``int`` >= 1.
    """

    name = "C-off"

    def __init__(self, pattern_cap: Optional[int] = None) -> None:
        self.pattern_cap = check_cap("pattern_cap", pattern_cap)

    def select(
        self,
        space: OrderingSpace,
        candidates: Sequence[Question],
        budget: int,
        evaluator: ResidualEvaluator,
        rng: np.random.Generator,
    ) -> List[Question]:
        if budget <= 0 or not candidates:
            return []
        codes = evaluator.codes_matrix(space, candidates)
        chosen_columns: List[int] = []
        available = list(range(len(candidates)))
        for _ in range(min(budget, len(candidates))):
            # All extensions of the chosen set are priced in one batched
            # call; the selection loop below keeps the original
            # first-winner-within-tolerance tie-breaking.
            values = evaluator.rank_set_extensions(
                space, codes, chosen_columns, available, self.pattern_cap
            )
            best_column, best_value = None, np.inf
            for index, column in enumerate(available):
                if values[index] < best_value - 1e-15:
                    best_value, best_column = float(values[index]), column
            if best_column is None:
                break
            chosen_columns.append(best_column)
            available.remove(best_column)
            if best_value <= 1e-12:
                break  # batch already guarantees certainty in expectation
        return [candidates[c] for c in chosen_columns]


__all__ = ["ConditionalPolicy"]

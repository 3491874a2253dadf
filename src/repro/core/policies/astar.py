"""``A*-off`` and ``A*-on`` — best-first search over question sets (§III).

``A*-off`` searches the space of B-subsets of ``Q_K`` for the one with the
minimum expected residual uncertainty ``R_Q``.  Search nodes are question
subsets; each is reached once (children only extend with candidates of
higher index along a fixed order), and nodes are expanded best-first by the
optimistic bound

``f(S) = max(0, R_S − (B − |S|) · δ_max)``

where ``δ_max`` is the largest single-question reduction measured on the
root space.  Under diminishing returns of question sets (marginal reduction
never grows as the set grows — the regime of Theorem 3.2), ``f`` never
overestimates the reachable reduction, so the first B-subset popped is
offline-optimal; the test suite validates this against exhaustive
enumeration on small instances.

Since the search is worst-case exponential, ``max_expansions`` bounds the
work; on exhaustion the best known partial set is completed greedily (the
result then degrades gracefully toward ``C-off``).

``A*-on`` is the online variant the paper describes: re-plan with
``A*-off`` on the pruned tree after every answer and ask the first question
of the plan.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies.base import OfflinePolicy, OnlinePolicy
from repro.questions.model import Question
from repro.questions.residual import ResidualEvaluator
from repro.tpo.space import OrderingSpace
from repro.utils.validation import check_cap


class AStarOfflinePolicy(OfflinePolicy):
    """Best-first (A*) search for the optimal offline question set.

    Parameters
    ----------
    max_expansions:
        Hard cap on expanded nodes; exceeded searches fall back to greedy
        completion of the best frontier node (`last_search_complete` tells
        which case occurred).
    candidate_cap:
        Optionally restrict the search to the individually-best
        ``candidate_cap`` questions (by single residual) — a documented
        speed/optimality trade-off for large ``Q_K``.
    pattern_cap:
        Forwarded to the residual evaluator (see ``C-off``).
    """

    name = "A*-off"

    def __init__(
        self,
        max_expansions: int = 20000,
        candidate_cap: Optional[int] = None,
        pattern_cap: Optional[int] = None,
    ) -> None:
        if max_expansions < 1:
            raise ValueError("max_expansions must be positive")
        self.max_expansions = max_expansions
        self.candidate_cap = check_cap("candidate_cap", candidate_cap)
        self.pattern_cap = check_cap("pattern_cap", pattern_cap)
        #: Diagnostics of the most recent search.
        self.last_search_complete: bool = True
        self.last_expansions: int = 0

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
        budget = min(budget, len(candidates))
        base_uncertainty = evaluator.uncertainty(space)
        if base_uncertainty <= 0.0:
            return []
        singles = evaluator.rank_singles_batch(space, candidates)
        order = np.argsort(singles, kind="stable")
        if self.candidate_cap is not None:
            order = order[: max(self.candidate_cap, budget)]
        ordered = [candidates[int(i)] for i in order]
        codes = evaluator.codes_matrix(space, ordered)
        n_candidates = len(ordered)
        delta_max = max(0.0, base_uncertainty - float(np.min(singles)))

        def bound(residual: float, size: int) -> float:
            return max(0.0, residual - (budget - size) * delta_max)

        # Heap entries: (f, tie, columns tuple, residual).
        counter = itertools.count()
        heap: List[Tuple[float, int, Tuple[int, ...], float]] = [
            (bound(base_uncertainty, 0), next(counter), (), base_uncertainty)
        ]
        best_goal: Optional[Tuple[float, Tuple[int, ...]]] = None
        expansions = 0
        while heap:
            f_value, _, columns, residual = heapq.heappop(heap)
            if best_goal is not None and f_value >= best_goal[0] - 1e-15:
                break
            if len(columns) == budget or residual <= 1e-12:
                # First goal popped with minimal f is optimal (admissible f).
                best_goal = (residual, columns)
                break
            expansions += 1
            if expansions > self.max_expansions:
                self.last_search_complete = False
                self.last_expansions = expansions
                completed = self._greedy_complete(
                    space, codes, list(columns), budget, evaluator
                )
                return [ordered[c] for c in completed]
            start = columns[-1] + 1 if columns else 0
            # Keep enough candidates after `child` to still reach budget:
            # child <= n_candidates - (budget - |columns|).
            last_child = n_candidates - budget + len(columns)
            children = list(range(start, last_child + 1))
            if not children:
                continue
            # All children extend the same column set — price them in one
            # batched call instead of one pattern partition per child.
            child_residuals = evaluator.rank_set_extensions(
                space, codes, list(columns), children, self.pattern_cap
            )
            for child, child_residual in zip(children, child_residuals, strict=True):
                new_columns = columns + (child,)
                heapq.heappush(
                    heap,
                    (
                        bound(float(child_residual), len(new_columns)),
                        next(counter),
                        new_columns,
                        float(child_residual),
                    ),
                )
        self.last_expansions = expansions
        self.last_search_complete = True
        if best_goal is None:
            return [ordered[c] for c in range(min(budget, n_candidates))]
        return [ordered[c] for c in best_goal[1]]

    def _greedy_complete(
        self,
        space: OrderingSpace,
        codes: np.ndarray,
        partial: List[int],
        budget: int,
        evaluator: ResidualEvaluator,
    ) -> List[int]:
        """Fill a partial set greedily once the expansion cap is hit."""
        available = [c for c in range(codes.shape[1]) if c not in set(partial)]
        while len(partial) < budget and available:
            values = evaluator.rank_set_extensions(
                space, codes, partial, available, self.pattern_cap
            )
            best_column = available[int(np.argmin(values))]
            partial.append(best_column)
            available.remove(best_column)
        return partial


class AStarOnlinePolicy(OnlinePolicy):
    """Re-plan with ``A*-off`` after every answer; ask the plan's head.

    The paper describes ``A*-on`` as iteratively applying ``A*-off`` B
    times; because the tree is re-pruned between iterations, only the first
    question of each plan is ever used.
    """

    name = "A*-on"

    def __init__(self, **offline_kwargs) -> None:
        self._offline = AStarOfflinePolicy(**offline_kwargs)

    def next_question(
        self,
        space: OrderingSpace,
        candidates: Sequence[Question],
        remaining_budget: int,
        evaluator: ResidualEvaluator,
        rng: np.random.Generator,
    ) -> Optional[Question]:
        if remaining_budget <= 0 or not candidates or space.is_certain:
            return None
        plan = self._offline.select(
            space, candidates, remaining_budget, evaluator, rng
        )
        return plan[0] if plan else None


__all__ = ["AStarOfflinePolicy", "AStarOnlinePolicy"]

"""Per-pair candidate oracles for the session question pool.

:func:`relevant_questions` is the pool's slow reference: it walks every
pair of present tuples, runs the pdf-overlap filter and prices each
pair's settledness from its own ``agreement_codes`` column.  The pool
(:class:`repro.questions.candidates.QuestionPool`) must return the same
questions, in the same order, on every space a session reaches.
:func:`question_set` prices a question set from a freshly computed stance
matrix, for tests that score whole sets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.distributions.base import ScoreDistribution
from repro.questions.model import Question
from repro.questions.residual import ResidualEvaluator
from repro.tpo.space import OrderingSpace


def is_settled(space: OrderingSpace, i: int, j: int) -> bool:
    """True when no ordering with positive mass takes one of the pair's
    two decisive stances."""
    codes = space.agreement_codes(i, j)
    mass_plus = float(space.probabilities[codes == 1].sum())
    mass_minus = float(space.probabilities[codes == -1].sum())
    return mass_plus <= 0.0 or mass_minus <= 0.0


def relevant_questions(
    space: OrderingSpace,
    distributions: Optional[Sequence[ScoreDistribution]] = None,
) -> List[Question]:
    """``Q_K`` on ``space``, one pair at a time."""
    questions: List[Question] = []
    present = space.present_tuples()
    for a in range(len(present)):
        for b in range(a + 1, len(present)):
            i, j = int(present[a]), int(present[b])
            if distributions is not None and not distributions[i].overlaps(
                distributions[j]
            ):
                continue
            if is_settled(space, i, j):
                continue
            questions.append(Question(i, j))
    return questions


def question_set(
    evaluator: ResidualEvaluator,
    space: OrderingSpace,
    questions: Sequence[Question],
    pattern_cap: Optional[int] = None,
) -> float:
    """``R_Q(T)`` of a question set via the pattern partition."""
    codes = evaluator.codes_matrix(space, list(questions))
    return evaluator.set_residual_from_codes(space, codes, pattern_cap)

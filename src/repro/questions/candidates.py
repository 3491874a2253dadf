"""Candidate question generation.

The paper distinguishes three pools (§III–IV):

* *all comparisons* among tuples appearing in ``T_K`` — what the ``Random``
  baseline draws from;
* the relevant set ``Q_K`` — comparisons of tuples **whose pdfs overlap**,
  i.e. whose relative order is genuinely uncertain (the ``Naive`` baseline
  and all proposed algorithms draw from this);
* the *informative* subset — pairs on which the current ordering space
  still disagrees, so an answer is guaranteed to prune something.  ``Q_K``
  shrinks to this set as answers arrive (asking an already-settled pair
  wastes budget), so the selection policies regenerate candidates from the
  live space.

A session's :class:`QuestionPool` runs the overlap filter once and
attaches its ``(L, Q)`` int8 stance columns to the spaces the session
reaches (:meth:`~repro.tpo.space.OrderingSpace.attach_rows`).  A settled
pair stays settled under pruning and reweighting, so each step drops the
columns that settled and hands the rest to the residual ranking as
:class:`LiveQuestions`.  One-shot calls attach nothing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.distributions.base import ScoreDistribution
from repro.questions.model import Question
from repro.tpo.space import OrderingSpace


class LiveQuestions(list):
    """Questions still contested on :attr:`space`, with their ``(L, Q)``
    int8 :attr:`stances` there (a copy or slice is a plain list)."""

    def __init__(
        self, questions: List[Question], space: OrderingSpace, stances: np.ndarray
    ) -> None:
        super().__init__(questions)
        self.space = space
        self.stances = stances


class QuestionPool:
    """The paper's ``Q_K`` over ``tuples``: every pair whose score pdfs
    overlap (every pair, without ``distributions``), in canonical order.
    Stances depend on the paths and pairs alone, so they are attached under
    :attr:`key`, the pair list, and shared by pools over the same pairs."""

    def __init__(
        self,
        tuples: np.ndarray,
        distributions: Optional[Sequence[ScoreDistribution]] = None,
    ) -> None:
        upper, lower = np.triu_indices(len(tuples), 1)
        i = np.asarray(tuples, dtype=np.intp)[upper]
        j = np.asarray(tuples, dtype=np.intp)[lower]
        if distributions is not None:
            pairs = zip(i.tolist(), j.tolist())
            overlapping = np.array(
                [distributions[a].overlaps(distributions[b]) for a, b in pairs],
                dtype=bool,
            )
            i, j = i[overlapping], j[overlapping]
        self.i, self.j = i, j
        self.questions = [Question(a, b) for a, b in zip(i.tolist(), j.tolist())]
        self.key = (i.tobytes(), j.tobytes())

    def live(self, space: OrderingSpace, attach: bool = True) -> LiveQuestions:
        """The pool's pairs not settled on ``space``, with their stances
        (attached to ``space`` for the spaces derived from it)."""
        attached = space.attached_rows(self.key)
        columns, stances = attached or (
            np.arange(len(self.questions), dtype=np.intp),
            space.stance_matrix(self.i, self.j),
        )
        positive = space.probabilities > 0.0
        decided = stances if positive.all() else stances[positive]
        live = (decided.max(axis=0, initial=0) > 0) & (
            decided.min(axis=0, initial=0) < 0
        )
        if not live.all():
            columns, stances = columns[live], stances[:, live]
            attached = None
        if attach and attached is None:
            space.attach_rows(self.key, columns, stances)
        questions = [self.questions[c] for c in columns.tolist()]
        return LiveQuestions(questions, space, stances)


def all_pair_questions(space: OrderingSpace) -> List[Question]:
    """Every pairwise comparison among tuples present in the space."""
    return QuestionPool(space.present_tuples()).questions


def relevant_questions(
    space: OrderingSpace,
    distributions: Optional[Sequence[ScoreDistribution]] = None,
    pool: Optional[QuestionPool] = None,
) -> List[Question]:
    """The paper's ``Q_K``: pairs with an uncertain relative order.

    When ``distributions`` are given, uncertainty means overlapping score
    pdfs (the paper's definition); otherwise it is inferred from the space
    (both orders carry positive probability).  Pairs already settled by the
    space — every ordering agrees — are excluded in both modes, since their
    expected uncertainty reduction is zero.  A session passes its ``pool``
    (``distributions`` unused) to reuse its overlap filter and stances.
    """
    if pool is None:
        return QuestionPool(space.present_tuples(), distributions).live(
            space, attach=False
        )
    return pool.live(space)


def informative_questions(space: OrderingSpace) -> List[Question]:
    """Pairs on which the space still disagrees (strictly prunable)."""
    return relevant_questions(space, distributions=None)


__all__ = [
    "LiveQuestions",
    "QuestionPool",
    "all_pair_questions",
    "relevant_questions",
    "informative_questions",
]

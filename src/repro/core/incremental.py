"""``incr`` — the incremental TPO construction algorithm (§III-D).

The offline/online algorithms above all materialize the full ``T_K`` before
selecting questions — prohibitive for large, highly uncertain datasets
whose trees hold millions of orderings.  ``incr`` interleaves:

1. build the TPO one level at a time (``T_1, T_2, …``), but only when the
   current partial tree does not offer enough candidate questions;
2. select the best ``n`` questions on the *partial* tree, pose them, and
   prune/reweight with the answers (answers about shallow levels prune
   subtrees that will then never be materialized).

The round size ``n`` interpolates between a fully online (``n = 1``) and a
fully offline (``n = B``) interaction pattern, which is why the paper calls
``incr`` a hybrid.  After the budget is exhausted the tree is completed to
depth K (re-applying all collected constraints) so the result is comparable
with the other algorithms.

Every step of the loop leans on the flat level-table tree: ``extend``
appends one array-backed level in a single batched pass, pruning
propagates alive-masks down the tables (compacting the builder's
frontier payload with them), and the repeated ``to_space`` flattenings
between rounds are vectorized gathers rather than per-leaf walks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.core.policies.base import Policy
from repro.questions.candidates import informative_questions
from repro.questions.model import Answer
from repro.tpo.space import DegenerateSpaceError, OrderingSpace
from repro.tpo.tree import TPOTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import UncertaintyReductionSession


class IncrementalAlgorithm(Policy):
    """Hybrid level-by-level construction + rounds of ``n`` questions.

    Parameters
    ----------
    round_size:
        Questions posed per round (the paper's ``n``, ``1 ≤ n ≤ B``).
    """

    name = "incr"

    def __init__(self, round_size: int = 5) -> None:
        if round_size < 1:
            raise ValueError(f"round_size must be >= 1, got {round_size}")
        self.round_size = round_size

    # ------------------------------------------------------------------

    def run(
        self,
        session: "UncertaintyReductionSession",
        budget: int,
    ) -> tuple:
        """Drive the whole loop; returns ``(final_space, answers)``.

        Called by :meth:`UncertaintyReductionSession.run`, which provides
        the builder, crowd, evaluator, and stopwatch.
        """
        builder = session.builder
        crowd = session.crowd
        evaluator = session.evaluator
        watch = session.watch
        answers: List[Answer] = []
        counted_contradictions: set = set()
        with watch.span("build"):
            tree = builder.start(session.distributions, session.k)
            builder.extend(tree)
            tree.renormalize()
        asked = 0
        # The flattened current tree; None once an answer or a new level
        # changed it, so an unchanged tree is flattened once.
        space: Optional[OrderingSpace] = None
        while asked < budget:
            if space is None:
                space = self._current_space(tree, answers)
            with watch.span("select"):
                candidates = informative_questions(space)
            # Build deeper levels only when questions run short (§III-D).
            while (
                len(candidates) < min(self.round_size, budget - asked)
                and not tree.is_complete
            ):
                with watch.span("build"):
                    self._extend_with_constraints(
                        builder, tree, answers, evaluator, counted_contradictions
                    )
                space = self._current_space(tree, answers)
                with watch.span("select"):
                    candidates = informative_questions(space)
            if not candidates:
                break
            round_budget = min(self.round_size, budget - asked, len(candidates))
            with watch.span("select"):
                residuals = evaluator.rank_singles_batch(space, candidates)
                order = np.argsort(residuals, kind="stable")[:round_budget]
                chosen = [candidates[int(c)] for c in order]
            for question in chosen:
                answer = crowd.ask(question)
                answers.append(answer)
                asked += 1
                with watch.span("update"):
                    self._apply_answer(
                        tree, answer, evaluator, counted_contradictions
                    )
            space = None
            if tree.is_complete:
                space = self._current_space(tree, answers)
                if space.is_certain:
                    break
        # Complete the tree so the final space is a genuine T_K.
        while not tree.is_complete:
            with watch.span("build"):
                self._extend_with_constraints(
                    builder, tree, answers, evaluator, counted_contradictions
                )
            space = None
        if space is None:
            space = self._current_space(tree, answers)
        return space, answers

    # ------------------------------------------------------------------

    def _count_contradiction(self, evaluator, counted, answer: Answer) -> None:
        """Count a swallowed contradiction once per answer per run.

        The replay loop re-applies every answer after each extension, so
        an answer that stays contradictory would otherwise be counted at
        every level; keying on the answer's identity keeps
        ``SessionResult.contradictions`` comparable to the other policies.
        """
        if evaluator is not None and id(answer) not in counted:
            counted.add(id(answer))
            evaluator.contradictions += 1

    def _apply_answer(
        self,
        tree: TPOTree,
        answer: Answer,
        evaluator,
        counted: set,
    ) -> None:
        """Prune (reliable) or reweight (noisy) the partial tree."""
        q = answer.question
        if answer.accuracy >= 1.0:
            try:
                tree.prune_with_answer(q.i, q.j, answer.holds)
            except DegenerateSpaceError:
                # Contradictory answer: keep the tree consistent, but
                # count it so SessionResult.contradictions reports incr
                # runs the same way as the other policies.
                self._count_contradiction(evaluator, counted, answer)
        # Noisy answers are replayed on the flattened space instead (the
        # per-leaf weights would be double-counted across extensions).

    def _extend_with_constraints(
        self,
        builder,
        tree: TPOTree,
        answers: List[Answer],
        evaluator,
        counted: set,
    ) -> None:
        """Add one level, then re-apply all reliable answers.

        New nodes may contradict earlier answers (the pruned pair can
        reappear deeper in the tree), so pruning must be replayed after
        every extension — it is idempotent.  An answer that only *becomes*
        contradictory here (deeper levels plus other prunings can leave it
        no consistent ordering) is still a swallowed contradiction and is
        counted, once, like a first-application one.
        """
        builder.extend(tree)
        for answer in answers:
            if answer.accuracy >= 1.0:
                q = answer.question
                try:
                    tree.prune_with_answer(q.i, q.j, answer.holds)
                except DegenerateSpaceError:
                    self._count_contradiction(evaluator, counted, answer)
        tree.renormalize()

    def _current_space(
        self, tree: TPOTree, answers: List[Answer]
    ) -> OrderingSpace:
        """Flatten the tree and replay noisy answers as reweightings."""
        space = tree.to_space()
        for answer in answers:
            if answer.accuracy < 1.0:
                q = answer.question
                try:
                    space = space.reweight_by_answer(
                        q.i, q.j, answer.holds, answer.accuracy
                    )
                except DegenerateSpaceError:
                    pass
        return space


__all__ = ["IncrementalAlgorithm"]

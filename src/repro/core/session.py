"""The uncertainty-reduction session: policy × crowd × TPO orchestration.

A session owns everything one top-K-with-crowd run needs — the uncertain
scores, the TPO builder, the uncertainty measure, and the (simulated)
crowd — and executes a question-selection policy against a budget, keeping
the books the experiments need: questions asked, CPU time split into
build/select/update, uncertainty before/after, and the paper's quality
metric ``D(ω_r, T_K)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.incremental import IncrementalAlgorithm
from repro.core.policies.base import (
    POOL_ALL,
    POOL_RELEVANT,
    OfflinePolicy,
    OnlinePolicy,
    Policy,
)
from repro.crowd.simulator import SimulatedCrowd
from repro.distributions.base import ScoreDistribution
from repro.questions.candidates import QuestionPool, relevant_questions
from repro.questions.model import Answer, Question
from repro.questions.residual import ResidualEvaluator, select_min_residual
from repro.questions.transitive import InferenceCache
from repro.rank.kendall import DEFAULT_PENALTY, expected_topk_distance
from repro.tpo.builders import ENGINES, TPOBuilder
from repro.tpo.space import OrderingSpace
from repro.uncertainty.base import UncertaintyMeasure
from repro.uncertainty.entropy import EntropyMeasure
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import Stopwatch


@dataclass
class SessionResult:
    """Outcome of one policy run (one repetition of one experiment cell)."""

    policy: str
    budget: int
    questions_asked: int
    answers: List[Answer]
    final_space: OrderingSpace
    initial_uncertainty: float
    final_uncertainty: float
    distance_to_truth: float
    initial_distance: float
    orderings_initial: int
    orderings_final: int
    #: CPU seconds per session phase.  Exactly three keys may appear —
    #: ``"build"`` (TPO construction, including ``incr``'s level-by-level
    #: extensions), ``"select"`` (policy question scoring), and
    #: ``"update"`` (posterior pruning/reweighting after answers) — and a
    #: key is present only once its phase has run at least once (e.g. a
    #: zero-budget offline run never records ``"update"``).
    #: :attr:`cpu_seconds` is their sum.
    timings: Dict[str, float] = field(default_factory=dict)
    crowd_cost: float = 0.0
    #: ``D(ω_r, ·)`` before any question plus after every *charged* answer
    #: (inferred answers are applied but not recorded), so
    #: ``len(trajectory) == questions_asked + 1`` whenever tracked.
    trajectory: Optional[List[float]] = None
    #: Questions answered for free by transitive inference (0 unless the
    #: session was built with ``use_transitive_inference=True``).
    inferred_answers: int = 0
    #: Contradictory reliable answers swallowed during this run (the
    #: assumed accuracy overstated the crowd; the space was left
    #: unchanged).  Non-zero means the "reliable" crowd was in fact noisy.
    contradictions: int = 0

    @property
    def cpu_seconds(self) -> float:
        """Algorithm CPU time (build + select + update, no crowd latency)."""
        return sum(self.timings.values())

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.policy:>10s}  B={self.budget:<3d} asked={self.questions_asked:<3d} "
            f"D={self.distance_to_truth:.4f} (from {self.initial_distance:.4f})  "
            f"U={self.final_uncertainty:.4f} (from {self.initial_uncertainty:.4f})  "
            f"cpu={self.cpu_seconds:.3f}s"
        )


class UncertaintyReductionSession:
    """Runs question-selection policies over one uncertain top-K query.

    Parameters
    ----------
    distributions:
        Uncertain scores of the N tuples.
    k:
        Top-K depth of the query.
    crowd:
        Answer source (normally a :class:`SimulatedCrowd`); its ground
        truth also defines the quality metric.
    builder:
        TPO engine (default: grid).
    measure:
        Uncertainty measure driving all policies (default: ``U_H``).
    track_trajectory:
        When True, record ``D(ω_r, ·)`` after every answer.
    use_transitive_inference:
        When True (and the crowd is reliable), answers implied by the
        transitive closure of previous answers — or by disjoint pdf
        supports — are applied for free instead of being posted to the
        crowd, stretching the budget (see
        :mod:`repro.questions.transitive`).
    """

    def __init__(
        self,
        distributions: Sequence[ScoreDistribution],
        k: int,
        crowd: SimulatedCrowd,
        builder: Optional[TPOBuilder] = None,
        measure: Optional[UncertaintyMeasure] = None,
        penalty: float = DEFAULT_PENALTY,
        rng: SeedLike = None,
        track_trajectory: bool = False,
        use_transitive_inference: bool = False,
    ) -> None:
        self.distributions = list(distributions)
        self.k = min(k, len(self.distributions))
        self.crowd = crowd
        self.builder = (
            builder if builder is not None else ENGINES.create("grid")
        )
        self.measure = measure if measure is not None else EntropyMeasure()
        self.evaluator = ResidualEvaluator(self.measure)
        self.penalty = penalty
        self.rng = ensure_rng(rng)
        self.track_trajectory = track_trajectory
        self.use_transitive_inference = use_transitive_inference
        self.watch = Stopwatch()
        self._contradictions_at_start = self.evaluator.contradictions

    # ------------------------------------------------------------------

    def _distance(self, space: OrderingSpace) -> float:
        """The paper's ``D(ω_r, T_K)`` against the crowd's ground truth."""
        reference = self.crowd.truth.top_k(self.k)
        return expected_topk_distance(
            space, reference, penalty=self.penalty, normalized=True
        )

    # ------------------------------------------------------------------

    def run(self, policy: Policy, budget: int) -> SessionResult:
        """Execute ``policy`` with ``budget`` questions; returns the books.

        Every call starts from a freshly built TPO and the crowd's current
        ground truth; timings and crowd statistics are reset.
        """
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.watch.reset()
        self.crowd.stats.reset()
        self._contradictions_at_start = self.evaluator.contradictions
        if isinstance(policy, IncrementalAlgorithm):
            return self._run_incremental(policy, budget)
        if not isinstance(policy, (OfflinePolicy, OnlinePolicy)):
            raise TypeError(
                f"{type(policy).__name__} is neither offline, online, nor incr"
            )
        with self.watch.span("build"):
            tree = self.builder.build(self.distributions, self.k)
            space = tree.to_space()
        initial_uncertainty = self.evaluator.uncertainty(space)
        initial_distance = self._distance(space)
        trajectory = [initial_distance] if self.track_trajectory else None
        inference = self.use_transitive_inference and self.crowd.is_reliable
        stepper = InteractiveSession(
            self.distributions,
            self.k,
            space,
            evaluator=self.evaluator,
            pool=policy.pool,
            transitive_inference=inference,
        )
        if isinstance(policy, OfflinePolicy):
            self._run_offline(policy, stepper, budget, trajectory)
        else:
            self._run_online(policy, stepper, budget, trajectory)
        return self._result(
            policy,
            budget,
            stepper.answers,
            stepper.space,
            initial_uncertainty,
            initial_distance,
            space.size,
            trajectory,
            stepper.inferred_answers,
        )

    # ------------------------------------------------------------------

    def _step(
        self,
        stepper: InteractiveSession,
        question: Question,
        trajectory: Optional[List[float]],
    ) -> None:
        """Answer ``question`` (for free when inferred) and apply it."""
        inferred = stepper.infer(question)
        answer = inferred or self.crowd.ask(question)
        with self.watch.span("update"):
            stepper.submit_answer(
                question, answer.holds, answer.accuracy, inferred=bool(inferred)
            )
        # Inferred answers consume no budget, so they get no trajectory
        # point: len(trajectory) must stay questions_asked + 1.
        if trajectory is not None and inferred is None:
            trajectory.append(self._distance(stepper.space))

    def _run_offline(
        self,
        policy: OfflinePolicy,
        stepper: InteractiveSession,
        budget: int,
        trajectory: Optional[List[float]],
    ) -> None:
        with self.watch.span("select"):
            batch = policy.select(
                stepper.space, stepper.candidates(), budget, self.evaluator, self.rng
            )
        for question in batch:
            self._step(stepper, question, trajectory)

    def _run_online(
        self,
        policy: OnlinePolicy,
        stepper: InteractiveSession,
        budget: int,
        trajectory: Optional[List[float]],
    ) -> None:
        while stepper.questions_asked < budget and not stepper.stalled:
            with self.watch.span("select"):
                question = policy.next_question(
                    stepper.space,
                    stepper.candidates(),
                    budget - stepper.questions_asked,
                    self.evaluator,
                    self.rng,
                )
            if question is None:
                break  # early termination: uncertainty exhausted
            if stepper.refuses(question):
                continue  # a policy ignoring candidates; stops once stalled
            self._step(stepper, question, trajectory)

    def _run_incremental(
        self, policy: IncrementalAlgorithm, budget: int
    ) -> SessionResult:
        space, answers = policy.run(self, budget)
        # incr never materializes the unpruned T_K; initial metrics are
        # reported as NaN rather than paying the full construction cost.
        return self._result(
            policy,
            budget,
            answers,
            space,
            initial_uncertainty=float("nan"),
            initial_distance=float("nan"),
            orderings_initial=-1,
            trajectory=None,
        )

    # ------------------------------------------------------------------

    def _result(
        self,
        policy: Policy,
        budget: int,
        answers: List[Answer],
        space: OrderingSpace,
        initial_uncertainty: float,
        initial_distance: float,
        orderings_initial: int,
        trajectory: Optional[List[float]],
        inferred_answers: int = 0,
    ) -> SessionResult:
        return SessionResult(
            policy=policy.name,
            budget=budget,
            questions_asked=len(answers),
            answers=answers,
            final_space=space,
            initial_uncertainty=initial_uncertainty,
            final_uncertainty=self.evaluator.uncertainty(space),
            distance_to_truth=self._distance(space),
            initial_distance=initial_distance,
            orderings_initial=orderings_initial,
            orderings_final=space.size,
            timings=dict(self.watch.totals),
            crowd_cost=self.crowd.stats.total_cost,
            trajectory=trajectory,
            inferred_answers=inferred_answers,
            contradictions=(
                self.evaluator.contradictions - self._contradictions_at_start
            ),
        )


@dataclass(frozen=True)
class SessionSnapshot:
    """Restorable mid-session state: the query depth plus every applied
    answer, in order.

    The snapshot deliberately stores *answers*, not the pruned space: the
    live space is a deterministic function of (initial TPO, answer
    sequence), so replaying the answers over a freshly built — or
    cache-shared — initial space reproduces the state bit-for-bit.  This is
    the same event-sourcing contract the service layer's JSONL log builds
    on, and it keeps snapshots small and JSON-portable.
    """

    k: int
    #: ``(i, j, holds, accuracy)`` per applied answer, canonical ``i < j``.
    answers: Tuple[Tuple[int, int, bool, float], ...]

    def to_dict(self) -> Dict:
        """Plain-JSON form (used by the service snapshot endpoint)."""
        return {"k": self.k, "answers": [list(a) for a in self.answers]}

    @classmethod
    def from_dict(cls, data: Dict) -> "SessionSnapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(
            k=int(data["k"]),
            answers=tuple(
                (int(i), int(j), bool(holds), float(accuracy))
                for i, j, holds, accuracy in data["answers"]
            ),
        )


class InteractiveSession:
    """The session stepper: one question at a time over a live space.

    The batch loops of :class:`UncertaintyReductionSession`, the service
    manager and :func:`repro.api.run.replay_session` all drive it: callers
    pull candidates or the most informative question, push answers, and
    may snapshot and later restore the session.  It owns the live space,
    the applied answers and the session's :class:`QuestionPool`.

    Parameters
    ----------
    distributions:
        Uncertain scores of the N tuples.
    k:
        Top-K depth of the query.
    space:
        The *initial* ordering space (a freshly built TPO flattened via
        ``to_space``).  Spaces are immutable, so one instance may be shared
        by any number of concurrent sessions — this is the hook the
        service-layer TPO cache plugs into.
    measure:
        Uncertainty measure driving question ranking (default ``U_H``);
        ignored when ``evaluator`` is given.
    evaluator:
        Optional shared :class:`ResidualEvaluator` (the session manager
        passes one so evaluation counters aggregate across sessions).
    pool:
        Candidate pool: ``POOL_RELEVANT`` (the paper's ``Q_K``) or
        ``POOL_ALL`` (every pair of present tuples).
    transitive_inference:
        Supply implied answers for free (:meth:`infer`, not part of
        :meth:`snapshot`), with the livelock guard: an inferred answer that
        changes nothing leaves its question out of :meth:`candidates`, and
        :meth:`refuses` it, until a later answer makes progress.
    """

    def __init__(
        self,
        distributions: Sequence[ScoreDistribution],
        k: int,
        space: OrderingSpace,
        measure: Optional[UncertaintyMeasure] = None,
        evaluator: Optional[ResidualEvaluator] = None,
        pool: str = POOL_RELEVANT,
        transitive_inference: bool = False,
    ) -> None:
        self.distributions = list(distributions)
        self.k = min(k, len(self.distributions))
        if evaluator is None:
            evaluator = ResidualEvaluator(
                measure if measure is not None else EntropyMeasure()
            )
        self.evaluator = evaluator
        self.initial_space = space
        self.space = space
        #: Charged answers, in order (inferred ones are applied, not kept).
        self.answers: List[Answer] = []
        self.pool = pool
        self._pool: Optional[QuestionPool] = None
        self._inference = (
            InferenceCache(len(self.distributions), self.distributions)
            if transitive_inference
            else None
        )
        #: Inferred no-progress questions, and proposals of them since.
        self._fruitless: set = set()
        self._refusals = 0

    # ------------------------------------------------------------------

    @property
    def questions_asked(self) -> int:
        """Number of charged answers applied so far."""
        return len(self.answers)

    @property
    def inferred_answers(self) -> int:
        """Answers :meth:`infer` supplied for free."""
        return self._inference.savings if self._inference is not None else 0

    @property
    def is_settled(self) -> bool:
        """True once a single ordering remains."""
        return self.space.is_certain

    @property
    def stalled(self) -> bool:
        """True after 9 refusals in a row (a policy ignoring candidates)."""
        return self._refusals > 8

    def candidates(self) -> List[Question]:
        """The live candidate pool (settled pairs drop out)."""
        if self.pool == POOL_ALL:
            questions = QuestionPool(self.space.present_tuples()).questions
        else:
            if self._pool is None:  # built on first use: rankings may be memoized
                self._pool = QuestionPool(
                    self.initial_space.present_tuples(), self.distributions
                )
            questions = relevant_questions(self.space, pool=self._pool)
        if self._fruitless:
            questions = [q for q in questions if q not in self._fruitless]
        return questions

    def ranking(
        self, candidates: Optional[Sequence[Question]] = None
    ) -> Tuple[List[Question], np.ndarray]:
        """All candidate questions with their expected residuals ``R_q``.

        The pair of aligned sequences — not just the winner — so a caller
        that memoizes rankings per session state (the service manager) can
        compute once and share.
        """
        if candidates is None:
            candidates = self.candidates()
        return candidates, self.evaluator.rank_singles_batch(
            self.space, candidates
        )

    def next_question(
        self,
        ranking: Optional[Tuple[Sequence[Question], np.ndarray]] = None,
    ) -> Optional[Question]:
        """The most informative question now, or None when nothing is left.

        Ties resolve to the first candidate in canonical pair order, so the
        choice is deterministic — a restored session asks exactly the
        questions the uninterrupted one would.  On a beam-approximate
        space, residuals within the measure's certified interval width
        count as tied (:func:`select_min_residual`); exact spaces keep
        the historical plain ``argmin``.  ``ranking`` short-circuits the
        computation with a precomputed (possibly shared) ranking.
        """
        if ranking is None:
            ranking = self.ranking()
        candidates, residuals = ranking
        if len(candidates) == 0:
            return None
        slack = self.evaluator.ranking_slack(self.space)
        return candidates[select_min_residual(residuals, slack)]

    def infer(self, question: Question) -> Optional[Answer]:
        """The free answer transitive inference implies, if any."""
        return self._inference.lookup(question) if self._inference else None

    def refuses(self, question: Question) -> bool:
        """Whether ``question`` is fruitless (counted for :attr:`stalled`)."""
        if question not in self._fruitless:
            return False
        self._refusals += 1
        return True

    def submit_answer(
        self,
        question: Question,
        holds: bool,
        accuracy: float = 1.0,
        inferred: bool = False,
    ) -> Answer:
        """Apply one answer (prune or reweight) and record it.

        ``inferred`` marks an answer from :meth:`infer`: it costs no
        budget, so it is applied but not recorded.
        """
        before = self.space
        self.space = self.evaluator.apply_answer(before, question, holds, accuracy)
        answer = Answer(question, holds, accuracy=accuracy)
        if inferred and self.space is before:
            self._fruitless.add(question)
            return answer
        self._fruitless.clear()
        self._refusals = 0
        if not inferred:
            self.answers.append(answer)
            if self._inference is not None:
                self._inference.record(answer)
        return answer

    def top_k(self) -> List[int]:
        """The current most probable top-K prefix (the paper's MPO)."""
        return [int(t) for t in self.space.most_probable_ordering()]

    def uncertainty(self) -> float:
        """Current ``U(T)`` under the session's measure."""
        return self.evaluator.uncertainty(self.space)

    # ------------------------------------------------------------------

    def answers_key(self) -> Tuple[Tuple[int, int, bool, float], ...]:
        """Hashable identity of the applied answer sequence.

        Two sessions over the same initial space with equal keys are in
        bit-identical states — the property the service manager's
        per-state ranking memo keys on.
        """
        return tuple(
            (a.question.i, a.question.j, a.holds, a.accuracy)
            for a in self.answers
        )

    def snapshot(self) -> SessionSnapshot:
        """Freeze the session into a restorable, JSON-portable snapshot."""
        return SessionSnapshot(k=self.k, answers=self.answers_key())

    @classmethod
    def restore(
        cls,
        snapshot: SessionSnapshot,
        distributions: Sequence[ScoreDistribution],
        space: OrderingSpace,
        measure: Optional[UncertaintyMeasure] = None,
        evaluator: Optional[ResidualEvaluator] = None,
    ) -> "InteractiveSession":
        """Rebuild a live session by replaying a snapshot's answers.

        ``distributions`` and ``space`` must describe the same instance the
        snapshot was taken from (the initial space, not the pruned one).
        """
        session = cls(
            distributions,
            snapshot.k,
            space,
            measure=measure,
            evaluator=evaluator,
        )
        for i, j, holds, accuracy in snapshot.answers:
            session.submit_answer(Question(i, j), holds, accuracy=accuracy)
        return session


__all__ = [
    "UncertaintyReductionSession",
    "SessionResult",
    "InteractiveSession",
    "SessionSnapshot",
]

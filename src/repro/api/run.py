"""Turn a :class:`~repro.api.specs.SessionSpec` into a running session.

All RNG streams derive from the instance seed through the process-stable
:func:`~repro.utils.rng.derive_seed`, with one label per role (instance /
truth / crowd / policy), so a spec fully determines its outcome: the same
:class:`SessionSpec` produces the same questions, the same answers, and
the same final ordering space in every process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.api.specs import SessionSpec
from repro.utils.rng import derive_seed

#: One recorded crowd answer: ``(i, j, holds, accuracy)``, canonical
#: ``i < j`` — the same shape session snapshots and the service event
#: log store.
AnswerTuple = Tuple[int, int, bool, float]


@dataclass
class PreparedSession:
    """Everything :func:`prepare_session` materialized for one spec."""

    spec: SessionSpec
    distributions: List[Any]
    truth: Any
    crowd: Any
    session: Any

    def run(self) -> Any:
        """Run the configured policy against the configured budget."""
        return self.session.run(
            self.spec.policy.build(), self.spec.budget.questions
        )


def prepare_session(
    spec: SessionSpec, track_trajectory: bool = False
) -> PreparedSession:
    """Materialize instance, ground truth, crowd, and session for a spec."""
    from repro.core.session import UncertaintyReductionSession
    from repro.crowd.oracle import GroundTruth

    seed = spec.instance.seed
    distributions = spec.instance.materialize()
    truth = GroundTruth.sample(distributions, rng=derive_seed(seed, "truth"))
    crowd = spec.crowd.build(truth, rng=derive_seed(seed, "crowd"))
    session = UncertaintyReductionSession(
        distributions,
        spec.instance.k,
        crowd,
        builder=spec.build_builder(),
        measure=spec.measure.build(),
        rng=derive_seed(seed, "policy"),
        track_trajectory=track_trajectory,
    )
    return PreparedSession(spec, distributions, truth, crowd, session)


def run_session(spec: SessionSpec, track_trajectory: bool = False) -> Any:
    """Run one complete session described by ``spec``; returns the
    :class:`~repro.core.session.SessionResult`."""
    return prepare_session(spec, track_trajectory=track_trajectory).run()


@dataclass
class ReplayResult:
    """What :func:`replay_session` reconstructed from a spec + answers.

    ``uncertainties`` / ``intervals`` / ``orderings`` hold one entry per
    *state* — the initial space plus the state after each applied answer,
    so their length is ``len(answers) + 1``.  Intervals are the certified
    ``[lo, hi]`` of :meth:`UncertaintyMeasure.evaluate_interval`
    (degenerate ``[v, v]`` on exact engines).
    """

    spec: SessionSpec
    space: Any
    uncertainties: List[float]
    intervals: List[Tuple[float, float]]
    orderings: List[int]

    def top_k(self) -> List[int]:
        """The final most-probable top-K prefix (the paper's MPO)."""
        return [int(t) for t in self.space.most_probable_ordering()]


def replay_session(
    spec: SessionSpec,
    answers: Sequence[AnswerTuple],
    evaluator: Optional[Any] = None,
) -> ReplayResult:
    """Re-apply a recorded answer sequence over a freshly built space.

    This is the *sanctioned* deterministic replay path: the spec fully
    determines the initial space (same seed derivation as
    :func:`prepare_session`), and the final state is a pure function of
    (spec, answers) — the same event-sourcing contract session snapshots
    and the service event log rely on.  The evaluation harness
    (:mod:`repro.evals`) uses it both to verify golden recordings
    bit-for-bit and to realize exact measure values along a beam
    session's answer trajectory; check RPL010 holds eval code to
    this entry point instead of hand-rolled session construction.

    The answers drive the session stepper (:class:`InteractiveSession`).
    ``evaluator`` overrides the :class:`ResidualEvaluator` (e.g. to share
    evaluation counters); by default one is built from ``spec.measure``.
    """
    from repro.core.session import InteractiveSession
    from repro.questions.model import Question
    from repro.questions.residual import ResidualEvaluator

    distributions = spec.instance.materialize()
    tree = spec.build_builder().build(distributions, spec.instance.k)
    if evaluator is None:
        evaluator = ResidualEvaluator(spec.measure.build())
    session = InteractiveSession(
        distributions, spec.instance.k, tree.to_space(), evaluator=evaluator
    )
    uncertainties = [evaluator.uncertainty(session.space)]
    intervals = [evaluator.uncertainty_interval(session.space)]
    orderings = [int(session.space.size)]
    for i, j, holds, accuracy in answers:
        session.submit_answer(
            Question(int(i), int(j)), bool(holds), float(accuracy)
        )
        uncertainties.append(evaluator.uncertainty(session.space))
        intervals.append(evaluator.uncertainty_interval(session.space))
        orderings.append(int(session.space.size))
    return ReplayResult(
        spec=spec,
        space=session.space,
        uncertainties=uncertainties,
        intervals=intervals,
        orderings=orderings,
    )


__all__ = [
    "AnswerTuple",
    "PreparedSession",
    "ReplayResult",
    "prepare_session",
    "replay_session",
    "run_session",
]

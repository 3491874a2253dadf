"""Regression tests for session-loop correctness fixes.

Covers three bugs found while auditing the session loop:

* online livelock — with transitive inference on, inferred answers consume
  no budget, so a step that neither charges budget nor changes the space
  must terminate the loop instead of repeating forever;
* contradiction accounting — contradictory reliable answers used to be
  silently swallowed; they are now counted and surfaced on
  :class:`SessionResult`;
* trajectory bookkeeping — only *charged* answers record a ``D(ω_r, ·)``
  point, so ``len(trajectory) == questions_asked + 1`` always holds.
"""

from typing import Sequence

import numpy as np

from repro.api import POLICIES
from repro.core.policies.base import OfflinePolicy, OnlinePolicy
from repro.core.policies.baselines import RandomPolicy
from repro.core.session import UncertaintyReductionSession
from repro.crowd.oracle import GroundTruth
from repro.crowd.simulator import CrowdStats, SimulatedCrowd
from repro.distributions.uniform import Uniform
from repro.questions.model import Answer, Question
from repro.questions.residual import ResidualEvaluator
from repro.uncertainty.entropy import EntropyMeasure

from oracles.spaces import space_from_orderings


class FixedQuestionPolicy(OnlinePolicy):
    """Always asks the same question — livelock bait under inference."""

    name = "fixed"

    def __init__(self, question: Question, max_calls: int = 50) -> None:
        self.question = question
        self.calls = 0
        self.max_calls = max_calls

    def next_question(self, space, candidates, remaining_budget, evaluator, rng):
        self.calls += 1
        assert self.calls <= self.max_calls, (
            "online session livelocked: the same inferred, non-pruning "
            "question was selected over and over"
        )
        return self.question


class ScriptedBatchPolicy(OfflinePolicy):
    """Returns a fixed batch regardless of candidates."""

    name = "scripted"

    def __init__(self, batch: Sequence[Question]) -> None:
        self.batch = list(batch)

    def select(self, space, candidates, budget, evaluator, rng):
        return list(self.batch[:budget])


class ScriptedCrowd:
    """Minimal crowd stub replaying a fixed list of reliable verdicts."""

    is_reliable = True

    def __init__(self, truth: GroundTruth, verdicts: Sequence[bool]) -> None:
        self.truth = truth
        self.stats = CrowdStats()
        self._verdicts = list(verdicts)

    def ask(self, question: Question) -> Answer:
        holds = self._verdicts.pop(0)
        self.stats.questions_posted += 1
        self.stats.assignments += 1
        return Answer(question, holds, accuracy=1.0)


# ----------------------------------------------------------------------
# Livelock
# ----------------------------------------------------------------------


def test_online_session_terminates_when_inference_makes_no_progress():
    distributions = [Uniform(0.0, 1.0), Uniform(0.0, 1.0), Uniform(0.0, 1.0)]
    crowd = SimulatedCrowd(
        GroundTruth([0.9, 0.5, 0.1]), worker_accuracy=1.0, rng=3
    )
    session = UncertaintyReductionSession(
        distributions,
        k=2,
        crowd=crowd,
        rng=3,
        use_transitive_inference=True,
    )
    policy = FixedQuestionPolicy(Question(0, 1), max_calls=100)
    result = session.run(policy, budget=5)
    # One charged answer; the second iteration is inferred and non-pruning
    # (marking the question fruitless); every further re-selection is
    # skipped until the bounded-skip guard ends the session — without
    # charging budget or spinning forever.
    assert result.questions_asked == 1
    assert 3 <= policy.calls <= 50
    assert result.inferred_answers >= 1


def test_online_session_terminates_when_cycling_fruitless_questions():
    """A (pseudo-)stochastic policy alternating no-op questions must also
    terminate — the guard trips once a known-fruitless question repeats."""

    class Alternating(OnlinePolicy):
        name = "alternating"

        def __init__(self) -> None:
            self.calls = 0

        def next_question(self, space, candidates, remaining, evaluator, rng):
            self.calls += 1
            assert self.calls <= 200, "livelock: fruitless cycle never broke"
            return [Question(0, 1), Question(1, 2)][self.calls % 2]

    distributions = [Uniform(0.0, 1.0), Uniform(0.0, 1.0), Uniform(0.0, 1.0)]
    crowd = SimulatedCrowd(
        GroundTruth([0.9, 0.5, 0.1]), worker_accuracy=1.0, rng=3
    )
    session = UncertaintyReductionSession(
        distributions, k=2, crowd=crowd, rng=3, use_transitive_inference=True
    )
    result = session.run(Alternating(), budget=10)
    assert result.questions_asked <= 2


# ----------------------------------------------------------------------
# Contradiction accounting
# ----------------------------------------------------------------------


def test_contradictory_reliable_answers_are_counted():
    distributions = [Uniform(0.0, 1.0), Uniform(0.0, 1.0)]
    truth = GroundTruth([1.0, 0.0])
    question = Question(0, 1)
    crowd = ScriptedCrowd(truth, [True, False])  # second answer contradicts
    session = UncertaintyReductionSession(
        distributions, k=2, crowd=crowd, rng=0
    )
    result = session.run(ScriptedBatchPolicy([question, question]), budget=2)
    assert result.contradictions == 1
    assert result.questions_asked == 2
    # The contradictory answer left the space unchanged rather than empty.
    assert result.orderings_final == 1

    # Counts are per-run deltas, not lifetime totals of the evaluator.
    crowd2 = ScriptedCrowd(truth, [True, True])
    session.crowd = crowd2
    clean = session.run(ScriptedBatchPolicy([question, question]), budget=2)
    assert clean.contradictions == 0


def test_incr_survives_and_counts_contradictions():
    """incr with a noisy-but-assumed-reliable crowd must neither crash in
    the answer-replay loop (atomic prune_with_answer) nor report the run
    as clean (regression: contradictions were swallowed with a bare pass
    and a half-pruned zero-mass tree crashed a later renormalize)."""
    found = 0
    for seed in range(6):
        scores = [
            Uniform(c, c + 0.35)
            for c in np.random.default_rng(seed).random(8)
        ]
        crowd = SimulatedCrowd(
            GroundTruth.sample(scores, rng=seed),
            worker_accuracy=0.55,
            assumed_accuracy=1.0,
            rng=seed,
        )
        session = UncertaintyReductionSession(scores, k=4, crowd=crowd, rng=seed)
        result = session.run(POLICIES.create("incr"), budget=15)
        # Replays re-apply every answer per extension level; each answer
        # must still be counted at most once.
        assert result.contradictions <= result.questions_asked
        found += result.contradictions
    assert found > 0  # seed 2 contradicts; the loop must not crash


def test_apply_answer_counts_contradictions_on_evaluator():
    evaluator = ResidualEvaluator(EntropyMeasure())
    space = space_from_orderings([[0, 1]], [1.0], 4)
    assert evaluator.contradictions == 0
    updated = evaluator.apply_answer(
        space, Question(0, 1), holds=False, accuracy=1.0
    )
    assert updated is space
    assert evaluator.contradictions == 1


# ----------------------------------------------------------------------
# Trajectory bookkeeping
# ----------------------------------------------------------------------


def test_trajectory_records_only_charged_answers():
    # (0, 1) genuinely uncertain; both are disjoint from tuple 2, so two of
    # the three candidate pairs are answered for free by support seeding.
    distributions = [
        Uniform(0.80, 1.00),
        Uniform(0.85, 1.05),
        Uniform(0.50, 0.60),
        Uniform(0.00, 0.10),
        Uniform(0.15, 0.25),
    ]
    crowd = SimulatedCrowd(
        GroundTruth([0.9, 0.95, 0.55, 0.05, 0.2]), worker_accuracy=1.0, rng=5
    )
    session = UncertaintyReductionSession(
        distributions,
        k=3,
        crowd=crowd,
        rng=5,
        track_trajectory=True,
        use_transitive_inference=True,
    )
    result = session.run(RandomPolicy(), budget=3)
    assert result.inferred_answers == 2
    assert result.questions_asked == 1
    assert result.trajectory is not None
    assert len(result.trajectory) == result.questions_asked + 1


def test_trajectory_invariant_without_inference():
    distributions = [Uniform(c, c + 0.4) for c in (0.0, 0.1, 0.2, 0.3)]
    crowd = SimulatedCrowd(
        GroundTruth([0.2, 0.35, 0.4, 0.6]), worker_accuracy=1.0, rng=9
    )
    session = UncertaintyReductionSession(
        distributions, k=2, crowd=crowd, rng=9, track_trajectory=True
    )
    result = session.run(POLICIES.create("T1-on"), budget=4)
    assert result.trajectory is not None
    assert len(result.trajectory) == result.questions_asked + 1

"""Tests for the uncertainty-reduction session engine."""

import numpy as np
import pytest

from repro.api import POLICIES
from repro.core import (
    IncrementalAlgorithm,
    UncertaintyReductionSession,
)
from repro.crowd import GroundTruth, SimulatedCrowd
from repro.distributions import Uniform
from repro.tpo import GridBuilder
from repro.tpo.tree import TPOTree


@pytest.fixture
def dists():
    rng = np.random.default_rng(3)
    return [Uniform(c, c + 0.3) for c in rng.random(8)]


@pytest.fixture
def truth(dists):
    return GroundTruth.sample(dists, rng=11)


def make_session(dists, truth, accuracy=1.0, seed=0, **kwargs):
    crowd = SimulatedCrowd(
        truth, worker_accuracy=accuracy, rng=np.random.default_rng(seed)
    )
    return UncertaintyReductionSession(
        dists,
        4,
        crowd,
        builder=GridBuilder(resolution=500),
        rng=np.random.default_rng(seed + 1),
        **kwargs,
    )


class TestReliableRuns:
    @pytest.mark.parametrize(
        "policy_name", ["random", "naive", "TB-off", "C-off", "T1-on"]
    )
    def test_policies_reduce_uncertainty(self, dists, truth, policy_name):
        session = make_session(dists, truth)
        result = session.run(POLICIES.create(policy_name), 8)
        assert result.final_uncertainty <= result.initial_uncertainty + 1e-9
        assert result.orderings_final <= result.orderings_initial
        assert result.questions_asked <= 8
        assert 0.0 <= result.distance_to_truth <= 1.0

    def test_online_early_termination(self, dists, truth):
        session = make_session(dists, truth)
        result = session.run(POLICIES.create("T1-on"), 100)
        # Enough budget resolves everything; T1-on must stop early.
        assert result.final_space.is_certain
        assert result.questions_asked < 100

    def test_resolved_space_contains_truth_prefix(self, dists, truth):
        session = make_session(dists, truth)
        result = session.run(POLICIES.create("T1-on"), 100)
        np.testing.assert_array_equal(
            result.final_space.paths[0], truth.top_k(4)
        )
        assert result.distance_to_truth == pytest.approx(0.0, abs=1e-12)

    def test_zero_budget_returns_initial_state(self, dists, truth):
        session = make_session(dists, truth)
        result = session.run(POLICIES.create("T1-on"), 0)
        assert result.questions_asked == 0
        assert result.final_uncertainty == pytest.approx(
            result.initial_uncertainty
        )

    def test_negative_budget_rejected(self, dists, truth):
        session = make_session(dists, truth)
        with pytest.raises(ValueError):
            session.run(POLICIES.create("T1-on"), -1)

    def test_trajectory_tracking(self, dists, truth):
        session = make_session(dists, truth, track_trajectory=True)
        result = session.run(POLICIES.create("TB-off"), 5)
        assert result.trajectory is not None
        assert len(result.trajectory) == result.questions_asked + 1
        assert result.trajectory[0] == pytest.approx(result.initial_distance)
        assert result.trajectory[-1] == pytest.approx(
            result.distance_to_truth
        )

    def test_timings_are_recorded(self, dists, truth):
        session = make_session(dists, truth)
        result = session.run(POLICIES.create("T1-on"), 5)
        assert "build" in result.timings
        assert "select" in result.timings
        assert result.cpu_seconds >= 0

    def test_summary_is_readable(self, dists, truth):
        session = make_session(dists, truth)
        result = session.run(POLICIES.create("naive"), 3)
        text = result.summary()
        assert "naive" in text
        assert "D=" in text


class TestNoisyRuns:
    def test_noisy_answers_never_prune(self, dists, truth):
        session = make_session(dists, truth, accuracy=0.8)
        result = session.run(POLICIES.create("T1-on"), 6)
        # Reweighting keeps the support intact.
        assert result.orderings_final == result.orderings_initial
        assert result.questions_asked == 6

    def test_noisy_run_still_helps_on_average(self, dists, truth):
        distances = []
        for seed in range(5):
            session = make_session(dists, truth, accuracy=0.85, seed=seed)
            result = session.run(POLICIES.create("T1-on"), 10)
            distances.append(
                result.distance_to_truth - result.initial_distance
            )
        assert np.mean(distances) < 0  # on average the distance drops

    def test_answers_carry_assumed_accuracy(self, dists, truth):
        session = make_session(dists, truth, accuracy=0.8)
        result = session.run(POLICIES.create("T1-on"), 3)
        for answer in result.answers:
            assert answer.accuracy == pytest.approx(0.8)


class TestIncrementalSession:
    def test_incr_runs_and_completes_tree(self, dists, truth):
        session = make_session(dists, truth)
        result = session.run(IncrementalAlgorithm(round_size=3), 8)
        assert result.policy == "incr"
        assert result.final_space.depth == 4
        assert result.questions_asked <= 8
        assert 0.0 <= result.distance_to_truth <= 1.0

    def test_incr_round_size_one(self, dists, truth):
        session = make_session(dists, truth)
        result = session.run(IncrementalAlgorithm(round_size=1), 6)
        assert result.questions_asked <= 6

    def test_incr_with_noisy_crowd(self, dists, truth):
        session = make_session(dists, truth, accuracy=0.8)
        result = session.run(IncrementalAlgorithm(round_size=2), 6)
        assert result.final_space.depth == 4
        assert result.final_space.probabilities.sum() == pytest.approx(1.0)

    def test_incr_initial_metrics_are_nan(self, dists, truth):
        session = make_session(dists, truth)
        result = session.run(IncrementalAlgorithm(round_size=2), 4)
        assert np.isnan(result.initial_uncertainty)
        assert np.isnan(result.initial_distance)

    @pytest.mark.parametrize("budget", [4, 8, 40])
    def test_incr_flattens_each_tree_state_once(
        self, dists, truth, monkeypatch, budget
    ):
        """The end-of-round certainty check's space is reused by the next
        round or returned, so no tree state is flattened twice."""
        flattened = []
        to_space = TPOTree.to_space

        def recording(tree):
            space = to_space(tree)
            flattened.append(
                space.paths.tobytes() + space.probabilities.tobytes()
            )
            return space

        monkeypatch.setattr(TPOTree, "to_space", recording)
        make_session(dists, truth).run(IncrementalAlgorithm(round_size=3), budget)
        assert flattened
        assert len(flattened) == len(set(flattened))

    def test_incr_validation(self):
        with pytest.raises(ValueError):
            IncrementalAlgorithm(round_size=0)

    def test_incr_cheaper_than_full_build(self, dists, truth):
        full = make_session(dists, truth)
        full_result = full.run(POLICIES.create("T1-on"), 6)
        lazy = make_session(dists, truth)
        lazy_result = lazy.run(IncrementalAlgorithm(round_size=3), 6)
        assert lazy_result.timings.get("build", 0.0) <= (
            full_result.timings.get("build", 0.0) * 3 + 0.5
        )


class TestDeterminism:
    def test_same_seed_same_outcome(self, dists, truth):
        first = make_session(dists, truth, seed=5).run(POLICIES.create("naive"), 5)
        second = make_session(dists, truth, seed=5).run(POLICIES.create("naive"), 5)
        assert [a.question for a in first.answers] == [
            a.question for a in second.answers
        ]
        assert first.distance_to_truth == pytest.approx(
            second.distance_to_truth
        )

    def test_unknown_policy_type_rejected(self, dists, truth):
        class Strange:
            name = "strange"

        session = make_session(dists, truth)
        with pytest.raises(TypeError):
            session.run(Strange(), 3)

"""Tests for the crowd substrate: oracle, workers, aggregation, simulator."""

import numpy as np
import pytest

from repro.crowd import (
    AdversarialWorker,
    GroundTruth,
    NoisyWorker,
    PerfectWorker,
    SimulatedCrowd,
    majority_accuracy,
    majority_vote,
    weighted_vote,
)
from repro.distributions import Uniform
from repro.questions import Question


class TestGroundTruth:
    def test_ordering_is_descending(self):
        truth = GroundTruth([0.1, 0.9, 0.5])
        np.testing.assert_array_equal(truth.ordering, [1, 2, 0])
        assert truth.rank_of(1) == 0
        assert truth.rank_of(0) == 2

    def test_ties_break_by_index(self):
        truth = GroundTruth([0.5, 0.5, 0.1])
        np.testing.assert_array_equal(truth.ordering, [0, 1, 2])

    def test_top_k(self):
        truth = GroundTruth([3.0, 1.0, 2.0, 4.0])
        np.testing.assert_array_equal(truth.top_k(2), [3, 0])

    def test_holds(self):
        truth = GroundTruth([0.9, 0.1])
        # Canonical claim is always "t_i ≺ t_j" with i < j.
        assert truth.holds(Question(0, 1)) is True
        assert truth.holds(Question(1, 0)) is True  # same canonical question
        assert not GroundTruth([0.1, 0.9]).holds(Question(0, 1))

    def test_sample_respects_supports(self):
        dists = [Uniform(0, 1), Uniform(5, 6)]
        truth = GroundTruth.sample(dists, rng=0)
        assert truth.scores[0] <= 1.0
        assert truth.scores[1] >= 5.0
        np.testing.assert_array_equal(truth.ordering, [1, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GroundTruth([])


class TestWorkers:
    @pytest.fixture
    def truth(self):
        return GroundTruth([0.2, 0.8, 0.5])

    def test_perfect_worker(self, truth):
        worker = PerfectWorker()
        assert worker.accuracy == 1.0
        # truth: t1 (0.8) ranks above t0 (0.2) → claim "t0 ≺ t1" is False.
        assert worker.answer(Question(0, 1), truth) is False
        assert worker.answer(Question(1, 2), truth) is True
        assert worker.answered == 2

    def test_adversarial_worker(self, truth):
        worker = AdversarialWorker()
        assert worker.answer(Question(0, 1), truth) is True

    def test_noisy_worker_error_rate(self, truth):
        worker = NoisyWorker(0.8, rng=np.random.default_rng(0))
        question = Question(1, 2)  # claim true: t1 (0.8) above t2 (0.5)
        answers = [worker.answer(question, truth) for _ in range(4000)]
        correct_fraction = float(np.mean(answers))
        assert correct_fraction == pytest.approx(0.8, abs=0.02)

    def test_noisy_worker_validation(self):
        with pytest.raises(ValueError):
            NoisyWorker(1.3)

    def test_worker_names_unique(self):
        assert PerfectWorker().name != PerfectWorker().name


class TestAggregation:
    def test_majority_vote(self):
        verdict, support = majority_vote([True, True, False])
        assert verdict is True
        assert support == pytest.approx(2 / 3)

    def test_majority_tie_prefers_true(self):
        verdict, _ = majority_vote([True, False])
        assert verdict is True

    def test_majority_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])

    def test_weighted_vote_trusts_better_worker(self):
        verdict, confidence = weighted_vote(
            [True, False, False], [0.95, 0.6, 0.6]
        )
        assert verdict is True  # the strong yes outweighs two weak nos
        assert 0.5 <= confidence <= 1.0

    def test_weighted_vote_validation(self):
        with pytest.raises(ValueError):
            weighted_vote([True], [0.9, 0.8])
        with pytest.raises(ValueError):
            weighted_vote([], [])

    def test_majority_accuracy_boost(self):
        single = majority_accuracy(0.8, 1)
        tripled = majority_accuracy(0.8, 3)
        assert single == pytest.approx(0.8)
        assert tripled > 0.88  # 0.8^3 + 3·0.8²·0.2 = 0.896

    def test_majority_accuracy_even_ties(self):
        # Two workers, tie broken uniformly: p² + p(1−p).
        assert majority_accuracy(0.8, 2) == pytest.approx(
            0.8**2 + 0.8 * 0.2
        )

    def test_majority_accuracy_validation(self):
        with pytest.raises(ValueError):
            majority_accuracy(0.8, 0)


class TestSimulatedCrowd:
    @pytest.fixture
    def truth(self):
        return GroundTruth([0.2, 0.8, 0.5, 0.9])

    def test_perfect_crowd_always_correct(self, truth):
        crowd = SimulatedCrowd(truth, worker_accuracy=1.0)
        for question in [Question(0, 1), Question(2, 3), Question(1, 3)]:
            answer = crowd.ask(question)
            assert answer.holds == truth.holds(question)
            assert answer.accuracy == 1.0

    def test_noisy_crowd_reports_effective_accuracy(self, truth):
        crowd = SimulatedCrowd(
            truth, worker_accuracy=0.8, replication=3, rng=0
        )
        assert crowd.effective_accuracy() == pytest.approx(
            majority_accuracy(0.8, 3)
        )
        answer = crowd.ask(Question(0, 1))
        assert answer.accuracy == pytest.approx(crowd.effective_accuracy())
        assert not crowd.is_reliable

    def test_assumed_accuracy_override(self, truth):
        crowd = SimulatedCrowd(
            truth, worker_accuracy=0.8, assumed_accuracy=0.95, rng=0
        )
        assert crowd.ask(Question(0, 1)).accuracy == 0.95

    def test_cost_accounting(self, truth):
        crowd = SimulatedCrowd(
            truth, worker_accuracy=0.9, replication=3,
            cost_per_assignment=0.10, rng=0,
        )
        for question in (Question(0, 1), Question(2, 3)):
            crowd.ask(question)
        assert crowd.stats.questions_posted == 2
        assert crowd.stats.assignments == 6
        assert crowd.stats.total_cost == pytest.approx(0.60)
        crowd.stats.reset()
        assert crowd.stats.questions_posted == 0

    def test_validation(self, truth):
        with pytest.raises(ValueError):
            SimulatedCrowd(truth, worker_accuracy=1.2)
        with pytest.raises(ValueError):
            SimulatedCrowd(truth, replication=0)

"""Tests for the question model, candidate generation, and residuals."""

import numpy as np
import pytest

from repro.distributions import Uniform
from repro.questions import (
    Answer,
    Question,
    ResidualEvaluator,
    all_pair_questions,
    informative_questions,
    relevant_questions,
)
from repro.uncertainty import EntropyMeasure

from oracles.question_pool import is_settled, question_set
from oracles.scalar_residual import rank_singles
from oracles.spaces import space_from_orderings


class TestQuestionModel:
    def test_canonicalizes_order(self):
        assert Question(3, 1) == Question(1, 3)
        assert Question(3, 1).pair == (1, 3)

    def test_rejects_self_comparison(self):
        with pytest.raises(ValueError):
            Question(2, 2)

    def test_hashable_and_sortable(self):
        questions = {Question(0, 1), Question(1, 0), Question(0, 2)}
        assert len(questions) == 2
        assert sorted(questions)[0] == Question(0, 1)

    def test_answer_repr_mentions_relation(self):
        yes = Answer(Question(0, 1), True)
        no = Answer(Question(0, 1), False, accuracy=0.8)
        assert "≺" in repr(yes)
        assert "⊀" in repr(no)
        assert no.accuracy == 0.8


class TestCandidates:
    def test_all_pairs_counts(self, toy_space):
        questions = all_pair_questions(toy_space)
        assert len(questions) == 6  # C(4,2), all tuples present

    def test_relevant_excludes_settled(self, toy_space):
        # Pair (2,3): only path [2,3] mentions both → always 2 ≺ 3: settled.
        questions = informative_questions(toy_space)
        assert Question(2, 3) not in questions
        assert Question(0, 1) in questions

    def test_relevant_uses_pdf_overlap(self):
        dists = [Uniform(0, 1), Uniform(0.5, 1.5), Uniform(2, 3)]
        paths = [[2, 1], [2, 0]]
        space = space_from_orderings(paths, [0.6, 0.4], 3)
        questions = relevant_questions(space, dists)
        # Pair (0,2) and (1,2) have disjoint pdfs → excluded even though
        # tuple 2 appears in the tree.
        assert Question(0, 2) not in questions
        assert Question(1, 2) not in questions

    def test_is_settled(self, toy_space):
        assert is_settled(toy_space, 2, 3)
        assert not is_settled(toy_space, 0, 1)


@pytest.fixture
def evaluator():
    return ResidualEvaluator(EntropyMeasure())


class TestSingleResidual:
    def test_two_outcome_expectation(self, toy_space, evaluator):
        question = Question(0, 1)
        codes = toy_space.agreement_codes(0, 1)
        # Pr(yes) over the decisive paths: 0.4 + 0.2 of 0.9.
        p_yes = toy_space.probabilities[codes == 1].sum() / (
            toy_space.probabilities[codes != 0].sum()
        )
        measure = EntropyMeasure()
        expected = p_yes * measure(
            toy_space.restrict(codes != -1)
        ) + (1 - p_yes) * measure(toy_space.restrict(codes != 1))
        assert evaluator.single(toy_space, question) == pytest.approx(expected)

    def test_useless_question_returns_current_uncertainty(self, evaluator):
        space = space_from_orderings(
            [[0, 1], [1, 0]], [0.5, 0.5], 4
        )
        # Pair (2,3) appears in no ordering: no pruning possible.
        value = evaluator.single(space, Question(2, 3))
        assert value == pytest.approx(EntropyMeasure()(space))

    def test_residual_never_exceeds_prior_for_entropy(
        self, small_space, evaluator
    ):
        prior = EntropyMeasure()(small_space)
        for question in informative_questions(small_space):
            assert evaluator.single(small_space, question) <= prior + 1e-9

    def test_rank_singles_aligned(self, toy_space, evaluator):
        questions = informative_questions(toy_space)
        residuals = rank_singles(evaluator, toy_space, questions)
        assert residuals.shape == (len(questions),)
        for question, value in zip(questions, residuals, strict=True):
            assert value == pytest.approx(
                evaluator.single(toy_space, question)
            )


class TestQuestionSetResidual:
    def test_empty_set_is_current_uncertainty(self, toy_space, evaluator):
        assert question_set(evaluator, toy_space, []) == pytest.approx(
            EntropyMeasure()(toy_space)
        )

    def test_single_question_set_matches_single(self, toy_space, evaluator):
        question = Question(0, 1)
        # With some silent paths the partition treats silence as its own
        # pattern; on a fully decisive pair the two notions coincide.
        decisive = toy_space.restrict(
            toy_space.agreement_codes(0, 1) != 0
        )
        assert question_set(evaluator, decisive, [question]) == pytest.approx(
            evaluator.single(decisive, question)
        )

    def test_superset_never_increases_entropy_residual(
        self, small_space, evaluator
    ):
        questions = informative_questions(small_space)[:4]
        if len(questions) < 3:
            pytest.skip("not enough candidates in this instance")
        smaller = question_set(evaluator, small_space, questions[:2])
        larger = question_set(evaluator, small_space, questions[:3])
        assert larger <= smaller + 1e-9

    def test_full_question_set_resolves_space(self, small_space, evaluator):
        questions = all_pair_questions(small_space)
        residual = question_set(evaluator, small_space, questions)
        # Asking every pair pins down the ordering: residual ~ 0.
        assert residual == pytest.approx(0.0, abs=1e-9)

    def test_pattern_cap_is_upper_bound(self, small_space, evaluator):
        questions = informative_questions(small_space)[:3]
        exact_value = question_set(evaluator, small_space, questions)
        capped = question_set(evaluator, small_space, questions, pattern_cap=2)
        assert capped >= exact_value - 1e-9

    def test_codes_matrix_shape(self, toy_space, evaluator):
        questions = [Question(0, 1), Question(0, 2)]
        codes = evaluator.codes_matrix(toy_space, questions)
        assert codes.shape == (4, 2)
        np.testing.assert_array_equal(
            codes[:, 0], toy_space.agreement_codes(0, 1)
        )


class TestApplyAnswer:
    def test_reliable_answer_prunes(self, toy_space, evaluator):
        updated = evaluator.apply_answer(
            toy_space, Question(0, 1), holds=True, accuracy=1.0
        )
        assert updated.size == 3

    def test_noisy_answer_reweights(self, toy_space, evaluator):
        updated = evaluator.apply_answer(
            toy_space, Question(0, 1), holds=True, accuracy=0.8
        )
        assert updated.size == toy_space.size

    def test_contradiction_is_swallowed(self, evaluator):
        space = space_from_orderings([[0, 1]], [1.0], 4)
        updated = evaluator.apply_answer(
            space, Question(0, 1), holds=False, accuracy=1.0
        )
        assert updated is space

    def test_evaluation_counter_increases(self, toy_space, evaluator):
        before = evaluator.evaluations
        evaluator.single(toy_space, Question(0, 1))
        assert evaluator.evaluations > before

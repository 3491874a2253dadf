"""Tests for the question-selection policies (offline and online)."""

import numpy as np
import pytest

from repro.api import PolicySpec
from repro.core import POLICIES
from repro.core.policies import (
    AStarOfflinePolicy,
    AStarOnlinePolicy,
    ConditionalPolicy,
    ExhaustivePolicy,
    NaivePolicy,
    RandomPolicy,
    Top1OnlinePolicy,
    TopBPolicy,
)
from repro.questions import (
    ResidualEvaluator,
    all_pair_questions,
    informative_questions,
)
from repro.uncertainty import EntropyMeasure

from oracles.question_pool import question_set
from oracles.scalar_residual import rank_singles
from oracles.spaces import space_from_orderings


@pytest.fixture
def evaluator():
    return ResidualEvaluator(EntropyMeasure())


@pytest.fixture
def candidates(small_space):
    return informative_questions(small_space)


class TestFactory:
    def test_all_paper_names_present(self):
        expected = {
            "random", "naive", "TB-off", "C-off", "A*-off", "A*-on",
            "T1-on", "incr", "exhaustive",
        }
        assert expected == set(POLICIES)

    def test_registry_create(self):
        assert isinstance(POLICIES.create("TB-off"), TopBPolicy)
        assert POLICIES.create("incr", round_size=3).round_size == 3
        with pytest.raises(ValueError):
            POLICIES.create("greedy-magic")


class TestBaselines:
    def test_random_selects_from_all_pairs(self, small_space, evaluator, rng):
        policy = RandomPolicy()
        pool = all_pair_questions(small_space)
        picked = policy.select(small_space, pool, 4, evaluator, rng)
        assert len(picked) == 4
        assert len(set(picked)) == 4
        assert all(q in pool for q in picked)

    def test_naive_selects_from_relevant(
        self, small_space, candidates, evaluator, rng
    ):
        policy = NaivePolicy()
        picked = policy.select(small_space, candidates, 3, evaluator, rng)
        assert len(picked) == min(3, len(candidates))
        assert all(q in candidates for q in picked)

    def test_budget_larger_than_pool(self, small_space, candidates, evaluator, rng):
        policy = NaivePolicy()
        picked = policy.select(
            small_space, candidates, len(candidates) + 10, evaluator, rng
        )
        assert sorted(picked) == sorted(candidates)


class TestTopB:
    def test_picks_individually_best(
        self, small_space, candidates, evaluator, rng
    ):
        policy = TopBPolicy()
        picked = policy.select(small_space, candidates, 2, evaluator, rng)
        residuals = rank_singles(evaluator, small_space, candidates)
        best_two = np.sort(residuals)[:2]
        picked_residuals = np.sort(
            [evaluator.single(small_space, q) for q in picked]
        )
        np.testing.assert_allclose(picked_residuals, best_two)

    def test_zero_budget(self, small_space, candidates, evaluator, rng):
        assert TopBPolicy().select(small_space, candidates, 0, evaluator, rng) == []


class TestConditional:
    def test_first_pick_matches_topb(
        self, small_space, candidates, evaluator, rng
    ):
        """C-off's first greedy pick minimizes the single-question residual
        on decisive pairs, like TB-off's best-ranked question."""
        c_off = ConditionalPolicy().select(
            small_space, candidates, 1, evaluator, rng
        )
        codes = evaluator.codes_matrix(small_space, candidates)
        values = [
            evaluator.set_residual_from_codes(small_space, codes[:, [i]])
            for i in range(len(candidates))
        ]
        assert c_off[0] == candidates[int(np.argmin(values))]

    def test_no_duplicate_questions(
        self, small_space, candidates, evaluator, rng
    ):
        picked = ConditionalPolicy().select(
            small_space, candidates, 4, evaluator, rng
        )
        assert len(set(picked)) == len(picked)

    def test_joint_residual_beats_or_ties_topb(
        self, small_space, candidates, evaluator, rng
    ):
        """Greedy joint selection is at least as good as scoring questions
        independently, measured on the joint objective."""
        budget = 3
        c_off = ConditionalPolicy().select(
            small_space, candidates, budget, evaluator, rng
        )
        tb = TopBPolicy().select(small_space, candidates, budget, evaluator, rng)
        assert question_set(evaluator, small_space, c_off) <= (
            question_set(evaluator, small_space, tb) + 1e-9
        )


class TestAStarOffline:
    def test_matches_exhaustive_optimum(
        self, small_space, candidates, evaluator, rng
    ):
        """Theorem 3.2: A*-off is offline-optimal (validated brute-force)."""
        budget = 2
        astar = AStarOfflinePolicy()
        exhaustive = ExhaustivePolicy()
        astar_set = astar.select(small_space, candidates, budget, evaluator, rng)
        exhaustive.select(small_space, candidates, budget, evaluator, rng)
        astar_value = question_set(evaluator, small_space, astar_set)
        assert astar.last_search_complete
        assert astar_value == pytest.approx(
            exhaustive.last_best_residual, abs=1e-9
        )

    def test_respects_budget(self, small_space, candidates, evaluator, rng):
        picked = AStarOfflinePolicy().select(
            small_space, candidates, 3, evaluator, rng
        )
        assert len(picked) <= 3
        assert len(set(picked)) == len(picked)

    def test_expansion_cap_falls_back_to_greedy(
        self, small_space, candidates, evaluator, rng
    ):
        policy = AStarOfflinePolicy(max_expansions=1)
        picked = policy.select(small_space, candidates, 3, evaluator, rng)
        assert len(picked) == 3
        assert not policy.last_search_complete

    def test_certain_space_needs_no_questions(self, evaluator, rng):
        space = space_from_orderings([[0, 1]], [1.0], 3)
        picked = AStarOfflinePolicy().select(
            space, [], 3, evaluator, rng
        )
        assert picked == []

    def test_validation(self):
        with pytest.raises(ValueError):
            AStarOfflinePolicy(max_expansions=0)


class TestCapValidation:
    """``pattern_cap``/``candidate_cap`` accept only ``None`` or an int >= 1
    (regression: -1 silently dropped each candidate's lightest pattern, 0
    priced everything at the current U, 2.5 raised a bare numpy TypeError
    and True was taken as 1)."""

    CAPS = [
        ("C-off", "pattern_cap"),
        ("A*-off", "pattern_cap"),
        ("A*-off", "candidate_cap"),
        ("A*-on", "pattern_cap"),
    ]

    @pytest.mark.parametrize("policy,param", CAPS)
    @pytest.mark.parametrize(
        "value", [-1, 0, 2.5, True], ids=["negative", "zero", "float", "bool"]
    )
    def test_rejects_bad_cap(self, policy, param, value):
        with pytest.raises(ValueError, match=param):
            PolicySpec(policy, {param: value}).build()

    @pytest.mark.parametrize("policy,param", CAPS)
    @pytest.mark.parametrize("value", [None, 1, 7, np.int64(3)])
    def test_accepts_valid_cap(self, policy, param, value):
        PolicySpec(policy, {param: value}).build()


class TestExhaustive:
    def test_subset_guard(self, small_space, evaluator, rng):
        policy = ExhaustivePolicy(max_subsets=2)
        many = informative_questions(small_space)
        if len(many) < 4:
            pytest.skip("instance too small")
        with pytest.raises(ValueError):
            policy.select(small_space, many, 3, evaluator, rng)


class TestOnline:
    def test_top1_picks_argmin(self, small_space, candidates, evaluator, rng):
        policy = Top1OnlinePolicy()
        question = policy.next_question(
            small_space, candidates, 5, evaluator, rng
        )
        residuals = rank_singles(evaluator, small_space, candidates)
        assert question == candidates[int(np.argmin(residuals))]

    def test_top1_terminates_on_certainty(self, evaluator, rng):
        space = space_from_orderings([[0, 1]], [1.0], 3)
        assert Top1OnlinePolicy().next_question(
            space, [], 5, evaluator, rng
        ) is None

    def test_top1_terminates_on_exhausted_budget(
        self, small_space, candidates, evaluator, rng
    ):
        assert Top1OnlinePolicy().next_question(
            small_space, candidates, 0, evaluator, rng
        ) is None

    def test_astar_on_first_question_of_plan(
        self, small_space, candidates, evaluator, rng
    ):
        online = AStarOnlinePolicy()
        offline = AStarOfflinePolicy()
        question = online.next_question(
            small_space, candidates, 2, evaluator, rng
        )
        plan = offline.select(small_space, candidates, 2, evaluator, rng)
        assert question == plan[0]

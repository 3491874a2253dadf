"""Tests for rank aggregation (ORA machinery)."""

import itertools

import numpy as np
import pytest

from repro.rank import (
    AggregationCosts,
    borda_aggregation,
    copeland_aggregation,
    exact_aggregation,
    expected_topk_distance,
    kwiksort_aggregation,
    local_search,
    optimal_rank_aggregation,
    topk_kendall,
)
from repro.tpo.space import OrderingSpace

from oracles.spaces import space_from_orderings


@pytest.fixture
def skewed_space():
    """A space with an obvious modal ordering [2, 0, 1]."""
    paths = [[2, 0, 1], [2, 1, 0], [0, 2, 1]]
    probs = [0.7, 0.2, 0.1]
    return space_from_orderings(paths, probs, 4)


class TestCostModel:
    def test_total_matches_expected_distance(self, skewed_space):
        costs = AggregationCosts(skewed_space)
        for sigma in itertools.permutations(range(4), 3):
            manual = sum(
                p * topk_kendall(list(w), list(sigma), n_tuples=4, normalized=False)
                for w, p in zip(
                    skewed_space.paths, skewed_space.probabilities
                , strict=True)
            )
            assert costs.total(list(sigma)) == pytest.approx(manual)

    def test_total_matches_normalized_distance(self, skewed_space):
        costs = AggregationCosts(skewed_space)
        from repro.rank.kendall import max_topk_distance

        sigma = [2, 0, 1]
        worst = max_topk_distance(3, 3)
        assert costs.total(sigma) / worst == pytest.approx(
            expected_topk_distance(skewed_space, sigma)
        )


class TestExactAggregation:
    def test_optimal_vs_enumeration(self, skewed_space):
        costs = AggregationCosts(skewed_space)
        best = min(
            itertools.permutations(range(4), 3),
            key=lambda sigma: costs.total(list(sigma)),
        )
        ora = exact_aggregation(skewed_space, 3)
        assert costs.total(list(ora)) == pytest.approx(
            costs.total(list(best))
        )

    def test_random_spaces_vs_enumeration(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            paths = np.array(
                [rng.permutation(5)[:3] for _ in range(6)]
            )
            paths = np.unique(paths, axis=0)
            space = OrderingSpace(
                paths, rng.random(paths.shape[0]) + 0.05, 5
            )
            costs = AggregationCosts(space)
            best_value = min(
                costs.total(list(sigma))
                for sigma in itertools.permutations(range(5), 3)
            )
            ora = exact_aggregation(space, 3)
            assert costs.total(list(ora)) == pytest.approx(best_value)

    def test_guards_large_candidate_sets(self):
        rng = np.random.default_rng(1)
        paths = np.array([rng.permutation(30)[:5] for _ in range(40)])
        space = OrderingSpace(paths, np.ones(40), 30)
        with pytest.raises(ValueError):
            exact_aggregation(space, 5)


class TestHeuristics:
    def test_borda_on_skewed_space(self, skewed_space):
        ora = borda_aggregation(skewed_space, 3)
        assert int(ora[0]) == 2  # tuple 2 clearly leads

    def test_copeland_returns_valid_list(self, skewed_space):
        result = copeland_aggregation(skewed_space, 3)
        assert len(result) == 3
        assert len({int(t) for t in result}) == 3

    def test_kwiksort_returns_valid_list(self, skewed_space):
        result = kwiksort_aggregation(skewed_space, 3)
        assert len(result) == 3

    def test_kwiksort_with_rng(self, skewed_space, rng):
        result = kwiksort_aggregation(skewed_space, 3, rng=rng)
        assert len(result) == 3

    def test_local_search_never_worsens(self, skewed_space):
        costs = AggregationCosts(skewed_space)
        seed = [3, 1, 0]  # a deliberately bad start
        improved = local_search(
            seed, costs, skewed_space.present_tuples()
        )
        assert costs.total(improved) <= costs.total(seed) + 1e-12

    def test_local_search_reaches_optimum_on_small_space(self, skewed_space):
        costs = AggregationCosts(skewed_space)
        improved = local_search(
            borda_aggregation(skewed_space, 3),
            costs,
            skewed_space.present_tuples(),
        )
        exact = exact_aggregation(skewed_space, 3)
        assert costs.total(improved) == pytest.approx(
            costs.total(exact), abs=1e-9
        )


class TestDispatch:
    def test_auto_uses_exact_for_small(self, skewed_space):
        auto = optimal_rank_aggregation(skewed_space, 3, method="auto")
        exact = exact_aggregation(skewed_space, 3)
        costs = AggregationCosts(skewed_space)
        assert costs.total(auto) == pytest.approx(costs.total(exact))

    def test_every_method_runs(self, skewed_space):
        for method in ("exact", "borda", "copeland", "kwiksort", "borda+ls", "auto"):
            result = optimal_rank_aggregation(skewed_space, 3, method=method)
            assert len(result) == 3

    def test_unknown_method(self, skewed_space):
        with pytest.raises(ValueError):
            optimal_rank_aggregation(skewed_space, 3, method="magic")

    def test_ora_beats_mpo_distance(self, skewed_space):
        """The exact ORA minimizes expected distance, so it is at least as
        good a representative as the most probable ordering."""
        ora = optimal_rank_aggregation(skewed_space, method="exact")
        mpo = skewed_space.most_probable_ordering()
        assert expected_topk_distance(skewed_space, ora) <= (
            expected_topk_distance(skewed_space, mpo) + 1e-12
        )

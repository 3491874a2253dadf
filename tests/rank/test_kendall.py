"""Tests for Kendall-style ranking distances."""

import numpy as np
import pytest

from repro.rank import (
    expected_topk_distance,
    kendall_tau,
    max_topk_distance,
    spearman_footrule,
    stance_marginals,
    topk_kendall,
)
from repro.rank.kendall import presence_pair_marginals, topk_distance_profile

from oracles.spaces import space_from_orderings


class TestKendallTau:
    def test_identity_is_zero(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == 0.0

    def test_reversal_is_one(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == 1.0

    def test_single_swap(self):
        assert kendall_tau([1, 2, 3], [2, 1, 3], normalized=False) == 1.0

    def test_rejects_different_item_sets(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 3])

    def test_counts_inversions(self):
        # [3,1,2] vs [1,2,3]: pairs (3,1) and (3,2) inverted.
        assert kendall_tau([3, 1, 2], [1, 2, 3], normalized=False) == 2.0

    def test_symmetry(self):
        a, b = [0, 1, 2, 3], [2, 0, 3, 1]
        assert kendall_tau(a, b) == kendall_tau(b, a)

    def test_trivial_lengths(self):
        assert kendall_tau([5], [5]) == 0.0
        assert kendall_tau([], []) == 0.0


class TestTopKKendall:
    def test_identical_lists(self):
        assert topk_kendall([0, 1, 2], [0, 1, 2]) == 0.0

    def test_disjoint_lists_are_maximal(self):
        assert topk_kendall([0, 1], [2, 3], n_tuples=4) == pytest.approx(1.0)

    def test_matches_kendall_on_full_permutations(self):
        a, b = [0, 1, 2, 3], [1, 3, 0, 2]
        # With k = n there are no silent pairs: distances coincide up to
        # their normalizations.
        raw_topk = topk_kendall(a, b, normalized=False)
        raw_full = kendall_tau(a, b, normalized=False)
        assert raw_topk == pytest.approx(raw_full)

    def test_penalty_zero_ignores_silent_pairs(self):
        # Lists sharing no information about each other's internal pairs.
        value = topk_kendall([0, 1], [0, 2], n_tuples=4, penalty=0.0, normalized=False)
        # pairs: (0,1): b silent? 1 ∉ b, both in a → penalty pair → 0 with p=0;
        # (0,2): a silent? 2 ∉ a → both in b → penalty → 0; (1,2): 1 ∈ a only,
        # 2 ∈ b only → opposite → 1.
        assert value == pytest.approx(1.0)

    def test_union_semantics_exclude_outside_pairs(self):
        # Tuples 4, 5 appear in neither list: they must not contribute.
        small = topk_kendall([0, 1], [2, 3], n_tuples=4, normalized=False)
        large = topk_kendall([0, 1], [2, 3], n_tuples=6, normalized=False)
        assert small == pytest.approx(large)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            topk_kendall([0, 0], [1, 2])

    def test_worst_case_formula_matches_bruteforce(self):
        import itertools

        n, k = 5, 2
        worst = max(
            topk_kendall(list(a), list(b), n_tuples=n, normalized=False)
            for a in itertools.permutations(range(n), k)
            for b in itertools.permutations(range(n), k)
        )
        assert worst == pytest.approx(max_topk_distance(k, k))

    def test_penalty_validation(self):
        with pytest.raises(ValueError):
            topk_kendall([0], [1], penalty=2.0)


class TestFootrule:
    def test_identity(self):
        assert spearman_footrule([0, 1, 2], [0, 1, 2]) == 0.0

    def test_positive_for_disjoint(self):
        assert spearman_footrule([0, 1], [2, 3], n_tuples=4) > 0

    def test_bounded_by_one(self):
        assert spearman_footrule([0, 1, 2], [3, 4, 5], n_tuples=6) <= 1.0


class TestExpectedDistance:
    def test_matches_manual_expectation(self, toy_space):
        reference = [0, 1]
        manual = sum(
            p * topk_kendall(list(path), reference, n_tuples=4)
            for path, p in zip(toy_space.paths, toy_space.probabilities, strict=True)
        )
        value = expected_topk_distance(toy_space, reference)
        assert value == pytest.approx(manual)

    def test_zero_against_certain_space(self):
        space = space_from_orderings([[2, 0, 1]], [1.0], 4)
        assert expected_topk_distance(space, [2, 0, 1]) == 0.0

    def test_chunking_does_not_change_result(self, small_space):
        reference = list(small_space.paths[0])
        full = expected_topk_distance(small_space, reference, chunk=10**6)
        chunked = expected_topk_distance(small_space, reference, chunk=3)
        assert full == pytest.approx(chunked)

    def test_bounded_by_one(self, small_space):
        reference = list(small_space.paths[-1])
        assert 0.0 <= expected_topk_distance(small_space, reference) <= 1.0

    def test_rejects_reference_repeating_a_tuple(self):
        # Regression: [2, 2, 1] was silently priced as a 3-list (0.183
        # on this space, against 0.275 for [2, 1]).
        space = space_from_orderings(
            [[0, 1, 2], [2, 1, 3], [4, 2, 5]], [0.5, 0.3, 0.2], 8
        )
        for distance in (expected_topk_distance, topk_distance_profile):
            with pytest.raises(ValueError, match="must not repeat tuples"):
                distance(space, [2, 2, 1])
        assert expected_topk_distance(space, [2, 1]) == pytest.approx(0.275)


class TestMarginals:
    def test_stance_marginals_partition(self, toy_space):
        p_plus, p_minus, p_zero = stance_marginals(toy_space)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(
            (p_plus + p_minus + p_zero)[off], 1.0, atol=1e-9
        )
        np.testing.assert_allclose(p_plus, p_minus.T, atol=1e-12)

    def test_presence_pair_marginals(self, toy_space):
        both = presence_pair_marginals(toy_space)
        # Pair (0,1) present together only in paths [0,1] and [1,0]: 0.7.
        assert both[0, 1] == pytest.approx(0.7)
        assert both[1, 0] == pytest.approx(0.7)
        np.testing.assert_allclose(np.diag(both), 0.0)

"""Tests for the vectorized ordering space."""

import numpy as np
import pytest

from repro.tpo.space import DegenerateSpaceError, OrderingSpace

from oracles.spaces import space_from_orderings


class TestConstruction:
    def test_normalizes_probabilities(self, toy_space):
        assert toy_space.probabilities.sum() == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(DegenerateSpaceError):
            OrderingSpace(np.zeros((0, 2), dtype=int), np.zeros(0), 4)

    def test_rejects_zero_mass(self):
        with pytest.raises(DegenerateSpaceError):
            space_from_orderings([[0, 1]], [0.0], 4)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            space_from_orderings([[0, 1]], [-1.0], 4)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            OrderingSpace(np.zeros((2, 2), dtype=int), np.ones(3), 4)


class TestPositions:
    def test_positions_and_sentinel(self, toy_space):
        pos = toy_space.positions()
        assert pos.shape == (4, 4)
        # Path [0,1]: t0 at 0, t1 at 1, t2/t3 absent (= depth).
        np.testing.assert_array_equal(pos[0], [0, 1, 2, 2])
        np.testing.assert_array_equal(pos[3], [2, 2, 0, 1])

    def test_present_tuples(self, toy_space):
        np.testing.assert_array_equal(
            toy_space.present_tuples(), [0, 1, 2, 3]
        )


class TestAgreement:
    def test_codes(self, toy_space):
        codes = toy_space.agreement_codes(0, 1)
        # paths: [0,1]→+1, [1,0]→−1, [0,2]→+1 (1 absent), [2,3]→0
        np.testing.assert_array_equal(codes, [1, -1, 1, 0])


class TestConditioning:
    def test_condition_keeps_agreeing_and_silent(self, toy_space):
        conditioned = toy_space.condition(0, 1, True)
        assert conditioned.size == 3  # drops only [1,0]
        np.testing.assert_allclose(
            conditioned.probabilities.sum(), 1.0
        )

    def test_condition_contradiction_raises(self, toy_space):
        only_01 = toy_space.restrict(
            np.array([True, False, False, False])
        )
        with pytest.raises(DegenerateSpaceError):
            only_01.condition(1, 0, True)

    def test_reweight_by_answer_bayes(self, toy_space):
        updated = toy_space.reweight_by_answer(0, 1, True, accuracy=0.8)
        # weights: [0.8, 0.2, 0.8, 0.5]
        raw = np.array([0.4 * 0.8, 0.3 * 0.2, 0.2 * 0.8, 0.1 * 0.5])
        np.testing.assert_allclose(
            updated.probabilities, raw / raw.sum()
        )

    def test_reweight_accuracy_one_is_pruning(self, toy_space):
        soft = toy_space.reweight_by_answer(0, 1, True, accuracy=1.0)
        hard = toy_space.condition(0, 1, True)
        assert soft.probabilities[soft.agreement_codes(0, 1) == -1].sum() == 0
        # Same support up to zero-probability paths.
        assert hard.size <= soft.size

    def test_restrict_full_mask_returns_self(self, toy_space):
        assert toy_space.restrict(np.ones(4, dtype=bool)) is toy_space

    def test_reweight_validates(self, toy_space):
        with pytest.raises(DegenerateSpaceError):
            toy_space.reweight(np.zeros(4))
        with pytest.raises(ValueError):
            toy_space.reweight_by_answer(0, 1, True, accuracy=1.5)


class TestSummaries:
    def test_prefix_groups_level1(self, toy_space):
        prefixes, masses = toy_space.prefix_groups(1)
        lookup = {int(p[0]): m for p, m in zip(prefixes, masses, strict=True)}
        assert lookup[0] == pytest.approx(0.6)
        assert lookup[1] == pytest.approx(0.3)
        assert lookup[2] == pytest.approx(0.1)
        assert masses.sum() == pytest.approx(1.0)

    def test_prefix_groups_validates_depth(self, toy_space):
        with pytest.raises(ValueError):
            toy_space.prefix_groups(0)
        with pytest.raises(ValueError):
            toy_space.prefix_groups(3)

    def test_most_probable_ordering(self, toy_space):
        np.testing.assert_array_equal(
            toy_space.most_probable_ordering(), [0, 1]
        )

    def test_rank_marginals(self, toy_space):
        marginals = toy_space.rank_marginals()
        assert marginals.shape == (4, 2)
        assert marginals[0, 0] == pytest.approx(0.6)
        np.testing.assert_allclose(marginals.sum(axis=0), 1.0)

    def test_pairwise_preference_complementary(self, toy_space):
        w = toy_space.pairwise_preference()
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose((w + w.T)[off], 1.0)

    def test_pairwise_preference_values(self, toy_space):
        w = toy_space.pairwise_preference()
        # Pr(0 ≺ 1): paths 0 (+), 2 (+ via absence), path 3 silent → 0.05
        assert w[0, 1] == pytest.approx(0.4 + 0.2 + 0.05)

    def test_is_certain(self, toy_space):
        assert not toy_space.is_certain
        assert space_from_orderings([[0, 1]], [1.0], 4).is_certain

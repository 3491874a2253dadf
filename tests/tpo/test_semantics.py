"""Tests for the classical uncertain top-K semantics."""

import numpy as np
import pytest

from repro.tpo import (
    GridBuilder,
    answer_report,
    expected_ranks,
    pt_k,
    u_kranks,
    u_topk,
)

from oracles.spaces import space_from_orderings


@pytest.fixture
def space():
    """Hand-built space: [0,1] 0.5 | [1,0] 0.2 | [0,2] 0.3 over 4 tuples."""
    return space_from_orderings(
        [[0, 1], [1, 0], [0, 2]], [0.5, 0.2, 0.3], 4
    )


class TestUTopK:
    def test_modal_vector(self, space):
        vector, probability = u_topk(space)
        np.testing.assert_array_equal(vector, [0, 1])
        assert probability == pytest.approx(0.5)

    def test_certain_space(self):
        certain = space_from_orderings([[2, 1]], [1.0], 3)
        vector, probability = u_topk(certain)
        np.testing.assert_array_equal(vector, [2, 1])
        assert probability == 1.0


class TestUKRanks:
    def test_per_rank_winners(self, space):
        winners = u_kranks(space)
        # Rank 0: t0 holds it with 0.8; rank 1: t1 with 0.5.
        assert winners[0] == (0, pytest.approx(0.8))
        assert winners[1] == (1, pytest.approx(0.5))

    def test_winners_can_repeat(self):
        # t0 is the likeliest at BOTH ranks in this contrived space.
        space = space_from_orderings(
            [[0, 1], [2, 0], [1, 2]], [0.45, 0.45, 0.10], 3
        )
        winners = u_kranks(space)
        assert winners[0][0] == 0
        assert winners[1][0] == 0


class TestPTK:
    def test_membership_probabilities(self, space):
        rows = dict(pt_k(space, threshold=0.0))
        assert rows[0] == pytest.approx(1.0)
        assert rows[1] == pytest.approx(0.7)
        assert rows[2] == pytest.approx(0.3)
        assert 3 not in rows

    def test_threshold_filters(self, space):
        rows = pt_k(space, threshold=0.5)
        assert [t for t, _ in rows] == [0, 1]

    def test_threshold_validated(self, space):
        with pytest.raises(ValueError):
            pt_k(space, threshold=1.5)

    def test_sorted_by_probability(self, space):
        rows = pt_k(space, threshold=0.0)
        probabilities = [p for _, p in rows]
        assert probabilities == sorted(probabilities, reverse=True)


class TestExpectedRanks:
    def test_ordering(self, space):
        rows = expected_ranks(space)
        assert rows[0][0] == 0  # t0 clearly first
        # t0: 0.8·0 + 0.2·1 = 0.2
        assert rows[0][1] == pytest.approx(0.2)

    def test_only_present_tuples(self, space):
        assert all(t in {0, 1, 2} for t, _ in expected_ranks(space))


class TestReport:
    def test_report_mentions_all_semantics(self, space):
        text = answer_report(space)
        assert "U-Top-2" in text
        assert "U-kRanks" in text
        assert "PT-2" in text
        assert "expected ranks" in text

    def test_report_on_built_tree(self, overlapping_uniforms):
        space = GridBuilder(resolution=400).build(overlapping_uniforms, 3).to_space()
        text = answer_report(space, threshold=0.2)
        assert "rank1=" in text


class TestConsistencyAcrossSemantics:
    def test_utopk_head_agrees_with_ukranks_when_dominant(self):
        """With one dominant ordering all semantics agree on rank 1."""
        space = space_from_orderings(
            [[3, 1, 0], [3, 0, 1]], [0.9, 0.1], 4
        )
        vector, _ = u_topk(space)
        assert u_kranks(space)[0][0] == int(vector[0]) == 3
        # PT-k is a set semantics: all three tuples are certain members
        # here, so we only require t3's membership, not its position.
        assert 3 in {t for t, _ in pt_k(space, 0.5)}
        assert expected_ranks(space)[0][0] == 3

"""Tests for the TPO diagnostics helpers."""

import pytest

from repro.distributions import Uniform
from repro.tpo.analysis import (
    overlap_statistics,
    profile_space,
    question_impact_table,
)
from repro.uncertainty import EntropyMeasure

from oracles.spaces import space_from_orderings


class TestProfile:
    def test_certain_space_profile(self):
        space = space_from_orderings([[0, 1]], [1.0], 3)
        profile = profile_space(space)
        assert profile.orderings == 1
        assert profile.entropy == 0.0
        assert profile.effective_orderings == pytest.approx(1.0)
        assert profile.contested_pairs == 0

    def test_profile_of_uncertain_space(self, small_space):
        profile = profile_space(small_space)
        assert profile.orderings == small_space.size
        assert profile.entropy > 0
        assert 1 <= profile.most_uncertain_rank <= profile.depth
        assert len(profile.level_entropies) == profile.depth
        # Level entropies never decrease with depth (refinement).
        assert all(
            later >= earlier - 1e-9
            for earlier, later in zip(
                profile.level_entropies, profile.level_entropies[1:]
            , strict=False)
        )

    def test_format_is_readable(self, small_space):
        text = profile_space(small_space).format()
        assert "orderings" in text
        assert "entropy" in text


class TestQuestionImpact:
    def test_rows_sorted_by_residual(self, small_space):
        rows = question_impact_table(small_space, top=5)
        residuals = [row[1] for row in rows]
        assert residuals == sorted(residuals)

    def test_reduction_consistency(self, small_space):
        current = EntropyMeasure()(small_space)
        for question, residual, reduction in question_impact_table(
            small_space, top=3
        ):
            assert reduction == pytest.approx(current - residual)
            assert reduction >= -1e-9

    def test_top_limits_output(self, small_space):
        assert len(question_impact_table(small_space, top=2)) <= 2


class TestOverlapStatistics:
    def test_disjoint_workload(self):
        dists = [Uniform(i, i + 0.5) for i in range(4)]
        stats = overlap_statistics(dists)
        assert stats["overlapping_pairs"] == 0
        assert stats["overlap_fraction"] == 0.0

    def test_identical_workload(self):
        dists = [Uniform(0, 1) for _ in range(4)]
        stats = overlap_statistics(dists)
        assert stats["overlap_fraction"] == pytest.approx(1.0)
        assert stats["max_overlap_degree"] == 3

    def test_keys_present(self):
        stats = overlap_statistics([Uniform(0, 1), Uniform(0.5, 1.5)])
        for key in (
            "tuples",
            "overlapping_pairs",
            "overlap_fraction",
            "max_overlap_degree",
            "mean_overlap_degree",
        ):
            assert key in stats

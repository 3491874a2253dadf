"""Tests of the flat level-table tree internals."""

import io

import numpy as np
import pytest

from repro.distributions import Uniform
from repro.tpo import GridBuilder, MonteCarloBuilder, TPOTree
from repro.tpo.serialize import (
    TPOSerializationError,
    _npz_payload,
    tree_from_npz_bytes,
    tree_to_npz_bytes,
)


class TestLevelTable:
    def test_append_level_validates_alignment(self, overlapping_uniforms):
        tree = TPOTree(overlapping_uniforms, 2)
        with pytest.raises(ValueError, match="aligned"):
            tree.append_level([0, 1], [0], [0.5, 0.5])

    def test_append_level_validates_parent_range(self, overlapping_uniforms):
        tree = TPOTree(overlapping_uniforms, 2)
        with pytest.raises(ValueError, match="parent indices"):
            tree.append_level([0], [3], [1.0])

    def test_append_level_requires_parent_major_order(
        self, overlapping_uniforms
    ):
        tree = TPOTree(overlapping_uniforms, 3)
        tree.append_level([0, 1], [0, 0], [0.5, 0.5])
        with pytest.raises(ValueError, match="non-decreasing"):
            tree.append_level([1, 0], [1, 0], [0.5, 0.5])

    def test_paths_at_depth_follows_parent_chains(self, small_tree):
        for depth in range(1, small_tree.built_depth + 1):
            paths = small_tree.paths_at_depth(depth)
            level = small_tree.levels[depth - 1]
            assert paths.shape == (level.width, depth)
            np.testing.assert_array_equal(paths[:, -1], level.tuple_ids)
            if depth > 1:
                # Each row extends its parent's row by one tuple.
                parents = small_tree.paths_at_depth(depth - 1)
                np.testing.assert_array_equal(
                    paths[:, :-1], parents[level.parent_idx]
                )


class TestPruneFrontierInterplay:
    """Extending after pruning must match pruning the full tree.

    This pins the engine-cache compaction hook: pruning a partial tree
    filters the frontier-aligned builder payload (grid prefix densities,
    MC sample assignments), so subsequent extensions see a consistent
    frontier.
    """

    @pytest.mark.parametrize(
        "builder_factory",
        [
            lambda: GridBuilder(resolution=400),
            lambda: MonteCarloBuilder(samples=30000, seed=3),
        ],
        ids=["grid", "mc"],
    )
    def test_prune_then_extend_equals_extend_then_prune(
        self, overlapping_uniforms, builder_factory
    ):
        k = 3
        full = builder_factory().build(overlapping_uniforms, k)
        decided = None
        probe = full.to_space()
        for i, j in [(0, 1), (1, 2), (2, 3), (0, 2)]:
            codes = probe.agreement_codes(i, j)
            if (codes == -1).any() and (codes != -1).any():
                decided = (i, j)
                break
        if decided is None:
            pytest.skip("instance offers no partially decided pair")
        i, j = decided
        full.prune_with_answer(i, j, True)
        full_space = full.to_space()

        builder = builder_factory()
        partial = builder.start(overlapping_uniforms, k)
        builder.extend(partial)
        builder.extend(partial)
        partial.prune_with_answer(i, j, True)
        builder.extend(partial)
        # Replay the answer: deeper levels can reintroduce the loser.
        partial.prune_with_answer(i, j, True)
        partial_space = partial.to_space()

        assert (
            {tuple(p) for p in full_space.paths.tolist()}
            == {tuple(p) for p in partial_space.paths.tolist()}
        )
        full_map = {
            tuple(p): v
            for p, v in zip(full_space.paths.tolist(), full_space.probabilities, strict=True)
        }
        for path, value in zip(
            partial_space.paths.tolist(), partial_space.probabilities
        , strict=True):
            assert value == pytest.approx(full_map[tuple(path)], abs=1e-9)


class TestSerializeFlatRoundTrip:
    def test_built_depth_mismatch_is_rejected(
        self, small_tree, overlapping_uniforms
    ):
        payload = _npz_payload(small_tree)
        payload["meta"] = payload["meta"].copy()
        payload["meta"][3] = small_tree.built_depth + 1
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        with pytest.raises(TPOSerializationError, match="level4"):
            tree_from_npz_bytes(buffer.getvalue(), overlapping_uniforms)

    def test_round_trip_preserves_level_tables(self, small_tree):
        rebuilt = tree_from_npz_bytes(
            tree_to_npz_bytes(small_tree), small_tree.distributions
        )
        assert rebuilt.built_depth == small_tree.built_depth
        for level, other in zip(small_tree.levels, rebuilt.levels, strict=True):
            assert np.array_equal(level.tuple_ids, other.tuple_ids)
            assert np.array_equal(level.parent_idx, other.parent_idx)
            assert np.array_equal(level.probs, other.probs)


def test_empty_tree_counts():
    tree = TPOTree([Uniform(0, 1), Uniform(0, 1)], 2)
    assert tree.built_depth == 0
    assert tree.levels == []
    assert tree.ordering_count() == 1  # the empty prefix
    assert tree.prune_with_answer(0, 1, True) == 0

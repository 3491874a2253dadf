"""Tests for TPO nodes and tree structure."""

import numpy as np
import pytest

from repro.distributions import Uniform
from repro.tpo import GridBuilder, TPOTree
from repro.tpo.space import DegenerateSpaceError

from oracles.pointer_tpo import ROOT_TUPLE, TPONode
from oracles.tree_invariants import validate


class TestNode:
    def test_prefix_and_depth(self):
        root = TPONode(ROOT_TUPLE, 1.0)
        a = root.add_child(3, 0.6)
        b = a.add_child(1, 0.4)
        assert root.is_root and root.depth == 0
        assert b.prefix() == (3, 1)
        assert b.depth == 2
        assert a.children == [b]

    def test_remove_child(self):
        root = TPONode(ROOT_TUPLE, 1.0)
        child = root.add_child(0, 1.0)
        root.remove_child(child)
        assert root.is_leaf
        assert child.parent is None

    def test_iter_subtree_preorder(self):
        root = TPONode(ROOT_TUPLE, 1.0)
        a = root.add_child(0, 0.5)
        b = root.add_child(1, 0.5)
        a.add_child(2, 0.5)
        visited = [n.tuple_index for n in root.iter_subtree()]
        assert visited == [ROOT_TUPLE, 0, 2, 1]

    def test_clear_state(self):
        root = TPONode(ROOT_TUPLE, 1.0)
        child = root.add_child(0, 1.0)
        child.state = np.ones(3)
        root.clear_state()
        assert child.state is None


@pytest.fixture
def built_tree(overlapping_uniforms):
    return GridBuilder(resolution=400).build(overlapping_uniforms, 3)


class TestTree:
    def test_validation_of_arguments(self, overlapping_uniforms):
        with pytest.raises(ValueError):
            TPOTree(overlapping_uniforms, 0)
        with pytest.raises(ValueError):
            TPOTree([], 2)

    def test_k_clamped_to_n(self):
        tree = TPOTree([Uniform(0, 1), Uniform(0.5, 1.5)], 10)
        assert tree.k == 2

    def test_level_masses_are_one(self, built_tree):
        for depth in range(1, built_tree.k + 1):
            assert built_tree.levels[depth - 1].probs.sum() == pytest.approx(
                1.0, abs=1e-6
            )

    def test_structural_invariants(self, built_tree):
        validate(built_tree)

    def test_node_and_ordering_counts(self, built_tree):
        widths = [level.width for level in built_tree.levels]
        assert built_tree.ordering_count() == widths[-1]
        assert built_tree.ordering_count() == len(
            built_tree.paths_at_depth(built_tree.k)
        )
        assert sum(widths) >= built_tree.ordering_count()

    def test_to_space_matches_leaves(self, built_tree):
        space = built_tree.to_space()
        assert space.size == built_tree.ordering_count()
        assert space.depth == built_tree.k
        assert space.probabilities.sum() == pytest.approx(1.0)

    def test_to_space_does_not_alias_the_leaf_masses(self, built_tree):
        space = built_tree.to_space()
        before = space.probabilities.copy()
        built_tree.levels[-1].probs[:] = 0.0
        assert np.array_equal(space.probabilities, before)

    def test_to_space_requires_built_levels(self, overlapping_uniforms):
        with pytest.raises(ValueError):
            TPOTree(overlapping_uniforms, 2).to_space()

    def test_prune_with_answer_removes_disagreeing(self, built_tree):
        space_before = built_tree.to_space()
        codes = space_before.agreement_codes(0, 1)
        if not (codes == -1).any():
            pytest.skip("instance has no disagreeing path for this pair")
        removed = built_tree.prune_with_answer(0, 1, True)
        assert removed > 0
        space_after = built_tree.to_space()
        assert (space_after.agreement_codes(0, 1) != -1).all()
        assert space_after.probabilities.sum() == pytest.approx(1.0)

    def test_prune_contradiction_raises(self, overlapping_uniforms):
        # t4 (top interval) surely beats t0; claiming the opposite on a
        # decided pair kills every ordering.
        tree = GridBuilder(resolution=400).build(overlapping_uniforms, 3)
        space = tree.to_space()
        codes = space.agreement_codes(0, 4)
        if (codes == 1).any():
            pytest.skip("pair not fully decided in this instance")
        with pytest.raises(DegenerateSpaceError):
            tree.prune_with_answer(0, 4, True)

    def test_prune_works_on_partial_trees(self, overlapping_uniforms):
        builder = GridBuilder(resolution=400)
        tree = builder.start(overlapping_uniforms, 3)
        builder.extend(tree)
        builder.extend(tree)  # depth 2 of 3
        assert not tree.is_complete
        tree.prune_with_answer(1, 0, True)
        validate(tree)
        space = tree.to_space()
        assert (space.agreement_codes(1, 0) != -1).all()

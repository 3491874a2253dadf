"""Tests for TPO serialization: a decoded tree stays a working tree."""

import pytest

from repro.tpo import GridBuilder
from repro.tpo.serialize import tree_from_npz_bytes, tree_to_npz_bytes

from oracles.tree_invariants import validate


@pytest.fixture
def tree(overlapping_uniforms):
    return GridBuilder(resolution=400).build(overlapping_uniforms, 2)


def test_rebuilt_tree_supports_pruning(tree, overlapping_uniforms):
    rebuilt = tree_from_npz_bytes(tree_to_npz_bytes(tree), overlapping_uniforms)
    space = rebuilt.to_space()
    codes = space.agreement_codes(0, 1)
    assert (codes == -1).any() and (codes != -1).any()
    rebuilt.prune_with_answer(0, 1, True)
    validate(rebuilt)
    assert (rebuilt.to_space().agreement_codes(0, 1) != -1).all()

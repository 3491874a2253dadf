"""Anytime beam construction: semantics, certified loss, serialization.

The beam contract under test:

* ``beam_epsilon`` is a *per-level* lost-mass budget — each extension
  step drops at most ε of that level's candidate mass, so a K-level
  build certifies ``tree.lost_mass ≤ ε·K``;
* an inactive beam (ε=0, no width) is bit-identical to the exact build —
  same levels, same leaf masses, no loss recorded, and serialized
  archives carry none of the optional loss members;
* the recorded loss survives npz round trips, through bytes and files;
* the acceptance instance: N=200 where the exact grid engine raises
  ``TPOSizeError``, the ε-beam builds to full depth with certified loss
  within budget.
"""

import io

import numpy as np
import pytest

from repro.tpo.builders import (
    ExactBuilder,
    GridBuilder,
    MonteCarloBuilder,
    TPOSizeError,
)
from repro.tpo.serialize import (
    tree_from_npz,
    tree_from_npz_bytes,
    tree_to_npz,
    tree_to_npz_bytes,
)
from repro.workloads.synthetic import uniform_intervals

BUILDERS = [
    lambda **kw: GridBuilder(resolution=256, **kw),
    lambda **kw: ExactBuilder(**kw),
    lambda **kw: MonteCarloBuilder(samples=20000, seed=11, **kw),
]


@pytest.fixture
def workload():
    return uniform_intervals(8, width=0.45, rng=3)


class TestBeamSemantics:
    @pytest.mark.parametrize("make", BUILDERS)
    def test_inactive_beam_is_bit_identical(self, make, workload):
        exact = make().build(workload, 4)
        beamed = make(beam_epsilon=0.0, beam_width=None).build(workload, 4)
        assert beamed.lost_mass == 0.0
        assert not beamed.is_approximate
        for left, right in zip(exact.levels, beamed.levels, strict=True):
            assert np.array_equal(left.tuple_ids, right.tuple_ids)
            assert np.array_equal(left.parent_idx, right.parent_idx)
            assert np.array_equal(left.probs, right.probs)

    @pytest.mark.parametrize("make", BUILDERS)
    def test_epsilon_budget_bounds_lost_mass(self, make, workload):
        epsilon = 0.05
        tree = make(beam_epsilon=epsilon).build(workload, 4)
        assert tree.built_depth == 4
        assert 0.0 <= tree.lost_mass <= epsilon * 4 + 1e-12
        assert len(tree.level_lost) == len(tree.levels)
        assert sum(tree.level_lost) >= 0.0
        for level_loss in tree.level_lost:
            assert level_loss <= epsilon + 1e-12

    def test_beam_leaves_are_subset_of_exact(self, workload):
        exact = GridBuilder(resolution=256).build(workload, 4).to_space()
        beam = (
            GridBuilder(resolution=256, beam_epsilon=0.05)
            .build(workload, 4)
            .to_space()
        )
        assert beam.is_approximate
        exact_paths = {tuple(map(int, p)) for p in exact.paths}
        beam_paths = {tuple(map(int, p)) for p in beam.paths}
        assert beam_paths <= exact_paths
        assert len(beam_paths) < len(exact_paths)

    def test_beam_width_caps_levels(self, workload):
        tree = GridBuilder(resolution=256, beam_width=8).build(workload, 4)
        for level in tree.levels:
            assert level.width <= 8
        assert tree.lost_mass > 0.0
        assert tree.lost_leaves > 0.0

    def test_beam_validation(self):
        with pytest.raises(ValueError):
            GridBuilder(beam_epsilon=1.0)
        with pytest.raises(ValueError):
            GridBuilder(beam_epsilon=-0.1)
        with pytest.raises(ValueError):
            GridBuilder(beam_width=0)
        assert not GridBuilder().beam_active
        assert GridBuilder(beam_epsilon=0.1).beam_active
        assert GridBuilder(beam_width=5).beam_active

    def test_size_error_message_suggests_beam(self):
        workload = uniform_intervals(30, width=0.9, rng=5)
        with pytest.raises(TPOSizeError, match="beam"):
            GridBuilder(resolution=64, max_orderings=50).build(workload, 5)


class TestBeamAcceptance:
    """The ISSUE acceptance instance: exact fails, the beam builds it."""

    N, K, WIDTH = 200, 5, 0.05
    EPSILON = 0.02

    def test_exact_overflows_and_beam_builds(self):
        workload = uniform_intervals(self.N, width=self.WIDTH, rng=2016)
        exact = GridBuilder(resolution=128, max_orderings=20000)
        with pytest.raises(TPOSizeError):
            exact.build(workload, self.K)
        beam = GridBuilder(
            resolution=128,
            max_orderings=20000,
            beam_epsilon=self.EPSILON,
        )
        tree = beam.build(workload, self.K)
        assert tree.built_depth == self.K
        assert tree.is_approximate
        assert tree.lost_mass <= self.EPSILON * self.K
        space = tree.to_space()
        assert space.lost_mass == tree.lost_mass
        assert abs(space.probabilities.sum() - 1.0) < 1e-9


class TestLossPropagation:
    def test_prune_conditions_lost_mass(self, workload):
        tree = GridBuilder(resolution=256, beam_epsilon=0.05).build(
            workload, 4
        )
        before = tree.lost_mass
        space = tree.to_space()
        i, j = int(space.paths[0][0]), int(space.paths[0][1])
        tree.prune_with_answer(i, j, True)
        # Pruning discards retained mass, so the lost share conditionally
        # grows (or stays equal when nothing was discarded).
        assert tree.lost_mass >= before - 1e-12
        assert tree.lost_mass <= 1.0

    def test_space_restrict_propagates_loss(self, workload):
        space = (
            GridBuilder(resolution=256, beam_epsilon=0.05)
            .build(workload, 4)
            .to_space()
        )
        keep = np.ones(space.size, dtype=bool)
        keep[space.size // 2 :] = False
        restricted = space.restrict(keep)
        assert restricted.lost_mass >= space.lost_mass - 1e-12
        assert restricted.lost_leaves == space.lost_leaves


class TestBeamSerialization:
    @pytest.fixture
    def beam_tree(self, workload):
        return GridBuilder(resolution=256, beam_epsilon=0.05).build(
            workload, 4
        )

    def test_npz_file_round_trip_preserves_loss(
        self, beam_tree, workload, tmp_path
    ):
        path = tree_to_npz(beam_tree, tmp_path / "beam.npz")
        restored = tree_from_npz(path, workload)
        for level, other in zip(beam_tree.levels, restored.levels, strict=True):
            assert np.array_equal(level.tuple_ids, other.tuple_ids)
            assert np.array_equal(level.parent_idx, other.parent_idx)
            assert np.array_equal(level.probs, other.probs)
        assert restored.lost_mass == beam_tree.lost_mass
        assert restored.lost_node_max == beam_tree.lost_node_max
        assert restored.lost_leaves == beam_tree.lost_leaves
        assert restored.level_lost == beam_tree.level_lost

    def test_npz_round_trip_preserves_loss(self, beam_tree, workload):
        restored = tree_from_npz_bytes(
            tree_to_npz_bytes(beam_tree), workload
        )
        assert restored.lost_mass == beam_tree.lost_mass
        assert restored.lost_node_max == beam_tree.lost_node_max
        assert restored.lost_leaves == beam_tree.lost_leaves
        assert restored.level_lost == beam_tree.level_lost

    def test_exact_payloads_carry_no_new_keys(self, workload):
        """Exact-mode artifacts must be byte-identical to pre-beam ones."""
        tree = GridBuilder(resolution=256).build(workload, 4)
        archive = np.load(io.BytesIO(tree_to_npz_bytes(tree)))
        assert not any(name.startswith("lost") for name in archive.files)
        assert "level_lost" not in archive.files
        restored = tree_from_npz_bytes(tree_to_npz_bytes(tree), workload)
        assert restored.lost_mass == 0.0
        assert restored.level_lost == [0.0] * tree.built_depth

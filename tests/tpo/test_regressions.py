"""Regression tests for the builder/space correctness fixes.

Three bugs were fixed alongside the flat level-table tree:

* ``OrderingSpace.reweight`` silently dropped the ``_positions`` and
  ``_prefix_index`` caches (noisy-worker sessions rebuilt the ``(L, N)``
  positions matrix after every answer), and ``restrict`` recomputed the
  positions rows it could have sliced;
* ``MonteCarloBuilder.extend`` never enforced ``max_orderings``, so bushy
  instances OOMed instead of raising :class:`TPOSizeError`;
* ties on the maximal mass came back in platform-dependent order, so
  ``most_probable_ordering`` now resolves them to the lexicographically
  smallest path.
"""

import numpy as np
import pytest

from repro.distributions import Uniform
from repro.tpo import MonteCarloBuilder, OrderingSpace, TPOSizeError

from oracles.spaces import space_from_orderings


@pytest.fixture
def tied_space():
    """Four orderings, all equally likely, rows deliberately shuffled."""
    paths = [[2, 1], [0, 1], [1, 0], [1, 2]]
    return space_from_orderings(paths, [0.25] * 4, 3)


class TestReweightCacheCarryover:
    def test_positions_cache_is_shared(self, small_space):
        positions = small_space.positions()
        child = small_space.reweight(
            np.linspace(1.0, 2.0, small_space.size)
        )
        assert child._positions is positions

    def test_prefix_index_cache_is_shared(self, small_space):
        index = small_space.prefix_group_index(2)
        child = small_space.reweight(np.ones(small_space.size))
        assert child._prefix_index is small_space._prefix_index
        assert child.prefix_group_index(2) is index

    def test_lazy_index_computed_on_child_serves_parent(self, small_space):
        child = small_space.reweight(np.ones(small_space.size))
        index = child.prefix_group_index(1)
        assert small_space.prefix_group_index(1) is index

    def test_reweight_by_answer_carries_caches(self, small_space):
        positions = small_space.positions()
        child = small_space.reweight_by_answer(0, 1, True, accuracy=0.8)
        assert child._positions is positions

    def test_restrict_slices_positions_rows(self, small_space):
        positions = small_space.positions()
        keep = np.zeros(small_space.size, dtype=bool)
        keep[:: 2] = True
        child = small_space.restrict(keep)
        assert child._positions is not None
        np.testing.assert_array_equal(child._positions, positions[keep])
        # And the sliced cache is what positions() then returns.
        assert child.positions() is child._positions

    def test_restrict_without_cache_stays_lazy(self, small_space):
        keep = np.zeros(small_space.size, dtype=bool)
        keep[: max(1, small_space.size // 2)] = True
        child = small_space.restrict(keep)
        assert child._positions is None

    def test_restrict_does_not_share_prefix_index(self, small_space):
        small_space.prefix_group_index(1)
        keep = np.zeros(small_space.size, dtype=bool)
        keep[0] = True
        child = small_space.restrict(keep)
        assert child._prefix_index == {}


class TestMonteCarloSizeGuard:
    def test_mc_raises_tpo_size_error(self):
        dists = [Uniform(0, 1) for _ in range(8)]
        with pytest.raises(TPOSizeError):
            MonteCarloBuilder(samples=30000, seed=0, max_orderings=100).build(
                dists, 6
            )

    def test_mc_guard_message_is_actionable(self):
        dists = [Uniform(0, 1) for _ in range(7)]
        with pytest.raises(TPOSizeError, match="incr"):
            MonteCarloBuilder(samples=20000, seed=1, max_orderings=50).build(
                dists, 5
            )

    def test_mc_within_budget_still_builds(self):
        dists = [Uniform(0, 1) for _ in range(4)]
        tree = MonteCarloBuilder(
            samples=5000, seed=2, max_orderings=200
        ).build(dists, 3)
        assert tree.is_complete


class TestStableTopOrderings:
    def test_most_probable_ordering_breaks_ties_like_top(self, tied_space):
        # The smallest of the tied paths in ascending path order.
        assert tied_space.most_probable_ordering().tolist() == [0, 1]

    def test_most_probable_ordering_unique_max(self):
        space = space_from_orderings(
            [[0, 1], [1, 0]], [0.3, 0.7], 2
        )
        assert space.most_probable_ordering().tolist() == [1, 0]

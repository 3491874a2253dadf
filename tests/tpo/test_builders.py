"""Tests for the three TPO construction engines."""

import numpy as np
import pytest

from repro.api import ENGINES
from repro.distributions import PointMass, TruncatedGaussian, Uniform
from repro.tpo import (
    ExactBuilder,
    GridBuilder,
    MonteCarloBuilder,
    TPOSizeError,
)

from oracles.tree_invariants import validate


def space_map(space):
    """Path → probability dict for engine comparisons."""
    return {
        tuple(int(t) for t in path): float(p)
        for path, p in zip(space.paths, space.probabilities, strict=True)
    }


class TestEngineAgreement:
    """The heart of the substrate's correctness: engines must agree."""

    def test_exact_vs_grid_on_uniforms(self, overlapping_uniforms):
        exact = ExactBuilder().build(overlapping_uniforms, 3).to_space()
        grid = (
            GridBuilder(resolution=2000)
            .build(overlapping_uniforms, 3)
            .to_space()
        )
        exact_probs = space_map(exact)
        grid_probs = space_map(grid)
        for path in set(exact_probs) | set(grid_probs):
            assert exact_probs.get(path, 0.0) == pytest.approx(
                grid_probs.get(path, 0.0), abs=5e-6
            )

    def test_exact_vs_monte_carlo(self, overlapping_uniforms):
        exact = ExactBuilder().build(overlapping_uniforms, 2).to_space()
        mc = (
            MonteCarloBuilder(samples=400000, seed=3)
            .build(overlapping_uniforms, 2)
            .to_space()
        )
        exact_probs = space_map(exact)
        mc_probs = space_map(mc)
        for path, p in exact_probs.items():
            assert mc_probs.get(path, 0.0) == pytest.approx(p, abs=4e-3)

    def test_two_tuples_match_prob_greater(self):
        a, b = Uniform(0.0, 1.0), Uniform(0.4, 1.4)
        for builder in (ExactBuilder(), GridBuilder(resolution=2000)):
            space = builder.build([a, b], 1).to_space()
            probs = space_map(space)
            assert probs[(1,)] == pytest.approx(b.prob_greater(a), abs=1e-6)
            assert probs[(0,)] == pytest.approx(a.prob_greater(b), abs=1e-6)


class TestTreeShape:
    def test_disjoint_supports_give_single_ordering(self):
        dists = [Uniform(i, i + 0.5) for i in range(4)]
        tree = GridBuilder().build(dists, 4)
        space = tree.to_space()
        assert space.size == 1
        np.testing.assert_array_equal(space.paths[0], [3, 2, 1, 0])

    def test_identical_supports_give_all_orderings(self):
        dists = [Uniform(0, 1) for _ in range(3)]
        tree = GridBuilder().build(dists, 3)
        space = tree.to_space()
        assert space.size == 6  # 3! permutations
        np.testing.assert_allclose(space.probabilities, 1 / 6, atol=1e-6)

    def test_point_masses_are_supported(self):
        dists = [PointMass(0.2), Uniform(0.0, 1.0), PointMass(0.8)]
        tree = GridBuilder(resolution=2000).build(dists, 3)
        space = tree.to_space()
        # Orderings must respect 0.8 > 0.2 for the two certain tuples.
        for path in space.paths:
            ranks = {int(t): r for r, t in enumerate(path)}
            assert ranks[2] < ranks[0]

    def test_gaussian_tree_builds(self):
        dists = [TruncatedGaussian(m, 0.1) for m in (0.3, 0.4, 0.55)]
        tree = GridBuilder(resolution=1000).build(dists, 2)
        validate(tree, tolerance=1e-4)

    def test_levels_sum_to_one_all_engines(self, overlapping_uniforms):
        for builder in (
            ExactBuilder(),
            GridBuilder(resolution=800),
            MonteCarloBuilder(samples=50000, seed=0),
        ):
            tree = builder.build(overlapping_uniforms, 3)
            for depth in range(1, 4):
                assert tree.levels[depth - 1].probs.sum() == pytest.approx(
                    1.0, abs=1e-5
                )


class TestIncrementalExtension:
    def test_extend_level_by_level(self, overlapping_uniforms):
        builder = GridBuilder(resolution=500)
        tree = builder.start(overlapping_uniforms, 3)
        assert tree.built_depth == 0
        for expected in (1, 2, 3):
            builder.extend(tree)
            assert tree.built_depth == expected
        assert tree.is_complete
        tree.renormalize()
        # Same leaves as one-shot build.
        oneshot = GridBuilder(resolution=500).build(overlapping_uniforms, 3)
        assert tree.ordering_count() == oneshot.ordering_count()

    def test_extend_past_k_is_noop(self, overlapping_uniforms):
        builder = GridBuilder(resolution=400)
        tree = builder.build(overlapping_uniforms, 2)
        count = tree.ordering_count()
        builder.extend(tree)
        assert tree.ordering_count() == count

    def test_parent_states_are_freed(self, overlapping_uniforms):
        # The engine payload covers the frontier only: after two levels
        # it is aligned with level 2, and nothing is kept for level 1.
        builder = GridBuilder(resolution=400)
        tree = builder.start(overlapping_uniforms, 3)
        builder.extend(tree)
        builder.extend(tree)
        assert tree.engine_cache.width == tree.levels[-1].width
        assert tree.engine_cache.width != tree.levels[0].width


class TestGuards:
    def test_max_orderings_guard(self):
        dists = [Uniform(0, 1) for _ in range(8)]
        with pytest.raises(TPOSizeError):
            GridBuilder(resolution=200, max_orderings=100).build(dists, 6)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            GridBuilder(resolution=2)
        with pytest.raises(ValueError):
            GridBuilder(min_probability=-1)
        with pytest.raises(ValueError):
            MonteCarloBuilder(samples=0)
        with pytest.raises(ValueError):
            GridBuilder(max_orderings=0)

    def test_engine_registry(self):
        assert isinstance(ENGINES.create("grid"), GridBuilder)
        assert isinstance(ENGINES.create("exact"), ExactBuilder)
        assert isinstance(ENGINES.create("mc"), MonteCarloBuilder)
        with pytest.raises(ValueError):
            ENGINES.create("quantum")


class TestMonteCarloDetails:
    def test_reproducible_with_seed(self, overlapping_uniforms):
        one = MonteCarloBuilder(samples=20000, seed=9).build(
            overlapping_uniforms, 2
        )
        two = MonteCarloBuilder(samples=20000, seed=9).build(
            overlapping_uniforms, 2
        )
        assert space_map(one.to_space()) == space_map(two.to_space())

    def test_probabilities_are_sample_fractions(self, overlapping_uniforms):
        samples = 1000
        tree = MonteCarloBuilder(samples=samples, seed=1).build(
            overlapping_uniforms, 2
        )
        for probability in tree.levels[-1].probs:
            assert (probability * samples) == pytest.approx(
                round(probability * samples), abs=1e-6
            )

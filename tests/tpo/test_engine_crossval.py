"""Engine cross-validation over random mixed-family instances.

The flat level-table refactor must be invisible in the numbers: on random
workloads mixing uniform, triangular, histogram, and point-mass scores,
the Exact oracle, the retired pointer-path grid engine, the flat grid
engine, and Monte Carlo all have to agree on the leaf probabilities of
``T_K`` — exact-vs-grid within integration tolerance, flat-vs-pointer to
1e-9 (same leaves, same order), MC within sampling error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Histogram, PointMass, Triangular, Uniform
from repro.tpo import ExactBuilder, GridBuilder, MonteCarloBuilder

from oracles.pointer_tpo import ReferenceGridBuilder


@st.composite
def mixed_distribution(draw):
    """One score distribution from the paper's polynomial families."""
    kind = draw(st.sampled_from(["uniform", "triangular", "histogram", "point"]))
    lo = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    width = draw(st.floats(min_value=0.1, max_value=0.6, allow_nan=False))
    if kind == "uniform":
        return Uniform(lo, lo + width)
    if kind == "triangular":
        mode_frac = draw(st.floats(min_value=0.1, max_value=0.9))
        return Triangular(lo, lo + mode_frac * width, lo + width)
    if kind == "histogram":
        masses = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=2,
                max_size=4,
            )
        )
        edges = np.linspace(lo, lo + width, len(masses) + 1)
        return Histogram(edges, masses)
    return PointMass(lo)


@st.composite
def mixed_workloads(draw):
    """3–5 mixed-family distributions with assorted overlap."""
    n = draw(st.integers(min_value=3, max_value=5))
    return [draw(mixed_distribution()) for _ in range(n)]


def space_map(space):
    return {
        tuple(int(t) for t in path): float(p)
        for path, p in zip(space.paths, space.probabilities, strict=True)
    }


@given(mixed_workloads(), st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_exact_vs_flat_grid(dists, k):
    """The flat grid engine tracks the closed-form oracle.

    Tolerance is bounded by the grid's midpoint-rule error, not machine
    precision: interior histogram bin edges and triangular modes are not
    grid edges, so each discontinuity contributes O(1/resolution) mass.
    """
    k = min(k, len(dists))
    exact = ExactBuilder().build(dists, k).to_space()
    grid = GridBuilder(resolution=1500).build(dists, k).to_space()
    exact_probs = space_map(exact)
    grid_probs = space_map(grid)
    for path in set(exact_probs) | set(grid_probs):
        assert exact_probs.get(path, 0.0) == pytest.approx(
            grid_probs.get(path, 0.0), abs=1.5e-3
        )


@given(mixed_workloads(), st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_flat_grid_vs_pointer_grid(dists, k):
    """Flat and pointer grid paths are numerically interchangeable.

    Same grid, same recursion — the flat path must reproduce the retired
    pointer implementation's leaf table row for row (identical leaf
    order) to 1e-9 on random instances.
    """
    k = min(k, len(dists))
    flat = GridBuilder(resolution=700).build(dists, k).to_space()
    pointer = ReferenceGridBuilder(resolution=700).build(dists, k).to_space()
    assert flat.paths.shape == pointer.paths.shape
    np.testing.assert_array_equal(flat.paths, pointer.paths)
    np.testing.assert_allclose(
        flat.probabilities, pointer.probabilities, atol=1e-9, rtol=0
    )


@given(mixed_workloads(), st.integers(min_value=1, max_value=2))
@settings(max_examples=10, deadline=None)
def test_exact_vs_monte_carlo(dists, k):
    """The empirical engine converges on the same leaf masses."""
    k = min(k, len(dists))
    exact = ExactBuilder().build(dists, k).to_space()
    mc = MonteCarloBuilder(samples=80000, seed=5).build(dists, k).to_space()
    exact_probs = space_map(exact)
    mc_probs = space_map(mc)
    for path, p in exact_probs.items():
        assert mc_probs.get(path, 0.0) == pytest.approx(p, abs=0.02)

"""Property-based tests of TPO construction over random workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Uniform
from repro.tpo import GridBuilder, MonteCarloBuilder

from oracles.tree_invariants import validate


@st.composite
def uniform_workloads(draw):
    """3–6 uniform intervals with assorted overlap."""
    n = draw(st.integers(min_value=3, max_value=6))
    centers = [
        draw(st.floats(min_value=0, max_value=1, allow_nan=False))
        for _ in range(n)
    ]
    width = draw(st.floats(min_value=0.05, max_value=0.6, allow_nan=False))
    return [Uniform(c, c + width) for c in centers]


@given(uniform_workloads(), st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_grid_tree_invariants(dists, k):
    k = min(k, len(dists))
    tree = GridBuilder(resolution=400).build(dists, k)
    validate(tree, tolerance=1e-4)
    space = tree.to_space()
    assert abs(space.probabilities.sum() - 1.0) < 1e-9
    # No path repeats a tuple, and paths are unique.
    seen = set()
    for path in space.paths:
        key = tuple(int(t) for t in path)
        assert len(set(key)) == len(key)
        assert key not in seen
        seen.add(key)


@given(uniform_workloads(), st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_grid_and_mc_agree_on_top1_mass(dists, k):
    """The two numeric engines agree on level-1 probabilities."""
    k = min(k, len(dists))
    grid_space = GridBuilder(resolution=600).build(dists, k).to_space()
    mc_space = (
        MonteCarloBuilder(samples=60000, seed=7).build(dists, k).to_space()
    )
    _, grid_level1 = grid_space.prefix_groups(1)
    grid_top = {
        int(p[0]): m for p, m in zip(*grid_space.prefix_groups(1), strict=True)
    }
    mc_top = {int(p[0]): m for p, m in zip(*mc_space.prefix_groups(1), strict=True)}
    for tuple_index in set(grid_top) | set(mc_top):
        assert grid_top.get(tuple_index, 0.0) == pytest.approx(
            mc_top.get(tuple_index, 0.0), abs=0.02
        )


@given(uniform_workloads())
@settings(max_examples=20, deadline=None)
def test_deeper_trees_refine_shallower(dists):
    """Level-k prefix masses of T_{k+1} match the level-k tree.

    Resolution 1600 keeps the midpoint-rule error of the narrowest
    admissible interval (width 0.05) well inside the 1e-4 tolerance;
    at 400 hypothesis can find workloads whose integration error alone
    exceeds it (e.g. width-0.125 pdfs far from the overlap cluster).
    """
    builder = GridBuilder(resolution=1600)
    shallow = builder.build(dists, 1).to_space()
    deep = builder.build(dists, min(2, len(dists))).to_space()
    shallow_masses = {
        int(p[0]): m for p, m in zip(*shallow.prefix_groups(1), strict=True)
    }
    deep_masses = {int(p[0]): m for p, m in zip(*deep.prefix_groups(1), strict=True)}
    for tuple_index in set(shallow_masses) | set(deep_masses):
        # Agreement is bounded by the midpoint-rule integration error of
        # the deeper level plus renormalization, not machine precision.
        assert shallow_masses.get(tuple_index, 0.0) == pytest.approx(
            deep_masses.get(tuple_index, 0.0), abs=1e-4
        )


@given(
    uniform_workloads(),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=20, deadline=None)
def test_pruning_monotone_under_random_answers(dists, seed):
    """Applying any sequence of consistent answers never widens the space."""
    rng = np.random.default_rng(seed)
    k = min(3, len(dists))
    space = GridBuilder(resolution=300).build(dists, k).to_space()
    truth_scores = [float(np.atleast_1d(d.sample(rng, 1))[0]) for d in dists]
    order = np.argsort(-np.asarray(truth_scores))
    rank = {int(t): r for r, t in enumerate(order)}
    size = space.size
    for _ in range(4):
        i, j = rng.choice(len(dists), size=2, replace=False)
        holds = rank[int(i)] < rank[int(j)]
        try:
            space = space.condition(int(i), int(j), holds)
        except Exception:
            break
        assert space.size <= size
        size = space.size

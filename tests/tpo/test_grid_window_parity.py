"""The support-windowed grid build agrees with the full-grid one.

:class:`~repro.tpo.builders.GridBuilder` computes tails, integrands and
prefix masses only on each tuple's support band and each candidate
set's window, and multiplies each set's tails and integrands only over
its window and live candidates.  The oracle in
``tests/oracles/full_grid.py`` computes every cell with full-width
products.  Cutting a product changes its summation order, so the levels
are held to the oracle in two ways: tuple ids and parent indices under
``np.array_equal`` (which children survive the ``min_probability`` cut
and the beam may not move), masses and lost mass within a relative
``1e-12``.  Twins (equal pdfs, tied point masses) must tie exactly under
every parent.  The grid edges themselves must equal the per-segment
``np.linspace`` loop they replaced.
"""

from itertools import pairwise

import numpy as np
import pytest
from oracles.full_grid import FullGridBuilder, loop_grid_edges

from repro.api.catalog import WORKLOADS
from repro.distributions.grid import Grid
from repro.distributions.histogram import Histogram
from repro.distributions.point import PointMass
from repro.distributions.uniform import Uniform
from repro.tpo import builders
from repro.tpo.builders import GridBuilder, TPOSizeError

K = 4
RESOLUTION = 256
BEAMS = {
    "off": {},
    "epsilon": {"beam_epsilon": 0.01},
    "width": {"beam_width": 40},
}


#: Relative tolerance on level masses and lost mass against the oracle.
RTOL = 1e-12


def assert_levels_equal(tree, oracle):
    assert tree.built_depth == oracle.built_depth
    for level, expected in zip(tree.levels, oracle.levels, strict=True):
        assert np.array_equal(level.tuple_ids, expected.tuple_ids)
        assert np.array_equal(level.parent_idx, expected.parent_idx)
        np.testing.assert_allclose(level.probs, expected.probs, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(tree.lost_mass, oracle.lost_mass, rtol=RTOL, atol=0.0)


def start_pair(dists, k=K, resolution=RESOLUTION, **params):
    engines = (
        GridBuilder(resolution=resolution, **params),
        FullGridBuilder(resolution=resolution, **params),
    )
    return engines, [engine.start(dists, k) for engine in engines]


def extend_pair(engines, trees):
    """Extend both trees by one level and compare them *before*
    ``renormalize`` rewrites the inner levels from the leaves."""
    for engine, tree in zip(engines, trees, strict=True):
        engine.extend(tree)
    assert_levels_equal(*trees)


def build_pair(dists, k=K, **params):
    engines, trees = start_pair(dists, k, **params)
    while not trees[0].is_complete:
        extend_pair(engines, trees)
    for tree in trees:
        tree.renormalize()
    return trees


def generate(name, n, seed):
    """An instance of ``name`` whose overlap shrinks as ``n`` grows."""
    width = min(0.5, 4.0 / n)
    params = {
        "pareto": {"tail": 1.0 + 10.0 / n},
        "gaussian": {"sigma": width / 4.0},
    }.get(name, {"width": width})
    return WORKLOADS.create(name, n=n, rng=seed, **params)


@pytest.mark.parametrize("beam", sorted(BEAMS))
@pytest.mark.parametrize("n", [6, 18, 70])
@pytest.mark.parametrize("generator", sorted(WORKLOADS))
def test_levels_match_full_grid(generator, n, beam):
    dists = generate(generator, n, seed=n)
    tree, oracle = build_pair(dists, **BEAMS[beam])
    assert_levels_equal(tree, oracle)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_shape_matches_full_grid(seed):
    # The t1-online benchmark's instances: uniform, N=18, K=5, width
    # 0.35, at the default resolution.
    dists = WORKLOADS.create("uniform", n=18, width=0.35, rng=seed)
    tree, oracle = build_pair(dists, k=5, resolution=1024)
    assert_levels_equal(tree, oracle)


def test_integrands_in_one_pass_per_set(monkeypatch):
    # A level too large for one stacked integrand pass runs in several;
    # at one cell per pass every set gets its own.
    monkeypatch.setattr(builders, "_INTEGRAND_CELLS", 1)
    dists = generate("uniform", 18, seed=18)
    tree, oracle = build_pair(dists, **BEAMS["epsilon"])
    assert_levels_equal(tree, oracle)


def test_size_limit_trips_at_the_same_level():
    dists = WORKLOADS.create("uniform", n=10, width=0.5, rng=4)
    engines, trees = start_pair(dists, 5, max_orderings=300)
    errors = []
    for engine, tree in zip(engines, trees, strict=True):
        with pytest.raises(TPOSizeError) as raised:
            while not tree.is_complete:
                engine.extend(tree)
        errors.append(str(raised.value))
    assert trees[0].built_depth == trees[1].built_depth >= 2
    assert_levels_equal(*trees)
    assert errors[0] == errors[1]


@pytest.mark.parametrize("resolution", [16, 257, 1024])
@pytest.mark.parametrize("generator", sorted(WORKLOADS))
def test_grid_edges_match_the_linspace_loop(generator, resolution):
    for seed in range(4):
        dists = generate(generator, 6 + 8 * seed, seed)
        edges = Grid.for_distributions(dists, resolution).edges
        assert np.array_equal(edges, loop_grid_edges(dists, resolution))


def test_histogram_with_zero_density_interior_bin():
    gap = Histogram([0.1, 0.3, 0.35, 0.5, 0.7], [0.3, 0.0, 0.2, 0.5])
    split = Histogram([0.0, 0.2, 0.45, 0.6], [0.5, 0.0, 0.5])
    dists = [gap, split, Uniform(0.2, 0.55), Uniform(0.32, 0.4),
             Uniform(0.05, 0.25), Uniform(0.5, 0.65)]
    tree, oracle = build_pair(dists)
    assert_levels_equal(tree, oracle)


def test_histogram_bins_between_cell_midpoints():
    # Bins narrower than a grid cell that no cell midpoint falls in: the
    # CDF is 0.5 where the sampled density is still (or already) zero,
    # so a window cut at the density band alone would drop real mass.
    early = Histogram([0.2, 0.2001, 0.3, 0.6], [0.5, 0.0, 0.5])
    late = Histogram([0.25, 0.5, 0.5999, 0.6], [0.5, 0.0, 0.5])
    dists = [early, late, Uniform(0.21, 0.45), Uniform(0.3, 0.62),
             Uniform(0.22, 0.28), Uniform(0.55, 0.7)]
    engines, trees = start_pair(dists, resolution=64)
    cache = trees[0].engine_cache
    assert cache.first[0] < cache.lo[0]
    assert cache.settled[1] > cache.hi[1]
    while not trees[0].is_complete:
        extend_pair(engines, trees)


@pytest.mark.parametrize("beam", sorted(BEAMS))
def test_twins_tie_exactly(beam):
    # Equal pdfs and tied point masses are exchangeable, so under every
    # parent their children's masses must tie bit for bit: the beam then
    # breaks the tie toward the earlier child, not on rounding.
    dists = [Uniform(0.1, 0.5), Uniform(0.2, 0.6), Uniform(0.3, 0.7),
             PointMass(0.4), Uniform(0.2, 0.6), PointMass(0.4),
             Uniform(0.25, 0.65), Uniform(0.2, 0.6)]
    twins = ({1, 4, 7}, {3, 5})
    engines, trees = start_pair(dists, **BEAMS[beam])
    compared = 0
    while not trees[0].is_complete:
        extend_pair(engines, trees)
        level = trees[0].levels[-1]
        for parent in np.unique(level.parent_idx):
            children = level.parent_idx == parent
            masses = dict(zip(level.tuple_ids[children], level.probs[children]))
            for group in twins:
                tied = [masses[t] for t in sorted(group) if t in masses]
                assert tied == tied[:1] * len(tied)
                compared += len(tied) - 1
    assert compared > 0


def test_point_masses():
    dists = [PointMass(0.4), PointMass(0.4), Uniform(0.3, 0.5),
             PointMass(0.1), Uniform(0.0, 0.45), PointMass(0.9),
             Uniform(0.35, 0.95)]
    tree, oracle = build_pair(dists)
    assert_levels_equal(tree, oracle)


@pytest.mark.parametrize("beam", sorted(BEAMS))
def test_incremental_build_pruned_mid_build(beam):
    dists = WORKLOADS.create("uniform", n=10, width=0.5, rng=5)
    engines, trees = start_pair(dists, 5, **BEAMS[beam])
    extend_pair(engines, trees)
    extend_pair(engines, trees)
    # Prune twice on pairs the built prefixes disagree on, extending in
    # between, then finish the build.
    for _ in range(2):
        i, j = contested_pair(trees[1].paths_at_depth(trees[1].built_depth))
        for tree in trees:
            assert tree.prune_with_answer(i, j, holds=True) > 0
        assert_levels_equal(*trees)
        extend_pair(engines, trees)
    while not trees[0].is_complete:
        extend_pair(engines, trees)


def contested_pair(paths):
    """A pair ``(i, j)`` ranked ``i`` first on one path, ``j`` on another."""
    ordered = {(int(a), int(b)) for row in paths for a, b in pairwise(row)}
    return next(pair for pair in sorted(ordered) if pair[::-1] in ordered)


def random_distributions(rng, n):
    """Uniforms, point masses and histograms with an empty inner bin."""
    dists = []
    for _ in range(n):
        low, kind = rng.uniform(0.0, 0.8), rng.integers(3)
        if kind == 0:
            dists.append(Uniform(low, low + rng.uniform(0.01, 0.5)))
        elif kind == 1:
            dists.append(PointMass(round(low, 2)))
        else:
            edges = low + np.cumsum(np.append(0.0, rng.uniform(0.001, 0.15, 4)))
            weights = rng.uniform(0.1, 1.0, 4)
            weights[rng.integers(1, 3)] = 0.0
            dists.append(Histogram(edges, weights / weights.sum()))
    return dists


@pytest.mark.parametrize("seed", range(12))
def test_random_instances_pruned_mid_build(seed):
    # Tails are exact only from each set's window start on; no mix of
    # supports, beam or mid-build pruning may let that reach a level.
    rng = np.random.default_rng(seed)
    dists = random_distributions(rng, int(rng.integers(5, 14)))
    beam = sorted(BEAMS)[seed % len(BEAMS)]
    engines, trees = start_pair(
        dists, int(rng.integers(3, 6)), int(rng.choice([16, 64, 257])), **BEAMS[beam]
    )
    while not trees[0].is_complete:
        extend_pair(engines, trees)
        paths = trees[1].paths_at_depth(trees[1].built_depth)
        if not trees[0].is_complete and rng.random() < 0.5:
            ordered = {(int(a), int(b)) for row in paths for a, b in pairwise(row)}
            pairs = sorted(p for p in ordered if p[::-1] in ordered)
            if pairs:
                i, j = pairs[int(rng.integers(len(pairs)))]
                for tree in trees:
                    tree.prune_with_answer(i, j, holds=bool(seed % 2))
                assert_levels_equal(*trees)

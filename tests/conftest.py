"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.oracle import GroundTruth
from repro.crowd.simulator import SimulatedCrowd
from repro.distributions.uniform import Uniform
from repro.tpo.builders import GridBuilder

from oracles.spaces import space_from_orderings


@pytest.fixture
def rng():
    """A fixed-seed generator; tests stay deterministic."""
    return np.random.default_rng(12345)


@pytest.fixture
def overlapping_uniforms():
    """Five uniforms with enough overlap for a non-trivial TPO."""
    centers = [0.05, 0.2, 0.35, 0.45, 0.6]
    return [Uniform(c, c + 0.3) for c in centers]


@pytest.fixture
def small_tree(overlapping_uniforms):
    """A complete grid-built depth-3 TPO over the five uniforms."""
    return GridBuilder(resolution=600).build(overlapping_uniforms, 3)


@pytest.fixture
def small_space(small_tree):
    """The flattened ordering space of :func:`small_tree`."""
    return small_tree.to_space()


@pytest.fixture
def toy_space():
    """A hand-built 4-ordering space over 4 tuples (easy to reason about).

    Paths (depth 2):  [0,1] 0.4 | [1,0] 0.3 | [0,2] 0.2 | [2,3] 0.1
    """
    paths = [[0, 1], [1, 0], [0, 2], [2, 3]]
    probs = [0.4, 0.3, 0.2, 0.1]
    return space_from_orderings(paths, probs, 4)


@pytest.fixture
def truth_factory():
    """Factory for ground truths over explicit score vectors."""

    def make(scores):
        return GroundTruth(scores)

    return make


@pytest.fixture
def perfect_crowd_factory():
    """Factory building a reliable crowd for a given score vector."""

    def make(scores, seed=0):
        truth = GroundTruth(scores)
        return SimulatedCrowd(
            truth, worker_accuracy=1.0, rng=np.random.default_rng(seed)
        )

    return make

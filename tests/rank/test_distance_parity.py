"""The count-form result distance is bit-identical to the stance tensor.

:func:`repro.rank.kendall.topk_distance_profile` counts each path's
discordant and one-silent pairs from its ``K`` positions and the
reference's tuples; the oracle in ``tests/oracles/stance_distance.py``
sums ``(chunk, N, N)`` stance tensors.  Both put integer counts through
the same float formula, so every profile must be exactly equal.
"""

import numpy as np
import pytest
from oracles.stance_distance import stance_tensor_profile

from repro.rank.kendall import expected_topk_distance, topk_distance_profile
from repro.tpo.builders import GridBuilder
from repro.workloads.synthetic import uniform_intervals

N, K = 12, 4


@pytest.fixture(scope="module")
def space():
    dists = uniform_intervals(N, width=0.35, rng=17)
    return GridBuilder(resolution=256).build(dists, K).to_space()


def references(space, seed):
    """Seeded references of every length against ``space.depth``.

    Shorter, equal and longer than the depth; the last two hold tuples
    that no path contains.
    """
    rng = np.random.default_rng(seed)
    unused = np.setdiff1d(np.arange(space.n_tuples), space.present_tuples())
    assert unused.size >= 2
    drawn = [
        list(rng.choice(space.n_tuples, size=size, replace=False))
        for size in (1, 2, K - 1, K, K + 1, K + 3)
    ]
    drawn.append([*space.paths[0][:2], unused[0], unused[1]])
    drawn.append([int(unused[1]), *space.paths[-1], int(unused[0])])
    return [[int(t) for t in ref] for ref in drawn]


@pytest.mark.parametrize("penalty", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_profile_matches_stance_tensor(space, seed, penalty, normalized):
    assert space.size > 100
    for reference in references(space, seed):
        expected = stance_tensor_profile(
            space, reference, penalty=penalty, normalized=normalized
        )
        actual = topk_distance_profile(
            space, reference, penalty=penalty, normalized=normalized, chunk=37
        )
        assert np.array_equal(actual, expected)
        assert expected_topk_distance(
            space, reference, penalty=penalty, normalized=normalized
        ) == float(np.dot(space.probabilities, expected))


def test_empty_reference(space):
    assert np.array_equal(
        topk_distance_profile(space, []), stance_tensor_profile(space, [])
    )

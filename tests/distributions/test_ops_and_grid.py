"""Tests for pairwise ops and the shared integration grid."""

import numpy as np
import pytest
from oracles.full_grid import _upper_tail_rows

from repro.distributions import (
    Grid,
    PointMass,
    TruncatedGaussian,
    Uniform,
    certain_order,
    expected_scores,
    joint_sample,
    overlap_matrix,
    prob_greater_matrix,
)


@pytest.fixture
def trio():
    return [Uniform(0.0, 0.5), Uniform(0.3, 0.8), Uniform(0.9, 1.2)]


class TestPairwiseOps:
    def test_prob_greater_matrix_complementary(self, trio):
        matrix = prob_greater_matrix(trio)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose((matrix + matrix.T)[off], 1.0)
        np.testing.assert_allclose(np.diag(matrix), 0.5)

    def test_prob_greater_matrix_respects_dominance(self, trio):
        matrix = prob_greater_matrix(trio)
        assert matrix[2, 0] == 1.0  # disjoint above
        assert matrix[0, 2] == 0.0

    def test_overlap_matrix(self, trio):
        overlap = overlap_matrix(trio)
        assert overlap[0, 1] and overlap[1, 0]
        assert not overlap[0, 2]
        assert not overlap.diagonal().any()

    def test_certain_order(self, trio):
        certain = certain_order(trio)
        assert certain[2, 0]
        assert not certain[0, 1]
        assert not certain[0, 0]

    def test_joint_sample_shape_and_ranges(self, trio):
        rng = np.random.default_rng(0)
        sample = joint_sample(trio, rng, size=100)
        assert sample.shape == (100, 3)
        for column, dist in enumerate(trio):
            assert sample[:, column].min() >= dist.lower
            assert sample[:, column].max() <= dist.upper

    def test_expected_scores(self, trio):
        np.testing.assert_allclose(
            expected_scores(trio), [0.25, 0.55, 1.05]
        )


class TestGrid:
    def test_construction_covers_supports(self, trio):
        grid = Grid.for_distributions(trio, resolution=128)
        assert grid.edges[0] == pytest.approx(0.0)
        assert grid.edges[-1] == pytest.approx(1.2)
        assert grid.cell_count >= 128

    def test_support_endpoints_are_edges(self, trio):
        grid = Grid.for_distributions(trio, resolution=64)
        for dist in trio:
            assert np.any(np.isclose(grid.edges, dist.lower))
            assert np.any(np.isclose(grid.edges, dist.upper))

    def test_density_integrates_to_one(self, trio):
        grid = Grid.for_distributions(trio, resolution=256)
        for dist in trio:
            assert np.dot(grid.density(dist), grid.widths) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_tails_are_complementary(self, trio):
        grid = Grid.for_distributions(trio, resolution=256)
        d = grid.density(trio[1])
        masses = d * grid.widths
        lower = np.cumsum(masses) - 0.5 * masses
        total = _upper_tail_rows(d[None, :], grid)[0] + lower
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_upper_tail_matches_survival(self, trio):
        grid = Grid.for_distributions(trio, resolution=512)
        dist = trio[0]
        tail = _upper_tail_rows(grid.density(dist)[None, :], grid)[0]
        np.testing.assert_allclose(
            tail, np.asarray(dist.sf(grid.mids)), atol=2e-3
        )

    def test_gaussian_on_grid(self):
        g = TruncatedGaussian(0.5, 0.1)
        grid = Grid.for_distributions([g], resolution=512)
        assert np.dot(grid.density(g), grid.widths) == pytest.approx(1.0, abs=1e-4)

    def test_one_support_point_gets_a_narrow_span(self):
        grid = Grid.for_distributions([PointMass(0.5), PointMass(0.5)], 16)
        assert grid.cell_count == 16
        assert grid.edges[0] == 0.5
        assert grid.edges[-1] - grid.edges[0] == pytest.approx(1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(np.array([1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            Grid.for_distributions([], resolution=16)

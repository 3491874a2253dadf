"""Tests for workload generators and scenario tables."""

import numpy as np
import pytest

from repro.api import WORKLOADS
from repro.distributions import PointMass, Uniform
from repro.workloads import (
    GENERATORS,
    clustered_intervals,
    gaussian_scores,
    jittered_widths,
    mixed_certainty,
    pareto_scores,
    photo_contest,
    restaurant_guide,
    sensor_network,
    triangular_scores,
    uniform_intervals,
)


class TestSyntheticGenerators:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_generator_contract(self, kind):
        dists = WORKLOADS.create(kind, 10, rng=0)
        assert len(dists) == 10
        for dist in dists:
            assert dist.lower <= dist.upper
            assert np.isfinite(dist.mean())

    def test_reproducible_with_seed(self):
        a = uniform_intervals(5, rng=42)
        b = uniform_intervals(5, rng=42)
        for left, right in zip(a, b, strict=True):
            assert left.support == right.support

    def test_uniform_width_is_respected(self):
        for dist in uniform_intervals(8, width=0.2, rng=1):
            assert dist.width() == pytest.approx(0.2)

    def test_jittered_widths_vary(self):
        widths = {round(d.width(), 6) for d in jittered_widths(10, jitter=0.5, rng=2)}
        assert len(widths) > 1

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            jittered_widths(5, jitter=1.5)

    def test_gaussian_sigma(self):
        for dist in gaussian_scores(5, sigma=0.05, rng=3):
            assert dist.sigma == pytest.approx(0.05)

    def test_pareto_heavy_tail(self):
        dists = pareto_scores(5, shape=1.2, rng=4)
        for dist in dists:
            assert dist.upper > dist.lower

    def test_clustered_intervals_cluster(self):
        dists = clustered_intervals(12, clusters=2, rng=5)
        lowers = sorted(d.lower for d in dists)
        assert lowers[-1] - lowers[0] > 0.1  # spans the clusters

    def test_mixed_certainty_contains_atoms(self):
        dists = mixed_certainty(40, certain_fraction=0.5, rng=6)
        kinds = {type(d) for d in dists}
        assert PointMass in kinds
        assert Uniform in kinds

    def test_legacy_generators_alias_is_the_registry(self):
        assert GENERATORS is WORKLOADS

    def test_triangular_scores_bounded(self):
        for dist in triangular_scores(6, rng=7):
            assert dist.lower <= dist.mode <= dist.upper


class TestScenarios:
    def test_sensor_network_schema(self):
        table = sensor_network(n_sensors=6, rng=0)
        assert len(table) == 6
        row = table[0]
        assert "temperature" in row.attributes
        assert "true_temperature" in row.attributes
        dist = row.attribute_distribution("temperature")
        assert dist.lower < dist.upper

    def test_sensor_posterior_shrinks_with_readings(self):
        few = sensor_network(n_sensors=3, readings_per_sensor=2, rng=1)
        many = sensor_network(n_sensors=3, readings_per_sensor=50, rng=1)
        width_few = few[0].attribute_distribution("temperature").width()
        width_many = many[0].attribute_distribution("temperature").width()
        assert width_many < width_few

    def test_photo_contest_schema(self):
        table = photo_contest(n_photos=5, rng=2)
        assert len(table) == 5
        rating = table[0].attribute_distribution("rating")
        assert 1.0 <= rating.lower <= rating.upper <= 5.0

    def test_restaurant_guide_schema(self):
        table = restaurant_guide(n_restaurants=4, rng=3)
        row = table[0]
        assert isinstance(row.attributes["price"], float)
        quality = row.attribute_distribution("quality")
        assert quality.width() > 0

    def test_scenarios_are_seed_stable(self):
        a = photo_contest(n_photos=4, rng=9)
        b = photo_contest(n_photos=4, rng=9)
        assert a.keys() == b.keys()
        assert a[0].attribute_distribution("rating").support == pytest.approx(
            b[0].attribute_distribution("rating").support
        )

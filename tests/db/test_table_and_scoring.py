"""Tests for the uncertain-relational layer: tables and scoring."""

import pytest

from repro.db import AttributeScore, LinearScore, UncertainTable
from repro.db.table import UncertainTuple
from repro.distributions import PointMass, TruncatedGaussian, Uniform
from repro.distributions.affine import AffineDistribution
from repro.distributions.histogram import Histogram


@pytest.fixture
def table():
    t = UncertainTable("demo")
    t.insert("a", quality=Uniform(0.0, 1.0), price=10.0, city="milan")
    t.insert("b", quality=Uniform(0.5, 1.5), price=20.0, city="rome")
    t.insert("c", quality=0.75, price=5.0, city="milan")
    return t


class TestTable:
    def test_insert_and_lookup(self, table):
        assert len(table) == 3
        assert table.keys().index("b") == 1
        assert table.by_key("c").attributes["price"] == 5.0
        assert table.keys() == ["a", "b", "c"]

    def test_duplicate_key_rejected(self, table):
        with pytest.raises(ValueError):
            table.insert("a", quality=1.0)

    def test_extend_checks_duplicates(self, table):
        with pytest.raises(ValueError):
            table.extend([UncertainTuple("a")])
        table.extend([UncertainTuple("d", {"quality": 0.1})])
        assert len(table) == 4

    def test_iteration_order(self, table):
        assert [row.key for row in table] == ["a", "b", "c"]

    def test_attribute_distribution_coercion(self, table):
        dist = table.by_key("c").attribute_distribution("quality")
        assert isinstance(dist, PointMass)
        with pytest.raises(TypeError):
            table.by_key("a").attribute_distribution("city")

    def test_score_distributions_requires_one_source(self, table):
        with pytest.raises(ValueError):
            table.score_distributions()
        with pytest.raises(ValueError):
            table.score_distributions(
                scoring=AttributeScore("quality"), attribute="quality"
            )

    def test_score_distributions_by_attribute(self, table):
        dists = table.score_distributions(attribute="quality")
        assert len(dists) == 3
        assert isinstance(dists[0], Uniform)
        assert isinstance(dists[2], PointMass)


class TestAttributeScore:
    def test_projects_attribute(self, table):
        scoring = AttributeScore("quality")
        assert scoring(table[0]).support == (0.0, 1.0)


class TestLinearScore:
    def test_certain_only_gives_point_mass(self, table):
        scoring = LinearScore({"price": -1.0}, bias=100.0)
        dist = scoring(table.by_key("c"))
        assert isinstance(dist, PointMass)
        assert dist.value == pytest.approx(95.0)

    def test_single_uncertain_is_affine_exact(self, table):
        scoring = LinearScore({"quality": 2.0, "price": -0.1})
        dist = scoring(table.by_key("a"))
        assert isinstance(dist, AffineDistribution)
        assert dist.mean() == pytest.approx(2.0 * 0.5 - 1.0)
        assert dist.support == (-1.0, 1.0)

    def test_two_uncertain_attributes_give_histogram(self):
        row = UncertainTuple(
            "x",
            {"a": Uniform(0, 1), "b": TruncatedGaussian(0.5, 0.1)},
        )
        scoring = LinearScore({"a": 1.0, "b": 1.0}, rng=0)
        dist = scoring(row)
        assert isinstance(dist, Histogram)
        assert dist.mean() == pytest.approx(1.0, abs=0.03)

    def test_zero_weight_ignored(self, table):
        scoring = LinearScore({"quality": 0.0, "price": 1.0})
        assert isinstance(scoring(table.by_key("a")), PointMass)

    def test_requires_weights(self):
        with pytest.raises(ValueError):
            LinearScore({})

"""Tests for the four uncertainty measures."""

import numpy as np
import pytest

from repro.api import MEASURES
from repro.uncertainty import (
    EntropyMeasure,
    MPOUncertainty,
    ORAUncertainty,
    WeightedEntropyMeasure,
    linear_level_weights,
    shannon_entropy,
)

from oracles.spaces import space_from_orderings

ALL_MEASURES = [
    EntropyMeasure(),
    WeightedEntropyMeasure(),
    ORAUncertainty(method="exact"),
    MPOUncertainty(),
]


@pytest.fixture
def certain_space():
    return space_from_orderings([[0, 1, 2]], [1.0], 4)


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.name)
class TestMeasureContract:
    def test_zero_on_certainty(self, measure, certain_space):
        assert measure(certain_space) == pytest.approx(0.0, abs=1e-12)

    def test_non_negative(self, measure, toy_space):
        assert measure(toy_space) >= 0.0

    def test_positive_on_uncertain_space(self, measure, toy_space):
        assert measure(toy_space) > 0.0

    def test_deterministic(self, measure, toy_space):
        assert measure(toy_space) == pytest.approx(measure(toy_space))


class TestShannonEntropy:
    def test_uniform_distribution(self):
        assert shannon_entropy(np.ones(8) / 8) == pytest.approx(3.0)

    def test_singleton_is_zero(self):
        assert shannon_entropy(np.array([1.0])) == 0.0

    def test_ignores_zero_entries(self):
        with_zero = shannon_entropy(np.array([0.5, 0.5, 0.0]))
        without = shannon_entropy(np.array([0.5, 0.5]))
        assert with_zero == pytest.approx(without)

    def test_base_parameter(self):
        masses = np.ones(4) / 4
        assert shannon_entropy(masses, base=4.0) == pytest.approx(1.0)

    def test_measure_base_validation(self):
        with pytest.raises(ValueError):
            EntropyMeasure(base=1.0)


class TestEntropyOnSpaces:
    def test_uniform_leaf_distribution(self):
        paths = [[0, 1], [1, 0], [0, 2], [2, 0]]
        space = space_from_orderings(paths, [0.25] * 4, 3)
        assert EntropyMeasure()(space) == pytest.approx(2.0)

    def test_conditioning_reduces_expected_entropy(self, small_space):
        """Conditioning cannot raise entropy in expectation (data
        processing); the two-outcome average must be ≤ the prior."""
        measure = EntropyMeasure()
        prior = measure(small_space)
        codes = small_space.agreement_codes(0, 1)
        mass_yes = small_space.probabilities[codes == 1].sum()
        mass_no = small_space.probabilities[codes == -1].sum()
        if mass_yes == 0 or mass_no == 0:
            pytest.skip("pair decided in this instance")
        p_yes = mass_yes / (mass_yes + mass_no)
        posterior = p_yes * measure(
            small_space.restrict(codes != -1)
        ) + (1 - p_yes) * measure(small_space.restrict(codes != 1))
        assert posterior <= prior + 1e-9


class TestWeightedEntropy:
    def test_default_weights_decrease(self):
        weights = linear_level_weights(5)
        assert weights.sum() == pytest.approx(1.0)
        assert (np.diff(weights) < 0).all()

    def test_explicit_weights(self, toy_space):
        top_only = WeightedEntropyMeasure(weights=[1.0, 0.0])
        _, level1 = toy_space.prefix_groups(1)
        assert top_only(toy_space) == pytest.approx(
            shannon_entropy(level1)
        )

    def test_callable_weights(self, toy_space):
        measure = WeightedEntropyMeasure(weights=lambda k: np.ones(k))
        assert measure(toy_space) > 0

    def test_weight_validation(self, toy_space):
        with pytest.raises(ValueError):
            WeightedEntropyMeasure(weights=[1.0])(toy_space)
        with pytest.raises(ValueError):
            WeightedEntropyMeasure(weights=[0.0, 0.0])(toy_space)

    def test_distinguishes_structure(self):
        """Two spaces with equal leaf entropy but different level-1
        agreement: U_H ties, U_Hw tells them apart."""
        agree_top = space_from_orderings(
            [[0, 1], [0, 2]], [0.5, 0.5], 3
        )
        disagree_top = space_from_orderings(
            [[0, 1], [2, 1]], [0.5, 0.5], 3
        )
        assert EntropyMeasure()(agree_top) == pytest.approx(
            EntropyMeasure()(disagree_top)
        )
        assert WeightedEntropyMeasure()(agree_top) < (
            WeightedEntropyMeasure()(disagree_top)
        )


class TestRepresentativeMeasures:
    def test_ora_not_above_mpo(self, toy_space):
        """With exact aggregation the ORA minimizes the expected distance,
        so U_ORA ≤ U_MPO."""
        assert ORAUncertainty(method="exact")(toy_space) <= (
            MPOUncertainty()(toy_space) + 1e-12
        )

    def test_mpo_uses_modal_ordering(self, toy_space):
        from repro.rank import expected_topk_distance

        expected = expected_topk_distance(
            toy_space, toy_space.most_probable_ordering()
        )
        assert MPOUncertainty()(toy_space) == pytest.approx(expected)

    def test_ora_methods_agree_on_easy_space(self):
        paths = [[0, 1], [0, 2]]
        space = space_from_orderings(paths, [0.8, 0.2], 3)
        exact_value = ORAUncertainty(method="exact")(space)
        borda_value = ORAUncertainty(method="borda")(space)
        assert borda_value == pytest.approx(exact_value, abs=1e-9)


class TestRegistry:
    """The unified ``repro.api.MEASURES`` registry."""

    def test_paper_names_available(self):
        for name in ("H", "Hw", "ORA", "MPO"):
            assert name in MEASURES.available()
            assert MEASURES.create(name).name == name

    def test_kwargs_forwarded(self):
        measure = MEASURES.create("ORA", method="exact")
        assert measure.method == "exact"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            MEASURES.create("XYZ")

    def test_register_custom(self, toy_space):
        class Flat(EntropyMeasure):
            name = "flat"

        try:
            MEASURES.register("flat", Flat)
            assert "flat" in MEASURES.available()
            assert MEASURES.create("flat")(toy_space) >= 0
        finally:
            MEASURES.unregister("flat")

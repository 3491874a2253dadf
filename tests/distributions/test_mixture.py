"""Tests for mixture distributions."""

import numpy as np
import pytest

from repro.distributions import Mixture, TruncatedGaussian, Uniform


@pytest.fixture
def bimodal():
    """Reviews split 60/40 between 'bad' and 'great'."""
    return Mixture(
        [Uniform(1.0, 2.0), Uniform(4.0, 5.0)], weights=[0.6, 0.4]
    )


class TestConstruction:
    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            Mixture([], [])
        with pytest.raises(ValueError):
            Mixture([Uniform(0, 1)], [0.5, 0.5])
        with pytest.raises(ValueError):
            Mixture([Uniform(0, 1), Uniform(1, 2)], [0.7, 0.7])

    def test_support_spans_components(self, bimodal):
        assert bimodal.support == (1.0, 5.0)


class TestProbability:
    def test_pdf_is_weighted_sum(self, bimodal):
        assert bimodal.pdf(np.array([1.5]))[0] == pytest.approx(0.6)
        assert bimodal.pdf(np.array([4.5]))[0] == pytest.approx(0.4)
        assert bimodal.pdf(np.array([3.0]))[0] == 0.0  # the gap

    def test_cdf_plateaus_in_gap(self, bimodal):
        assert bimodal.cdf(np.array([2.5]))[0] == pytest.approx(0.6)
        assert bimodal.cdf(np.array([5.0]))[0] == pytest.approx(1.0)

    def test_quantile_inverts_cdf_even_across_gap(self, bimodal):
        ps = np.array([0.1, 0.3, 0.59, 0.61, 0.9])
        xs = bimodal.quantile(ps)
        np.testing.assert_allclose(bimodal.cdf(xs), ps, atol=1e-6)

    def test_moments(self, bimodal):
        assert bimodal.mean() == pytest.approx(0.6 * 1.5 + 0.4 * 4.5)
        rng = np.random.default_rng(0)
        samples = bimodal.sample(rng, 200000)
        assert bimodal.variance() == pytest.approx(samples.var(), rel=0.05)

    def test_sampling_respects_weights(self, bimodal):
        rng = np.random.default_rng(1)
        samples = bimodal.sample(rng, 100000)
        low_fraction = float(np.mean(samples < 3.0))
        assert low_fraction == pytest.approx(0.6, abs=0.01)

    def test_scalar_sampling(self, bimodal):
        value = bimodal.sample(np.random.default_rng(2))
        assert 1.0 <= float(value) <= 5.0


class TestIntegration:
    def test_piecewise_pdf_mass(self, bimodal):
        assert bimodal.piecewise_pdf().definite_integral() == pytest.approx(1.0)

    def test_prob_greater_with_gap(self, bimodal):
        other = Uniform(2.5, 3.5)  # entirely inside the gap
        # X > Y iff X came from the upper component: probability 0.4.
        assert bimodal.prob_greater(other) == pytest.approx(0.4, abs=1e-6)

    def test_mixture_in_tpo(self):
        from repro.tpo import GridBuilder

        from oracles.tree_invariants import validate

        dists = [
            Mixture([Uniform(0, 0.4), Uniform(0.6, 1.0)], [0.5, 0.5]),
            Uniform(0.3, 0.7),
            TruncatedGaussian(0.5, 0.1),
        ]
        tree = GridBuilder(resolution=800).build(dists, 2)
        validate(tree, tolerance=1e-4)
        assert tree.to_space().size >= 2

"""Regression tests for explicit hot-path dtypes (check RPL005).

Every array the tpo/residual hot paths allocate now names its dtype
instead of riding NumPy defaults.  These tests pin the resulting dtypes
at the public entry points, so a reintroduced bare ``np.zeros(...)`` (or
a platform where the default drifts) fails loudly rather than silently
changing numeric behavior or the level-table contract
(tuple_ids int32 / parent_idx intp / probs float64).
"""

import numpy as np

from repro.questions.candidates import all_pair_questions
from repro.questions.residual import ResidualEvaluator
from repro.tpo.builders import ExactBuilder, GridBuilder, MonteCarloBuilder
from repro.uncertainty.entropy import EntropyMeasure

from oracles.scalar_residual import rank_singles


class TestEngineDefaultsContract:
    """The documented per-engine ``min_probability`` defaults are load-
    bearing: cache keys embed them, so a drifted default silently
    invalidates every stored TPO artifact."""

    def test_grid_default_truncation(self):
        assert GridBuilder().min_probability == 1e-9

    def test_exact_default_truncation(self):
        assert ExactBuilder().min_probability == 1e-12

    def test_mc_keeps_every_sampled_ordering(self):
        assert MonteCarloBuilder(samples=10, seed=0).min_probability == 0.0


class TestSpaceDtypes:
    def test_rank_marginals_is_float64(self, toy_space):
        marginals = toy_space.rank_marginals()
        assert marginals.dtype == np.float64
        assert marginals.shape == (4, 2)

    def test_pairwise_order_masses_are_float64(self, toy_space):
        less, tied_absent = toy_space.pairwise_order_masses()
        assert less.dtype == np.float64
        assert tied_absent.dtype == np.float64


class TestBuilderDtypes:
    def test_built_level_table_contract(self, overlapping_uniforms):
        tree = GridBuilder(resolution=128).build(overlapping_uniforms, 3)
        for level in tree.levels:
            assert level.tuple_ids.dtype == np.int32
            assert level.parent_idx.dtype == np.intp
            assert level.probs.dtype == np.float64

    def test_space_probabilities_are_float64(self, small_space):
        assert small_space.probabilities.dtype == np.float64


class TestResidualDtypes:
    def test_rank_singles_scalar_and_batch_are_float64(self, toy_space):
        evaluator = ResidualEvaluator(EntropyMeasure())
        questions = all_pair_questions(toy_space)
        assert questions, "toy space should have candidate questions"
        scalar = rank_singles(evaluator, toy_space, questions)
        batch = evaluator.rank_singles_batch(toy_space, questions)
        assert scalar.dtype == np.float64
        assert batch.dtype == np.float64
        np.testing.assert_allclose(scalar, batch, atol=1e-9)

    def test_rank_singles_empty_is_float64(self, toy_space):
        evaluator = ResidualEvaluator(EntropyMeasure())
        assert rank_singles(evaluator, toy_space, []).dtype == np.float64
        assert evaluator.rank_singles_batch(toy_space, []).dtype == np.float64

"""Batch-vs-scalar parity of the residual-evaluation engine.

The batched path (`rank_singles_batch`, batched `set_residual_from_codes`,
`UncertaintyMeasure.evaluate_batch`) must reproduce the scalar oracle
(`single` and `tests/oracles/scalar_residual.py`) to 1e-9 across
every registered uncertainty measure and every TPO construction engine.
The set paths price restrictions as masks over answer-pattern cells
(`evaluate_restrictions(..., cells=...)`); those must equal the expanded
path masks and stay within their chunk memory bound.  A measure with
additive terms (``U_H``: ``p`` and ``p·ln p``) skips the masks: single
questions are priced from two products of the stance columns with the
terms, and uncapped set extensions by one product per step.  Both must
match the mask paths of an ``H``-valued measure without additive terms
(`tests/oracles/cell_entropy.py`), singles within 1e-12, and count the
same evaluations.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.uniform import Uniform
from repro.questions import residual as residual_module
from repro.questions.candidates import all_pair_questions
from repro.questions.model import Question
from repro.questions.residual import ResidualEvaluator
from repro.api import ENGINES, MEASURES
from repro.tpo.builders import GridBuilder
from repro.tpo.space import OrderingSpace
from repro.uncertainty.base import UncertaintyMeasure
from repro.uncertainty.entropy import EntropyMeasure

from oracles.cell_entropy import CellEntropyMeasure
from oracles.scalar_residual import (
    rank_singles,
    set_residual_from_codes_scalar,
)

ENGINE_PARAMS = {
    "grid": {"resolution": 64},
    "exact": {},
    "mc": {"samples": 4000, "seed": 7},
}


def engine_space(engine: str) -> OrderingSpace:
    """A small but non-trivial top-3 space built by the given engine."""
    rng = np.random.default_rng(11)
    distributions = [Uniform(c, c + 0.45) for c in rng.random(6)]
    builder = ENGINES.create(engine, **ENGINE_PARAMS[engine])
    return builder.build(distributions, 3).to_space()


def random_space(seed: int) -> OrderingSpace:
    """A random weighted prefix space (exercises silent/settled pairs)."""
    rng = np.random.default_rng(seed)
    n, k = 7, 3
    paths = np.unique(
        np.array([rng.permutation(n)[:k] for _ in range(25)]), axis=0
    )
    return OrderingSpace(paths, rng.random(paths.shape[0]) + 1e-3, n)


@pytest.mark.parametrize("engine", sorted(ENGINE_PARAMS))
@pytest.mark.parametrize("name", MEASURES.available())
def test_rank_singles_batch_matches_scalar_across_engines(engine, name):
    space = engine_space(engine)
    evaluator = ResidualEvaluator(MEASURES.create(name))
    questions = all_pair_questions(space)
    np.testing.assert_allclose(
        evaluator.rank_singles_batch(space, questions),
        rank_singles(evaluator, space, questions),
        rtol=0.0,
        atol=1e-9,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", MEASURES.available())
def test_rank_singles_batch_matches_scalar_on_random_spaces(seed, name):
    space = random_space(seed)
    evaluator = ResidualEvaluator(MEASURES.create(name))
    questions = all_pair_questions(space)
    np.testing.assert_allclose(
        evaluator.rank_singles_batch(space, questions),
        rank_singles(evaluator, space, questions),
        rtol=0.0,
        atol=1e-9,
    )


@pytest.mark.parametrize("pattern_cap", [None, 3])
@pytest.mark.parametrize("name", MEASURES.available())
def test_set_residual_batch_matches_scalar(name, pattern_cap):
    space = engine_space("grid")
    evaluator = ResidualEvaluator(MEASURES.create(name))
    questions = all_pair_questions(space)[:5]
    codes = evaluator.codes_matrix(space, questions)
    batched = evaluator.set_residual_from_codes(space, codes, pattern_cap)
    scalar = set_residual_from_codes_scalar(
        evaluator, space, codes, pattern_cap
    )
    assert abs(batched - scalar) < 1e-9


@pytest.mark.parametrize("name", MEASURES.available())
def test_rank_singles_batch_matches_scalar_on_tied_masses(name):
    """Uniform path masses (the Monte Carlo engine's natural output) tie
    expected Borda positions exactly — the batch path must still agree
    with the scalar oracle (regression: fp-association tie flips)."""
    rng = np.random.default_rng(17)
    n, k = 5, 3
    paths = np.unique(
        np.array([rng.permutation(n)[:k] for _ in range(20)]), axis=0
    )
    space = OrderingSpace(paths, np.ones(paths.shape[0]), n)
    evaluator = ResidualEvaluator(MEASURES.create(name))
    questions = all_pair_questions(space)
    np.testing.assert_allclose(
        evaluator.rank_singles_batch(space, questions),
        rank_singles(evaluator, space, questions),
        rtol=0.0,
        atol=1e-9,
    )


@pytest.mark.parametrize("name", MEASURES.available())
def test_rank_singles_batch_matches_scalar_with_zero_probability_paths(name):
    """Zero-mass paths stay in the space under restrict(); the batch path
    must keep their tuples in aggregation candidate sets too (regression:
    ORA presence was derived from weights > 0)."""
    rng = np.random.default_rng(31)
    for trial in range(4):
        n, k = 6, 3
        paths = np.unique(
            np.array([rng.permutation(n)[:k] for _ in range(18)]), axis=0
        )
        probs = rng.random(paths.shape[0]) + 1e-3
        probs[rng.integers(0, paths.shape[0], 5)] = 0.0  # dead paths
        space = OrderingSpace(paths, probs, n)
        evaluator = ResidualEvaluator(MEASURES.create(name))
        questions = all_pair_questions(space)
        np.testing.assert_allclose(
            evaluator.rank_singles_batch(space, questions),
            rank_singles(evaluator, space, questions),
            rtol=0.0,
            atol=1e-9,
        )


@pytest.mark.parametrize("name", MEASURES.available())
@pytest.mark.parametrize("pattern_cap", [2, 3, 5])
def test_rank_set_extensions_cap_tie_parity(name, pattern_cap):
    """Capped pattern cuts must resolve mass ties exactly like
    set_residual_from_codes — uniform masses make every pattern tie."""
    rng = np.random.default_rng(37)
    paths = np.unique(
        np.array([rng.permutation(6)[:3] for _ in range(20)]), axis=0
    )
    space = OrderingSpace(paths, np.ones(paths.shape[0]), 6)
    evaluator = ResidualEvaluator(MEASURES.create(name))
    questions = all_pair_questions(space)[:6]
    codes = evaluator.codes_matrix(space, questions)
    for base in ([], [0], [1, 4]):
        candidates = [c for c in range(len(questions)) if c not in base]
        batched = evaluator.rank_set_extensions(
            space, codes, base, candidates, pattern_cap
        )
        sibling = np.array(
            [
                evaluator.set_residual_from_codes(
                    space, codes[:, base + [c]], pattern_cap
                )
                for c in candidates
            ]
        )
        np.testing.assert_allclose(batched, sibling, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("name", MEASURES.available())
def test_rank_set_extensions_matches_per_candidate_scalar(name):
    space = engine_space("grid")
    evaluator = ResidualEvaluator(MEASURES.create(name))
    questions = all_pair_questions(space)[:8]
    codes = evaluator.codes_matrix(space, questions)
    for base in ([], [0], [2, 5]):
        candidates = [c for c in range(len(questions)) if c not in base]
        batched = evaluator.rank_set_extensions(space, codes, base, candidates)
        scalar = np.array(
            [
                set_residual_from_codes_scalar(
                    evaluator, space, codes[:, base + [c]]
                )
                for c in candidates
            ]
        )
        np.testing.assert_allclose(batched, scalar, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("name", MEASURES.available())
def test_evaluate_batch_matches_base_oracle_on_reweighted_rows(name):
    """The batch API accepts arbitrary posterior weight rows, not just
    prunings of the prior — values must match the base-class row-by-row
    oracle even when reweighted rows tie (regression: the ORA tie
    fallback once aggregated under the prior's masses instead)."""
    rng = np.random.default_rng(23)
    for trial in range(6):
        space = random_space(trial)
        measure = MEASURES.create(name)
        rows = rng.random((8, space.size)) + 1e-6
        rows[:, rng.integers(0, space.size, 3)] = 0.0  # some pruned paths
        # Force exact expected-position ties in half the rows.
        rows[::2] = np.round(rows[::2] * 4) / 4 + 0.25
        oracle = UncertaintyMeasure.evaluate_batch(measure, space, rows)
        np.testing.assert_allclose(
            measure.evaluate_batch(space, rows), oracle, rtol=0.0, atol=1e-9
        )


class _LeafCountMeasure(UncertaintyMeasure):
    """Custom measure without a batch override → exercises the fallback."""

    name = "leafcount"

    def __call__(self, space: OrderingSpace) -> float:
        return float(np.log2(space.size)) if space.size > 1 else 0.0


def test_generic_fallback_keeps_custom_measures_correct():
    space = random_space(5)
    evaluator = ResidualEvaluator(_LeafCountMeasure())
    questions = all_pair_questions(space)
    np.testing.assert_allclose(
        evaluator.rank_singles_batch(space, questions),
        rank_singles(evaluator, space, questions),
        rtol=0.0,
        atol=1e-12,
    )


@pytest.mark.parametrize("name", [*MEASURES.available(), "leafcount"])
def test_evaluate_restrictions_cells_match_path_masks(name):
    """Cell masks priced with ``cells=`` equal their expansion to paths."""
    rng = np.random.default_rng(41)
    measure = (
        _LeafCountMeasure() if name == "leafcount" else MEASURES.create(name)
    )
    for trial in range(4):
        space = random_space(10 + trial)
        n_cells = 6
        cells = rng.integers(0, n_cells, space.size)
        cell_masks = rng.random((9, n_cells)) < 0.6
        cell_masks[:, cells[0]] = True  # every row keeps some mass
        np.testing.assert_allclose(
            measure.evaluate_restrictions(space, cell_masks, cells=cells),
            measure.evaluate_restrictions(space, cell_masks[:, cells]),
            rtol=0.0,
            atol=1e-12,
        )


def _set_path_values(evaluator, space, codes, pattern_cap):
    """Both set paths on a few base sets (extensions and whole sets)."""
    values = []
    for base in ([], [0], [1, 4], [0, 2, 3, 5]):
        candidates = [c for c in range(codes.shape[1]) if c not in base]
        values.append(
            evaluator.rank_set_extensions(
                space, codes, base, candidates, pattern_cap
            )
        )
        values.append(
            [evaluator.set_residual_from_codes(
                space, codes[:, base + [candidates[0]]], pattern_cap
            )]
        )
    return np.concatenate(values)


@pytest.mark.parametrize("pattern_cap", [None, 4])
@pytest.mark.parametrize("name", MEASURES.available())
def test_set_paths_chunked_match_unchunked(name, pattern_cap, monkeypatch):
    """Three-row chunks of cell masks must not change set residuals
    (beyond the last ulp a differently-sized measure batch may round)."""
    space = engine_space("grid")
    evaluator = ResidualEvaluator(MEASURES.create(name))
    codes = evaluator.codes_matrix(space, all_pair_questions(space)[:8])
    whole = _set_path_values(evaluator, space, codes, pattern_cap)
    monkeypatch.setattr(residual_module, "_rows_per_chunk", lambda size: 3)
    chunked = _set_path_values(evaluator, space, codes, pattern_cap)
    np.testing.assert_allclose(chunked, whole, rtol=0.0, atol=1e-12)


@lru_cache(maxsize=None)
def _parity_space(kind: str) -> OrderingSpace:
    """A top-4 grid space, exact or beam-approximate (lost mass > 0)."""
    rng = np.random.default_rng(53)
    distributions = [Uniform(c, c + 0.4) for c in rng.random(8)]
    epsilon = 0.05 if kind == "beam" else 0.0
    builder = GridBuilder(resolution=64, beam_epsilon=epsilon)
    return builder.build(distributions, 4).to_space()


@given(kind=st.sampled_from(["grid", "beam"]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_term_path_matches_cell_path(kind, data):
    """One product per step prices every ``U_H`` extension like the cell
    path: base sets of size 0..B, empty candidate lists, all-silent
    candidates and zero-mass paths."""
    space = _parity_space(kind)
    codes = ResidualEvaluator(EntropyMeasure()).codes_matrix(
        space, all_pair_questions(space)[:9]
    )
    zeroed = data.draw(
        st.lists(st.integers(0, space.size - 1), max_size=space.size // 2)
    )
    if zeroed:
        probabilities = space.probabilities.copy()
        probabilities[zeroed] = 0.0
        if probabilities.sum() > 0.0:
            space = OrderingSpace(space.paths, probabilities, space.n_tuples)
    silent = data.draw(st.integers(0, 2))
    codes = np.hstack(
        (codes, np.zeros((space.size, silent), dtype=codes.dtype))
    )
    width = codes.shape[1]
    base = data.draw(
        st.lists(st.integers(0, width - 1), unique=True, max_size=width)
    )
    rest = [c for c in range(width) if c not in base]
    candidates = data.draw(
        st.lists(st.sampled_from(rest), unique=True) if rest else st.just([])
    )
    by_terms = ResidualEvaluator(EntropyMeasure())
    by_cells = ResidualEvaluator(CellEntropyMeasure())
    np.testing.assert_allclose(
        by_terms.rank_set_extensions(space, codes, base, candidates),
        by_cells.rank_set_extensions(space, codes, base, candidates),
        rtol=0.0,
        atol=1e-9,
    )
    assert by_terms.evaluations == by_cells.evaluations


@given(
    seed=st.integers(0, 2**16),
    absent=st.integers(0, 2),
    one_sided=st.integers(0, 3),
    zeroed=st.lists(st.integers(0, 40), max_size=8),
    chunk=st.integers(1, 3),
)
@settings(max_examples=80, deadline=None)
def test_singles_term_path_matches_mask_path(
    seed, absent, one_sided, zeroed, chunk
):
    """Singles priced from the ``U_H`` terms equal the mask path: silent
    columns (pairs of absent tuples), one-sided questions (every path of
    one stance at zero mass), zero-mass paths and small chunks."""
    rng = np.random.default_rng(seed)
    present, k = 6, 3
    paths = np.unique(
        np.array([rng.permutation(present)[:k] for _ in range(24)]), axis=0
    )
    probabilities = rng.random(paths.shape[0]) + 1e-3
    probabilities[[z for z in zeroed if z < paths.shape[0]]] = 0.0
    unweighted = OrderingSpace(paths, np.ones(paths.shape[0]), present)
    for i, j in rng.choice(present, size=(one_sided, 2), replace=True):
        if i != j:
            stance = unweighted.agreement_codes(i, j)
            probabilities[stance == rng.choice([-1, 1])] = 0.0
    if probabilities.sum() <= 0.0:
        probabilities[0] = 1.0
    n = present + absent
    space = OrderingSpace(paths, probabilities, n)
    questions = [Question(i, j) for i in range(n) for j in range(i + 1, n)]
    by_terms = ResidualEvaluator(EntropyMeasure())
    by_masks = ResidualEvaluator(CellEntropyMeasure())
    np.testing.assert_allclose(
        by_terms.rank_singles_batch(space, questions, chunk=chunk),
        by_masks.rank_singles_batch(space, questions, chunk=chunk),
        rtol=0.0,
        atol=1e-12,
    )
    assert by_terms.evaluations == by_masks.evaluations


def test_singles_term_path_prices_a_branch_at_rounding_level():
    """The no side holds half an ulp of the total, so ``totals − yes``
    rounds the no branch's kept total to zero; its value must stay
    finite and match the mask path."""
    space = OrderingSpace(
        np.array([[1, 0], [0, 1]]),
        np.array([5.50563672218929e-17, 0.9739844048523552]),
        2,
    )
    questions = [Question(0, 1)]
    by_terms = ResidualEvaluator(EntropyMeasure())
    by_masks = ResidualEvaluator(CellEntropyMeasure())
    values = by_terms.rank_singles_batch(space, questions)
    assert np.all(np.isfinite(values))
    np.testing.assert_allclose(
        values,
        by_masks.rank_singles_batch(space, questions),
        rtol=0.0,
        atol=1e-12,
    )
    assert by_terms.evaluations == by_masks.evaluations == 2


def test_capped_u_h_extensions_take_the_cell_path():
    """A ``pattern_cap`` cut ranks cells by mass, so ``U_H`` keeps the
    cell path there: bit-identical values and counts."""
    space = _parity_space("grid")
    by_terms = ResidualEvaluator(EntropyMeasure())
    by_cells = ResidualEvaluator(CellEntropyMeasure())
    codes = by_terms.codes_matrix(space, all_pair_questions(space)[:8])
    for base in ([], [0], [1, 4]):
        candidates = [c for c in range(8) if c not in base]
        np.testing.assert_array_equal(
            by_terms.rank_set_extensions(space, codes, base, candidates, 3),
            by_cells.rank_set_extensions(space, codes, base, candidates, 3),
        )
    assert by_terms.evaluations == by_cells.evaluations


@pytest.mark.parametrize("width", [0, 1, 38, 39, 40, 79])
def test_pattern_ids_equal_unique_rows(width):
    """Ids and row order equal ``np.unique(codes, axis=0)`` on either side
    of the 39-column key boundary (rows share most columns, so they
    differ late as well as early)."""
    rng = np.random.default_rng(width)
    templates = rng.integers(-1, 2, size=(5, width), dtype=np.int8)
    codes = templates[rng.integers(0, 5, 400)]
    if width:
        flipped = rng.random(400) < 0.5
        columns = rng.integers(0, width, 400)[flipped]
        codes[flipped, columns] = rng.integers(-1, 2, columns.size)
    ids, patterns = residual_module._pattern_ids(codes)
    expected, inverse = np.unique(codes, axis=0, return_inverse=True)
    np.testing.assert_array_equal(patterns, expected)
    np.testing.assert_array_equal(ids, inverse.ravel())


def test_set_extension_memory_with_many_candidates(monkeypatch):
    """48 candidates under the bound of the test below: candidates are
    chunked so the ``(L, C)`` ids and per-cell tables stay one chunk."""
    rng = np.random.default_rng(3)
    paths = np.unique(
        np.array([rng.permutation(14)[:5] for _ in range(5000)]), axis=0
    )
    space = OrderingSpace(paths, rng.random(paths.shape[0]) + 1e-3, 14)
    evaluator = ResidualEvaluator(MEASURES.create("H"))
    codes = evaluator.codes_matrix(space, all_pair_questions(space))
    base = list(range(0, 70, 7))
    candidates = [c for c in range(codes.shape[1]) if c not in base][:48]
    bound = 1 << 14  # elements per chunk of rows
    monkeypatch.setattr(
        residual_module,
        "_rows_per_chunk",
        lambda size: max(1, bound // max(size, 1)),
    )
    tracemalloc.start()
    try:
        evaluator.rank_set_extensions(space, codes, base, candidates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * bound * 8 + 64 * space.size


def test_set_extension_memory_stays_within_chunk_bound(monkeypatch):
    """With many base patterns, no temporary outgrows one chunk of cell
    masks: a full cell-by-cell table here would take ≥ 14 MB."""
    rng = np.random.default_rng(3)
    paths = np.unique(
        np.array([rng.permutation(14)[:5] for _ in range(5000)]), axis=0
    )
    space = OrderingSpace(paths, rng.random(paths.shape[0]) + 1e-3, 14)
    evaluator = ResidualEvaluator(MEASURES.create("H"))
    questions = all_pair_questions(space)
    base = list(range(0, 70, 7))
    candidates = [1, 2, 3]
    codes = evaluator.codes_matrix(space, questions)
    _, base_patterns = residual_module._pattern_ids(codes[:, base])
    n_cells = 3 * base_patterns.shape[0]
    assert n_cells**2 >= 14_000_000  # what a full table would hold
    bound = 1 << 14  # elements per chunk of rows
    monkeypatch.setattr(
        residual_module,
        "_rows_per_chunk",
        lambda size: max(1, bound // max(size, 1)),
    )
    tracemalloc.start()
    try:
        evaluator.rank_set_extensions(space, codes, base, candidates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A few chunk-sized temporaries plus O(L) index vectors.
    assert peak < 8 * bound * 8 + 64 * space.size


def test_evaluate_batch_rejects_bad_weights():
    space = random_space(6)
    measure = MEASURES.create("H")
    with pytest.raises(ValueError):
        measure.evaluate_batch(space, np.ones(space.size))  # 1-D
    with pytest.raises(ValueError):
        measure.evaluate_batch(space, np.ones((2, space.size + 1)))
    with pytest.raises(ValueError):
        measure.evaluate_batch(space, -np.ones((1, space.size)))
    with pytest.raises(ValueError):
        measure.evaluate_batch(space, np.zeros((1, space.size)))


@pytest.mark.parametrize("name", MEASURES.available())
def test_rank_singles_batch_chunked_matches_unchunked(name):
    """Tiny chunks (forcing many evaluate_restrictions calls and chunked
    mass matvecs) must not change values."""
    space = random_space(9)
    evaluator = ResidualEvaluator(MEASURES.create(name))
    questions = all_pair_questions(space)
    np.testing.assert_allclose(
        evaluator.rank_singles_batch(space, questions, chunk=3),
        rank_singles(evaluator, space, questions),
        rtol=0.0,
        atol=1e-9,
    )


def test_batch_counts_evaluations():
    space = random_space(7)
    evaluator = ResidualEvaluator(MEASURES.create("H"))
    before = evaluator.evaluations
    evaluator.rank_singles_batch(space, all_pair_questions(space))
    assert evaluator.evaluations > before


def test_codes_matrix_is_one_shot_stance_matrix():
    space = random_space(8)
    evaluator = ResidualEvaluator(MEASURES.create("H"))
    questions = all_pair_questions(space)
    codes = evaluator.codes_matrix(space, questions)
    assert codes.shape == (space.size, len(questions))
    for column, question in enumerate(questions):
        np.testing.assert_array_equal(
            codes[:, column], space.agreement_codes(question.i, question.j)
        )


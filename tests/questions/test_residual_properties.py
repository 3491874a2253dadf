"""Property-based tests for expected-residual-uncertainty invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.questions import Question, ResidualEvaluator
from repro.questions.candidates import informative_questions
from repro.tpo.space import OrderingSpace
from repro.uncertainty import EntropyMeasure

from oracles.question_pool import question_set


@st.composite
def spaces(draw):
    """Random weighted top-K prefix spaces over a small universe."""
    n = draw(st.integers(min_value=3, max_value=6))
    k = draw(st.integers(min_value=2, max_value=min(3, n)))
    count = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    paths = np.array([rng.permutation(n)[:k] for _ in range(count)])
    paths = np.unique(paths, axis=0)
    probs = rng.random(paths.shape[0]) + 1e-3
    return OrderingSpace(paths, probs, n)


@given(spaces())
@settings(max_examples=60, deadline=None)
def test_single_residual_never_exceeds_prior_entropy(space):
    """Conditioning cannot raise expected Shannon entropy: R_q ≤ U_H."""
    evaluator = ResidualEvaluator(EntropyMeasure())
    prior = evaluator.uncertainty(space)
    for question in informative_questions(space)[:6]:
        assert evaluator.single(space, question) <= prior + 1e-9


@given(spaces())
@settings(max_examples=40, deadline=None)
def test_question_set_monotone_in_inclusion(space):
    """Adding a question to a set never increases the expected entropy."""
    evaluator = ResidualEvaluator(EntropyMeasure())
    questions = informative_questions(space)
    if len(questions) < 2:
        return
    smaller = question_set(evaluator, space, questions[:1])
    larger = question_set(evaluator, space, questions[:2])
    assert larger <= smaller + 1e-9


@given(spaces())
@settings(max_examples=40, deadline=None)
def test_residual_non_negative(space):
    evaluator = ResidualEvaluator(EntropyMeasure())
    for question in informative_questions(space)[:4]:
        assert evaluator.single(space, question) >= -1e-12


@given(spaces(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_apply_answer_preserves_probability_mass(space, seed):
    """Both hard pruning and soft reweighting leave a normalized space."""
    rng = np.random.default_rng(seed)
    evaluator = ResidualEvaluator(EntropyMeasure())
    questions = informative_questions(space)
    if not questions:
        return
    question = questions[int(rng.integers(len(questions)))]
    holds = bool(rng.integers(2))
    for accuracy in (1.0, 0.8):
        updated = evaluator.apply_answer(space, question, holds, accuracy)
        assert abs(updated.probabilities.sum() - 1.0) < 1e-9


@given(spaces())
@settings(max_examples=40, deadline=None)
def test_all_pairs_resolve_to_zero_entropy(space):
    """Asking every informative pair pins the ordering (R → 0) whenever
    the decisive pattern distinguishes all paths."""
    evaluator = ResidualEvaluator(EntropyMeasure())
    questions = [
        Question(i, j)
        for i in range(space.n_tuples)
        for j in range(i + 1, space.n_tuples)
    ]
    residual = question_set(evaluator, space, questions)
    # Each path of a top-K prefix space induces a distinct stance pattern
    # over all pairs, so the partition isolates every path.
    assert residual <= 1e-9

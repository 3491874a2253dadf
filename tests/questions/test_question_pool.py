"""The session question pool against the per-pair candidate oracle.

A session keeps its pool's stance columns on every space it reaches:
``restrict`` selects their rows, ``reweight`` shares them, and each step
drops the columns that settled.  Whatever the walk, the live pool must
equal the oracle's ``Q_K`` in order, and its columns must equal a fresh
``stance_matrix`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import InteractiveSession
from repro.questions.candidates import (
    LiveQuestions,
    QuestionPool,
    relevant_questions,
)
from repro.questions.model import Question
from repro.tpo.builders import GridBuilder
from repro.tpo.space import OrderingSpace
from repro.workloads.synthetic import uniform_intervals

from oracles import question_pool as oracle

#: How a walk's space is built: the exact grid engine, or an anytime
#: beam that drops mass (its spaces carry ``lost_mass > 0``).
ENGINES = {
    "grid": lambda: GridBuilder(resolution=128),
    "beam": lambda: GridBuilder(resolution=128, beam_width=6),
}


def assert_pool_matches_oracle(session):
    space = session.space
    live = session.candidates()
    assert isinstance(live, LiveQuestions) and live.space is space
    assert list(live) == oracle.relevant_questions(space, session.distributions)
    fresh = space.stance_matrix([q.i for q in live], [q.j for q in live])
    assert live.stances.dtype == np.int8
    assert np.array_equal(live.stances, fresh)
    return live


@st.composite
def walks(draw):
    """An instance, an engine and a sequence of answer steps."""
    n = draw(st.integers(min_value=4, max_value=8))
    k = draw(st.integers(min_value=2, max_value=min(4, n)))
    width = draw(st.sampled_from([0.2, 0.4, 0.7]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    engine = draw(st.sampled_from(sorted(ENGINES)))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["prune", "noisy", "contradiction"]),
                st.integers(min_value=0, max_value=2**31 - 1),
            ),
            max_size=6,
        )
    )
    return n, k, width, seed, engine, steps


@given(walks())
@settings(max_examples=60, deadline=None)
def test_pool_tracks_the_oracle_along_any_walk(walk):
    n, k, width, seed, engine, steps = walk
    distributions = uniform_intervals(n, width=width, rng=seed)
    space = ENGINES[engine]().build(distributions, k).to_space()
    session = InteractiveSession(distributions, k, space)
    for kind, step_seed in steps:
        live = assert_pool_matches_oracle(session)
        rng = np.random.default_rng(step_seed)
        present = session.space.present_tuples()
        if len(present) < 2:
            break
        i, j = rng.choice(present, size=2, replace=False)
        question = Question(int(i), int(j))
        if kind == "prune" and live:
            question = live[int(rng.integers(len(live)))]
        holds = bool(rng.integers(2))
        if kind == "contradiction":
            # A reliable answer against every ordering: the evaluator
            # swallows it and the space stays as it was.
            codes = session.space.agreement_codes(question.i, question.j)
            if not (np.all(codes == 1) or np.all(codes == -1)):
                continue
            before = session.space
            session.submit_answer(question, bool(codes[0] == -1))
            assert session.space is before
            continue
        accuracy = 1.0 if kind == "prune" else float(rng.uniform(0.55, 0.95))
        if kind == "noisy" and live and rng.random() < 0.3:
            # Accuracy 0 zeroes the agreeing orderings' mass without
            # dropping them: settledness must ignore zero-mass rows.
            question, accuracy = live[int(rng.integers(len(live)))], 0.0
        session.submit_answer(question, holds, accuracy)
    assert_pool_matches_oracle(session)


@given(walks())
@settings(max_examples=30, deadline=None)
def test_one_shot_pools_match_the_oracle(walk):
    n, k, width, seed, engine, _ = walk
    distributions = uniform_intervals(n, width=width, rng=seed)
    space = ENGINES[engine]().build(distributions, k).to_space()
    for dists in (distributions, None):
        assert relevant_questions(space, dists) == oracle.relevant_questions(
            space, dists
        )


def test_attached_stances_follow_restrict_and_reweight(small_space):
    """Derived spaces inherit a pool's attached stances: ``restrict``
    keeps the selected rows (composed along a chain), ``reweight`` shares
    them.  A one-shot call attaches nothing."""
    pool = QuestionPool(small_space.present_tuples())
    live = pool.live(small_space)
    columns, stances = small_space.attached_rows(pool.key)
    assert stances is live.stances
    keep = small_space.agreement_codes(live[0].i, live[0].j) != -1
    child = small_space.restrict(keep)
    grandchild = child.restrict(np.arange(child.size) % 2 == 0)
    kept = np.flatnonzero(keep)[::2]
    assert np.array_equal(grandchild.attached_rows(pool.key)[1], stances[kept])
    assert grandchild.attached_rows(pool.key)[0] is columns
    heavier = small_space.reweight(np.linspace(1.0, 2.0, small_space.size))
    assert heavier.attached_rows(pool.key)[1] is stances
    fresh = OrderingSpace(
        small_space.paths, small_space.probabilities, small_space.n_tuples
    )
    assert relevant_questions(fresh) == list(live)
    assert fresh.attached_rows(pool.key) is None


@pytest.mark.parametrize("depth", [3, 130])
def test_stance_matrix_is_the_sign_of_the_rank_difference(depth):
    """Narrow positions (int8, or int16 from depth 127) give the stances
    the full-width comparison does."""
    rng = np.random.default_rng(depth)
    n = depth + 4
    paths = np.array([rng.permutation(n)[:depth] for _ in range(12)])
    space = OrderingSpace(paths, rng.random(12) + 0.1, n)
    i, j = np.triu_indices(n, 1)
    pos = space.positions()
    pi, pj = pos[:, i], pos[:, j]
    expected = np.where(pi < pj, 1, np.where(pj < pi, -1, 0))
    assert np.array_equal(space.stance_matrix(i, j), expected)
    assert np.array_equal(space.agreement_codes(0, 1), expected[:, 0])

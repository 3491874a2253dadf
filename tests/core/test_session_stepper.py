"""One session stepper behind every session loop.

The batch loop (``UncertaintyReductionSession``), a hand-driven
``InteractiveSession`` (the service's surface) and ``replay_session``
all step the same stepper, so the same spec yields the same answers and
the same final space whichever loop runs it — and sessions sharing one
cached space rank identically, also from concurrent threads.
"""

import sys
import threading

import numpy as np
import pytest

from repro.api import (
    BudgetSpec,
    InstanceSpec,
    MeasureSpec,
    PolicySpec,
    SessionSpec,
    prepare_session,
    replay_session,
)
from repro.core.session import InteractiveSession
from repro.service.cache import TPOCache
from repro.tpo.builders import GridBuilder
from repro.workloads.synthetic import uniform_intervals


def spec_for(policy, seed, budget=8):
    return SessionSpec(
        instance=InstanceSpec(n=8, k=4, seed=seed, params={"width": 0.4}),
        policy=PolicySpec(policy),
        measure=MeasureSpec("H"),
        budget=BudgetSpec(budget),
    )


def as_tuples(answers):
    return [(a.question.i, a.question.j, a.holds, a.accuracy) for a in answers]


def assert_same_space(a, b):
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.probabilities, b.probabilities)


def drive_by_hand(spec, inference):
    """The batch loop's T1-on steps, made through the service surface."""
    prepared = prepare_session(spec)
    session = prepared.session
    tree = session.builder.build(session.distributions, session.k)
    stepper = InteractiveSession(
        session.distributions,
        session.k,
        tree.to_space(),
        transitive_inference=inference,
    )
    while stepper.questions_asked < spec.budget.questions:
        question = stepper.next_question()
        if question is None:
            break
        inferred = stepper.infer(question)
        answer = inferred or prepared.crowd.ask(question)
        stepper.submit_answer(
            question, answer.holds, answer.accuracy, inferred=inferred is not None
        )
    return stepper


@pytest.mark.parametrize("inference", [False, True])
@pytest.mark.parametrize("policy", ["T1-on", "random", "naive"])
@pytest.mark.parametrize("seed", [2, 5, 9])
def test_every_loop_reaches_the_same_state(policy, inference, seed):
    spec = spec_for(policy, seed)
    prepared = prepare_session(spec)
    prepared.session.use_transitive_inference = inference
    result = prepared.run()
    replay = replay_session(spec, as_tuples(result.answers))
    assert_same_space(replay.space, result.final_space)
    assert replay.orderings[-1] == result.orderings_final
    if policy == "T1-on":
        stepper = drive_by_hand(spec, inference)
        assert as_tuples(stepper.answers) == as_tuples(result.answers)
        assert_same_space(stepper.space, result.final_space)


def test_inference_answers_for_free_without_changing_the_outcome():
    """Under a reliable crowd an implied answer prunes nothing, so the
    charged answers replay to the state the session reached."""
    spec = spec_for("random", seed=3, budget=20)
    prepared = prepare_session(spec)
    prepared.session.use_transitive_inference = True
    result = prepared.run()
    assert result.inferred_answers > 0
    assert_same_space(
        replay_session(spec, as_tuples(result.answers)).space,
        result.final_space,
    )


def rankings_along(session, truth, steps=5):
    """Each step's full ranking, then answer its pick truthfully."""
    seen = []
    for _ in range(steps):
        candidates, residuals = session.ranking()
        seen.append((list(candidates), residuals.copy()))
        question = session.next_question((candidates, residuals))
        if question is None:
            break
        session.submit_answer(question, truth.holds(question))
    return seen


def test_threads_sharing_a_cached_space_rank_identically():
    """Sessions on one shared space read and replace its pool stances
    concurrently; every thread must still rank exactly as a lone session
    on a private build does."""
    from repro.crowd.oracle import GroundTruth

    distributions = uniform_intervals(9, width=0.4, rng=4)
    truth = GroundTruth.sample(distributions, rng=1)
    builder = GridBuilder(resolution=256)
    reference = rankings_along(
        InteractiveSession(
            distributions, 4, builder.build(distributions, 4).to_space()
        ),
        truth,
    )
    cached = TPOCache().get_space(
        "k1", distributions, lambda: builder.build(distributions, 4)
    )
    unwarmed = builder.build(distributions, 4).to_space()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for shared in (cached, unwarmed):
            barrier = threading.Barrier(4)
            seen = [None] * 4

            def run(slot, shared=shared, barrier=barrier, seen=seen):
                session = InteractiveSession(distributions, 4, shared)
                barrier.wait(timeout=30)
                seen[slot] = rankings_along(session, truth)

            threads = [
                threading.Thread(target=run, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for observed in seen:
                assert observed is not None and len(observed) == len(reference)
                for (questions, residuals), (want_q, want_r) in zip(
                    observed, reference, strict=True
                ):
                    assert questions == want_q
                    assert np.array_equal(residuals, want_r)
    finally:
        sys.setswitchinterval(interval)

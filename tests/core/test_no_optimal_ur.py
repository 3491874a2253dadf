"""Executable version of Theorem 3.1: no deterministic UR algorithm is optimal.

The theorem says: no deterministic uncertainty-reduction algorithm asks a
*minimal* sequence of questions for every ground truth.  The proof idea is
adversarial — whatever first question a deterministic algorithm commits to,
some ground truth makes that question wasteful while a clairvoyant
questioner (who may pick a different first question per world) finishes
faster.

This test constructs a concrete three-tuple instance and verifies the
adversarial argument computationally: for every possible first question
there exists a world in which the remaining uncertainty still needs 2 more
questions, while for that same world a different question order resolves
everything in 2 questions total.
"""

import itertools

import pytest

from repro.questions import Question
from repro.tpo.space import DegenerateSpaceError, OrderingSpace

from oracles.spaces import space_from_orderings


@pytest.fixture
def full_permutation_space():
    """All 6 orderings of 3 tuples, uniform — maximal uncertainty."""
    paths = list(itertools.permutations(range(3)))
    return space_from_orderings(paths, [1 / 6] * 6, 3)


def questions_to_resolve(space, world):
    """Minimum #questions a clairvoyant asker needs to isolate ``world``.

    Brute-force over question sequences (the instance is tiny): the answer
    to each question is determined by ``world``; we search for the shortest
    prefix of questions whose answers leave exactly one ordering.
    """
    pool = [Question(i, j) for i in range(3) for j in range(i + 1, 3)]
    rank = {t: r for r, t in enumerate(world)}

    def answer(question):
        return rank[question.i] < rank[question.j]

    for length in range(0, len(pool) + 1):
        for sequence in itertools.permutations(pool, length):
            current = space
            try:
                for question in sequence:
                    current = current.condition(
                        question.i, question.j, answer(question)
                    )
            except DegenerateSpaceError:
                continue
            if current.is_certain:
                return length
    return len(pool)


def test_every_world_resolvable_in_two_questions(full_permutation_space):
    """A clairvoyant asker always finishes 3 tuples in 2 questions."""
    for world in itertools.permutations(range(3)):
        assert questions_to_resolve(full_permutation_space, world) == 2


def test_no_fixed_first_question_is_universally_minimal(
    full_permutation_space,
):
    """Theorem 3.1, adversarial step.

    For every deterministic first question q there is a world for which q
    was not part of ANY minimal resolving set — the algorithm then needs 3
    questions where the optimum is 2.
    """
    pool = [Question(0, 1), Question(0, 2), Question(1, 2)]
    for first in pool:
        adversarial_world_found = False
        for world in itertools.permutations(range(3)):
            rank = {t: r for r, t in enumerate(world)}
            holds = rank[first.i] < rank[first.j]
            after_first = full_permutation_space.condition(
                first.i, first.j, holds
            )
            # Best completion after committing to `first`:
            remaining_needed = questions_to_resolve(after_first, world)
            total_with_first = 1 + remaining_needed
            optimum = questions_to_resolve(full_permutation_space, world)
            if total_with_first > optimum:
                adversarial_world_found = True
                break
        assert adversarial_world_found, (
            f"first question {first} is universally minimal — "
            "Theorem 3.1 would be violated on this instance"
        )


def test_adaptive_beats_worst_case_fixed_order(full_permutation_space):
    """Sanity companion: an adaptive strategy exists with worst case 2,
    while any fixed (oblivious) 2-question set fails for some world."""
    pool = [Question(0, 1), Question(0, 2), Question(1, 2)]
    for fixed_pair in itertools.combinations(pool, 2):
        some_world_unresolved = False
        for world in itertools.permutations(range(3)):
            rank = {t: r for r, t in enumerate(world)}
            current = full_permutation_space
            for question in fixed_pair:
                holds = rank[question.i] < rank[question.j]
                current = current.condition(question.i, question.j, holds)
            if not current.is_certain:
                some_world_unresolved = True
                break
        assert some_world_unresolved, (
            f"fixed batch {fixed_pair} resolves every world — "
            "offline batches would be as strong as adaptive questioning"
        )

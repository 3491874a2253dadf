"""Top-K query processing over uncertain tables.

The user-facing entry points of the library:

* :func:`topk` — evaluate a top-K query, returning the full uncertain
  answer (the TPO, the ordering space, uncertainty diagnostics, candidate
  crowd questions);
* :func:`crowdsourced_topk` — the paper's end-to-end loop: evaluate,
  then spend a crowd budget with a selection policy to shrink the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.policies.base import Policy
from repro.core.session import SessionResult, UncertaintyReductionSession
from repro.crowd.simulator import SimulatedCrowd
from repro.db.scoring import ScoringFunction
from repro.db.table import UncertainTable
from repro.distributions.base import ScoreDistribution
from repro.questions.candidates import relevant_questions
from repro.questions.model import Question
from repro.api.catalog import ENGINES
from repro.tpo.builders import TPOBuilder
from repro.tpo.space import OrderingSpace
from repro.tpo.tree import TPOTree
from repro.uncertainty.base import UncertaintyMeasure
from repro.uncertainty.entropy import EntropyMeasure
from repro.utils.rng import SeedLike


@dataclass
class TopKResult:
    """The uncertain answer of a top-K query."""

    table: UncertainTable
    k: int
    distributions: List[ScoreDistribution]
    tree: TPOTree
    space: OrderingSpace
    uncertainty: float
    questions: List[Question]

    def ranked_keys(self) -> List[str]:
        """Keys of the most probable top-K ordering."""
        return [self.table[i].key for i in self.space.most_probable_ordering()]

    def ordering_keys(self, ordering: Sequence[int]) -> List[str]:
        """Translate an ordering of indices into row keys."""
        return [self.table[int(i)].key for i in ordering]

    def describe(self) -> str:
        """Human-readable digest of the uncertain answer."""
        lines = [
            f"top-{self.k} over {self.table.name!r} "
            f"({len(self.table)} tuples): {self.space.size} possible orderings, "
            f"uncertainty={self.uncertainty:.4f}",
            f"most probable: {' > '.join(self.ranked_keys())}",
            f"{len(self.questions)} relevant crowd questions",
        ]
        return "\n".join(lines)


def topk(
    table: UncertainTable,
    k: int,
    scoring: Optional[ScoringFunction] = None,
    attribute: Optional[str] = None,
    engine: str = "grid",
    measure: Optional[UncertaintyMeasure] = None,
    builder: Optional[TPOBuilder] = None,
    **engine_kwargs,
) -> TopKResult:
    """Evaluate an uncertain top-K query.

    Scores come from ``attribute`` (a column holding the score) or from a
    ``scoring`` function over attributes.  ``engine`` picks the TPO builder
    (``grid``/``exact``/``mc``) unless an explicit ``builder`` is given.
    """
    if len(table) == 0:
        raise ValueError("cannot query an empty table")
    distributions = table.score_distributions(scoring=scoring, attribute=attribute)
    if builder is None:
        builder = ENGINES.create(engine, **engine_kwargs)
    tree = builder.build(distributions, k)
    space = tree.to_space()
    measure = measure if measure is not None else EntropyMeasure()
    return TopKResult(
        table=table,
        k=tree.k,
        distributions=distributions,
        tree=tree,
        space=space,
        uncertainty=measure(space),
        questions=relevant_questions(space, distributions),
    )


def crowdsourced_topk(
    table: UncertainTable,
    k: int,
    budget: int,
    policy: Policy,
    crowd: SimulatedCrowd,
    scoring: Optional[ScoringFunction] = None,
    attribute: Optional[str] = None,
    engine: str = "grid",
    measure: Optional[UncertaintyMeasure] = None,
    rng: SeedLike = None,
    track_trajectory: bool = False,
) -> SessionResult:
    """Run the paper's full loop: top-K query + crowd uncertainty reduction.

    Returns the :class:`SessionResult` with the final (possibly unique)
    ordering space and all accounting.
    """
    distributions = table.score_distributions(scoring=scoring, attribute=attribute)
    session = UncertaintyReductionSession(
        distributions,
        k,
        crowd,
        builder=ENGINES.create(engine),
        measure=measure,
        rng=rng,
        track_trajectory=track_trajectory,
    )
    return session.run(policy, budget)


__all__ = ["TopKResult", "topk", "crowdsourced_topk"]

"""Diagnostics over trees and spaces of possible orderings.

Answering "why is this query so uncertain?" needs more than a scalar
measure.  These helpers decompose a TPO's uncertainty the way a DBA would
want to see it: per level, per workload, and per potential crowd question —
they power the example scripts and are handy in notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import ScoreDistribution
from repro.distributions.ops import overlap_matrix
from repro.tpo.space import OrderingSpace

# NOTE: repro.questions and repro.uncertainty import repro.tpo.space, so
# importing them at module scope from inside the repro.tpo package would be
# circular; they are imported lazily inside the functions below.

if False:  # pragma: no cover - typing aid only
    from repro.questions.model import Question  # noqa: F401
    from repro.uncertainty.base import UncertaintyMeasure  # noqa: F401


@dataclass
class SpaceProfile:
    """A structured uncertainty report for one ordering space."""

    orderings: int
    depth: int
    entropy: float
    level_entropies: List[float]
    effective_orderings: float
    contested_pairs: int
    most_uncertain_rank: int

    def format(self) -> str:
        """Multi-line human-readable rendering."""
        per_level = ", ".join(
            f"L{idx + 1}={value:.2f}"
            for idx, value in enumerate(self.level_entropies)
        )
        return "\n".join(
            [
                f"orderings:            {self.orderings}",
                f"entropy (bits):       {self.entropy:.3f}",
                f"effective orderings:  {self.effective_orderings:.1f}",
                f"per-level entropy:    {per_level}",
                f"contested pairs:      {self.contested_pairs}",
                f"most uncertain rank:  {self.most_uncertain_rank}",
            ]
        )


def profile_space(space: OrderingSpace) -> SpaceProfile:
    """Compute the standard diagnostic profile of a space.

    ``effective_orderings`` is the entropy-equivalent count ``2^H`` —
    "how many equally-likely orderings this space is worth"; the *most
    uncertain rank* is the level whose prefix distribution has maximal
    entropy (where crowd effort is most needed).
    """
    from repro.questions.candidates import informative_questions
    from repro.uncertainty.entropy import shannon_entropy

    level_entropies = []
    for level in range(1, space.depth + 1):
        _, masses = space.prefix_groups(level)
        level_entropies.append(shannon_entropy(masses))
    marginal_gain = np.diff([0.0] + level_entropies)
    entropy = shannon_entropy(space.probabilities)
    return SpaceProfile(
        orderings=space.size,
        depth=space.depth,
        entropy=entropy,
        level_entropies=level_entropies,
        effective_orderings=float(2.0**entropy),
        contested_pairs=len(informative_questions(space)),
        most_uncertain_rank=int(np.argmax(marginal_gain)) + 1,
    )


def question_impact_table(
    space: OrderingSpace,
    measure: Optional["UncertaintyMeasure"] = None,
    top: int = 10,
) -> List[Tuple["Question", float, float]]:
    """Rank candidate questions by expected uncertainty reduction.

    Returns ``(question, expected_residual, reduction)`` rows, most
    valuable first — the "what should I ask the crowd" report.
    """
    from repro.questions.candidates import informative_questions
    from repro.questions.residual import ResidualEvaluator
    from repro.uncertainty.entropy import EntropyMeasure

    measure = measure if measure is not None else EntropyMeasure()
    evaluator = ResidualEvaluator(measure)
    current = evaluator.uncertainty(space)
    rows = []
    for question in informative_questions(space):
        residual = evaluator.single(space, question)
        rows.append((question, residual, current - residual))
    rows.sort(key=lambda row: row[1])
    return rows[:top]


def overlap_statistics(
    distributions: Sequence[ScoreDistribution],
) -> Dict[str, float]:
    """Workload-level overlap summary (pre-TPO uncertainty forecast)."""
    overlap = overlap_matrix(distributions)
    n = len(distributions)
    pairs = n * (n - 1) / 2
    overlapping = float(np.triu(overlap, k=1).sum())
    degrees = overlap.sum(axis=1)
    return {
        "tuples": float(n),
        "overlapping_pairs": overlapping,
        "overlap_fraction": overlapping / pairs if pairs else 0.0,
        "max_overlap_degree": float(degrees.max(initial=0.0)),
        "mean_overlap_degree": float(degrees.mean()) if n else 0.0,
    }


__all__ = [
    "SpaceProfile",
    "profile_space",
    "question_impact_table",
    "overlap_statistics",
]

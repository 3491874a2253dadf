"""Ranking distances and rank aggregation."""

from repro.rank.aggregation import (
    AggregationCosts,
    borda_aggregation,
    copeland_aggregation,
    exact_aggregation,
    kwiksort_aggregation,
    local_search,
    optimal_rank_aggregation,
)
from repro.rank.kendall import (
    DEFAULT_PENALTY,
    expected_topk_distance,
    kendall_tau,
    max_topk_distance,
    spearman_footrule,
    stance_marginals,
    topk_kendall,
)

__all__ = [
    "DEFAULT_PENALTY",
    "kendall_tau",
    "topk_kendall",
    "max_topk_distance",
    "spearman_footrule",
    "stance_marginals",
    "expected_topk_distance",
    "AggregationCosts",
    "borda_aggregation",
    "copeland_aggregation",
    "kwiksort_aggregation",
    "local_search",
    "exact_aggregation",
    "optimal_rank_aggregation",
]

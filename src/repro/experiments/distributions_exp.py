"""DIST — non-uniform score distributions (§IV prose claim).

The paper reports that the proposed algorithms "work also with non-uniform
tuple score distributions".  This experiment runs ``T1-on`` and the
``Naive`` baseline over uniform, Gaussian, triangular, and heavy-tailed
(Pareto) score models.

Expected shape: T1-on beats Naive under every distribution family; the
Pareto workload starts from a lower initial distance (a few tuples dominate
outright) while clustered Gaussians are the hard case.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import ResultTable, format_series, spec_cells

#: Workload families and their generator parameters.
WORKLOADS: Dict[str, Dict] = {
    "uniform": {"width": 0.2},
    "gaussian": {"sigma": 0.07},
    "triangular": {"width": 0.25},
    "pareto": {"shape": 1.5},
}

POLICIES = {"T1-on": {}, "naive": {}}

#: Per profile: instance size and engine, repetitions, budgets.  At the
#: full size every Pareto tree overflows the exact grid's ordering cap
#: (level 5 of K=8 already holds > 200,000 orderings, and a 1e-3
#: per-level ``beam_epsilon`` does not bring it under), so the full
#: profile builds every family with a width-capped anytime beam.
FAST = ({"n": 10, "k": 5}, 2, [0, 5, 10])
FULL = (
    {"n": 15, "k": 8, "engine_params": {"resolution": 800, "beam_width": 20000}},
    3,
    [0, 5, 10, 20],
)


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the DIST grid: policies × budgets per workload family."""
    size, reps, budgets = FAST if fast else FULL
    cells = []
    for workload, params in WORKLOADS.items():
        for policy_name, policy_params in POLICIES.items():
            cells.extend(
                spec_cells(
                    "DIST",
                    {policy_name: policy_params},
                    budgets,
                    reps,
                    tags={
                        "workload": workload,
                        "arm": f"{workload}/{policy_name}",
                    },
                    workload=workload,
                    params=params,
                    **size,
                )
            )
    return ExperimentGrid("DIST", cells)


def report(table: ResultTable) -> str:
    """Distance vs budget per workload × policy."""
    aggregated = table.aggregate(["arm", "budget"], ["distance"])
    series = aggregated.pivot("arm", "budget", "distance")
    return (
        "DIST  D(omega_r, T_K) vs budget across score distributions\n"
        + format_series(series)
    )

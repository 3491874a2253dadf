"""ASTAR — A*-based algorithms vs. the fast algorithms (§IV prose claim).

The paper: ``T1-on`` and ``C-off`` are "nearly as good as with the A*-based
algorithms, but at a fraction of the cost".  This experiment runs all five
proposed algorithms on deliberately small instances (A* is exponential) and
reports quality and cost side by side.

Expected shape: distances within a few percent of each other; A* cost one
or more orders of magnitude above ``T1-on``/``TB-off``.
"""

from __future__ import annotations

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import ResultTable, spec_cells

POLICIES = {
    "A*-off": {"max_expansions": 3000},
    "A*-on": {"max_expansions": 1500},
    "C-off": {},
    "TB-off": {},
    "T1-on": {},
}

#: Per profile: instance fields, repetitions, budgets.
FAST = ({"n": 9, "k": 4, "params": {"width": 0.25}}, 2, [3])
FULL = ({"n": 10, "k": 5, "params": {"width": 0.25}}, 3, [2, 4, 6])


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the ASTAR grid: five policies × budgets × repetitions."""
    instance, reps, budgets = FAST if fast else FULL
    return ExperimentGrid(
        "ASTAR", spec_cells("ASTAR", POLICIES, budgets, reps, **instance)
    )


def report(table: ResultTable) -> str:
    """Quality + cost per algorithm and budget."""
    aggregated = table.aggregate(
        ["policy", "budget"], ["distance", "uncertainty", "evaluations", "cpu"]
    )
    aggregated.rows.sort(key=lambda r: (r["budget"], r["distance"]))
    return "ASTAR  quality vs cost of the A*-based algorithms\n" + (
        aggregated.format(
            [
                "policy",
                "budget",
                "distance",
                "uncertainty",
                "evaluations",
                "cpu",
                "reps",
            ]
        )
    )

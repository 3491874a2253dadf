"""NOISE — noisy crowd workers (§III-C / §IV prose claim).

With worker accuracy below 1 no pruning is possible; answers Bayesian-
reweight the ordering probabilities instead.  This experiment runs
``T1-on`` under decreasing worker accuracies, plus a replicated-voting
configuration, and reports the distance-vs-budget decay.

Expected shape: lower accuracy ⇒ slower decay (each answer carries less
evidence) but still monotone improvement; 3-way majority voting at
accuracy 0.8 behaves like a single ≈0.9 worker while costing 3 assignments
per question.
"""

from __future__ import annotations

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import ResultTable, format_series, spec_cells

ACCURACIES = [1.0, 0.9, 0.8, 0.7]

#: Per profile: instance fields, repetitions, budgets.
FAST = ({"n": 10, "k": 5, "params": {"width": 0.3}}, 2, [0, 5, 10])
FULL = ({"n": 15, "k": 8, "params": {"width": 0.18}}, 4, [0, 5, 10, 20, 30])

#: Replication used in the majority-voting arm (worker accuracy 0.8).
VOTING_REPLICATION = 3


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the NOISE grid: one T1-on block per accuracy arm."""
    instance, reps, budgets = FAST if fast else FULL
    arms = [(f"p={accuracy:g}", accuracy, 1) for accuracy in ACCURACIES]
    arms.append(("p=0.8 x3 vote", 0.8, VOTING_REPLICATION))
    cells = []
    for arm, accuracy, replication in arms:
        cells.extend(
            spec_cells(
                "NOISE",
                {"T1-on": None},
                budgets,
                reps,
                tags={"arm": arm},
                accuracy=accuracy,
                replication=replication,
                **instance,
            )
        )
    return ExperimentGrid("NOISE", cells)


def report(table: ResultTable) -> str:
    """Distance vs budget per accuracy arm."""
    aggregated = table.aggregate(["arm", "budget"], ["distance"])
    series = aggregated.pivot("arm", "budget", "distance")
    return (
        "NOISE  D(omega_r, T_K) vs budget under noisy workers (T1-on)\n"
        + format_series(series)
    )

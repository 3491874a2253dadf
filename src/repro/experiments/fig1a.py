"""FIG1A — Figure 1(a): distance to the real ordering vs. budget.

Reproduces the paper's headline quality plot: the expected normalized
distance ``D(ω_r, T_K)`` after spending a budget ``B`` of crowd questions,
for the fast algorithms (``T1-on``, ``TB-off``, ``C-off``, ``incr``) against
the ``Naive`` and ``Random`` baselines.

Expected shape (paper): all proposed algorithms decay far faster than the
baselines; ``T1-on`` and ``C-off`` are best and reach ~0 within the budget
range; ``incr`` tracks them closely at a fraction of the cost; ``Random``
barely moves.
"""

from __future__ import annotations

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import ResultTable, format_series, spec_cells

#: Algorithms of Figure 1(a), with per-policy constructor arguments.
POLICIES = {
    "T1-on": {},
    "TB-off": {},
    "C-off": {},
    "incr": {"round_size": 5},
    "naive": {},
    "random": {},
}

#: Per profile: instance fields, repetitions, budgets.
FAST = ({"n": 12, "k": 6, "params": {"width": 0.26}}, 2, [0, 5, 10, 20])
FULL = (
    {"n": 20, "k": 10, "params": {"width": 0.15}},
    5,
    [0, 5, 10, 20, 30, 40, 50],
)


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the FIG1A grid: policies × budgets × repetitions."""
    instance, reps, budgets = FAST if fast else FULL
    return ExperimentGrid(
        "FIG1A", spec_cells("FIG1A", POLICIES, budgets, reps, **instance)
    )


def report(table: ResultTable) -> str:
    """The figure as text: mean distance per (policy, budget)."""
    aggregated = table.aggregate(["policy", "budget"], ["distance"])
    series = aggregated.pivot("policy", "budget", "distance")
    return (
        "FIG1A  D(omega_r, T_K) vs budget B (mean over repetitions)\n"
        + format_series(series)
    )

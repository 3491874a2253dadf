"""FIG1B — Figure 1(b): cost vs. budget.

Reproduces the paper's cost plot for the same algorithms as Figure 1(a)
minus the baselines (whose selection cost is trivially near zero), as the
budget grows.  Cost is reported two ways: residual evaluations (the
deterministic count the paper's ordering claims are gated on) and CPU
seconds of TPO construction + question selection + pruning.

Expected shape (paper): ``C-off`` is the most expensive and grows steeply
with B (its joint-residual evaluations deepen); ``TB-off`` and ``T1-on``
sit orders of magnitude below; ``incr`` is cheapest of all because it never
materializes the full tree.  Absolute seconds differ from the paper's
testbed; the ordering and growth trends are the reproduction target.
"""

from __future__ import annotations

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import ResultTable, format_series, spec_cells

POLICIES = {
    "T1-on": {},
    "TB-off": {},
    "C-off": {},
    "incr": {"round_size": 5},
}

#: Per profile: instance fields, repetitions, budgets.
FAST = ({"n": 12, "k": 6, "params": {"width": 0.26}}, 2, [5, 10, 20])
FULL = (
    {"n": 20, "k": 10, "params": {"width": 0.15}},
    3,
    [5, 10, 20, 30, 40, 50],
)


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the FIG1B grid: policies × budgets × repetitions."""
    instance, reps, budgets = FAST if fast else FULL
    return ExperimentGrid(
        "FIG1B", spec_cells("FIG1B", POLICIES, budgets, reps, **instance)
    )


def report(table: ResultTable) -> str:
    """The figure as text: mean evaluations and CPU per (policy, budget)."""
    aggregated = table.aggregate(["policy", "budget"], ["evaluations", "cpu"])
    return "\n".join(
        [
            "FIG1B  residual evaluations vs budget B (mean over repetitions)",
            format_series(
                aggregated.pivot("policy", "budget", "evaluations"),
                value_format="{:.0f}",
            ),
            "",
            "CPU seconds vs budget B:",
            format_series(
                aggregated.pivot("policy", "budget", "cpu"),
                value_format="{:.3g}",
            ),
        ]
    )

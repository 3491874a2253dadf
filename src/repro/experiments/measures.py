"""MEAS — uncertainty-measure comparison (§IV prose claim).

The paper observes that measures aware of the tree's *structure*
(``U_MPO``, ``U_Hw``, ``U_ORA``) outperform the state-of-the-art leaf
entropy ``U_H`` when used as the objective driving question selection.
This experiment runs ``T1-on`` with each measure as its objective and
compares the final distance to the real ordering at equal budgets.

Expected shape: ``Hw``/``ORA``/``MPO`` reach a lower distance than ``H``
for small-to-medium budgets (they spend questions on the ranks that matter).
"""

from __future__ import annotations

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import ResultTable, format_series, spec_cells

MEASURES = ["H", "Hw", "ORA", "MPO"]

#: Per profile: instance fields, repetitions, budgets.
FAST = ({"n": 12, "k": 6, "params": {"width": 0.26}}, 3, [4, 8, 12])
FULL = ({"n": 16, "k": 8, "params": {"width": 0.18}}, 4, [5, 10, 15, 20])


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the MEAS grid: one T1-on block per driving measure."""
    instance, reps, budgets = FAST if fast else FULL
    cells = []
    for measure in MEASURES:
        cells.extend(
            spec_cells(
                "MEAS",
                {"T1-on": None},
                budgets,
                reps,
                tags={"measure": measure},
                measure=measure,
                **instance,
            )
        )
    return ExperimentGrid("MEAS", cells)


def report(table: ResultTable) -> str:
    """Mean final distance per (measure, budget)."""
    aggregated = table.aggregate(["measure", "budget"], ["distance"])
    series = aggregated.pivot("measure", "budget", "distance")
    return (
        "MEAS  final D(omega_r, T_K) by driving measure (T1-on)\n"
        + format_series(series)
    )

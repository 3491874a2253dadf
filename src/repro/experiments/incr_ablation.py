"""INCR — round-size ablation of the incremental algorithm (§III-D).

``incr`` poses ``n`` questions per round between tree extensions;
``n = 1`` approaches fully online behaviour (best information per
question, most interaction rounds), ``n = B`` a single offline batch.
This experiment sweeps ``n`` at a fixed budget and reports quality and
cost, plus the full-construction ``T1-on`` for reference.

Expected shape: quality degrades mildly as ``n`` grows; cost stays far
below the full-tree algorithms for all ``n`` (the paper's "much lower CPU
times … with slightly lower quality").
"""

from __future__ import annotations

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import ResultTable, spec_cells

#: Per profile: instance fields, repetitions, budget, incr round sizes.
FAST = ({"n": 14, "k": 7, "params": {"width": 0.2}}, 2, 12, [1, 4, 12])
FULL = (
    {"n": 20, "k": 10, "params": {"width": 0.15}},
    4,
    30,
    [1, 2, 5, 10, 30],
)


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the INCR grid: the round-size sweep plus the T1-on ceiling."""
    instance, reps, budget, round_sizes = FAST if fast else FULL
    cells = []
    for n in round_sizes:
        cells.extend(
            spec_cells(
                "INCR",
                {"incr": {"round_size": n}},
                [budget],
                reps,
                tags={"arm": f"incr n={n}"},
                **instance,
            )
        )
    cells.extend(
        spec_cells(
            "INCR",
            {"T1-on": None},
            [budget],
            reps,
            tags={"arm": "T1-on (full tree)"},
            **instance,
        )
    )
    return ExperimentGrid("INCR", cells)


def report(table: ResultTable) -> str:
    """Distance and cost per arm at the fixed budget."""
    aggregated = table.aggregate(
        ["arm"], ["distance", "evaluations", "cpu", "asked"]
    )
    aggregated.rows.sort(key=lambda r: r["evaluations"])
    return "INCR  round-size ablation at fixed budget\n" + aggregated.format(
        ["arm", "distance", "evaluations", "cpu", "asked", "reps"]
    )

"""Per-figure reproduction drivers and the grid machinery that runs them.

:data:`EXPERIMENTS` maps each experiment id to its driver module.  A
driver exposes ``grid(fast) -> ExperimentGrid`` (its cells, each one
:class:`~repro.api.specs.SessionSpec` run by
:func:`~repro.experiments.harness.run_spec_cell`) and ``report(table) ->
str`` (the figure as text).  Execution — serial or process-pool fan-out
with a durable, resumable JSON-lines store — lives in
:mod:`repro.experiments.runner` / :mod:`repro.experiments.store`; the
``repro experiment`` verb runs grids, and ``repro eval --suite paper``
gates the paper's claims on them.
"""

from repro.experiments import (
    astar_comparison,
    distributions_exp,
    fig1a,
    fig1b,
    incr_ablation,
    measures,
    noisy,
    scalability,
    transitive_ablation,
)
from repro.experiments.grid import ExperimentGrid, GridCell
from repro.experiments.harness import (
    ResultTable,
    format_series,
    run_spec_cell,
    session_spec,
)
from repro.experiments.runner import GridRunReport, run_grid
from repro.experiments.store import ResultStore

#: Experiment id → driver module.
EXPERIMENTS = {
    "FIG1A": fig1a,
    "FIG1B": fig1b,
    "MEAS": measures,
    "ASTAR": astar_comparison,
    "NOISE": noisy,
    "DIST": distributions_exp,
    "INCR": incr_ablation,
    "SCALE": scalability,
    "TRANS": transitive_ablation,
}

__all__ = [
    "ExperimentGrid",
    "GridCell",
    "GridRunReport",
    "ResultStore",
    "ResultTable",
    "format_series",
    "run_grid",
    "run_spec_cell",
    "session_spec",
    "EXPERIMENTS",
    "fig1a",
    "fig1b",
    "measures",
    "astar_comparison",
    "noisy",
    "distributions_exp",
    "incr_ablation",
    "scalability",
    "transitive_ablation",
]

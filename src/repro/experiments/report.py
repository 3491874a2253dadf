"""Consolidated experiment reporting.

Renders the tables :func:`~repro.experiments.runner.run_grid` produced
into one Markdown document, one section per experiment, and optionally
dumps each table's raw rows as CSV.  Used by ``python -m repro
experiment all --output report.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional

from repro.experiments.runner import GridRunReport


def run_report(
    reports: Mapping[str, GridRunReport],
    fast: bool = True,
    output: Optional[str] = None,
    csv_dir: Optional[str] = None,
) -> str:
    """Render grid-run reports as Markdown; optionally write it out.

    Parameters
    ----------
    reports:
        Experiment id (a key of ``repro.experiments.EXPERIMENTS``) →
        the :class:`GridRunReport` of its grid.
    fast:
        Which profile the grids ran, for the document header.
    output:
        Path to write the Markdown document to.
    csv_dir:
        Directory for per-experiment raw CSV dumps.
    """
    from repro.experiments import EXPERIMENTS

    lines = [
        "# Reproduction report",
        "",
        f"Profile: **{'fast' if fast else 'full'}**. "
        "Generated by `repro.experiments.report`.",
        "",
    ]
    for name, grid_report in reports.items():
        table = grid_report.table
        if csv_dir is not None:
            table.to_csv(Path(csv_dir) / f"{name.lower()}.csv")
        lines += [
            f"## {name}",
            "",
            f"_{len(table)} records, {grid_report.wall_seconds:.1f}s wall._",
            "",
            "```",
            EXPERIMENTS[name].report(table),
            "```",
            "",
        ]
    document = "\n".join(lines)
    if output is not None:
        Path(output).write_text(document)
    return document


__all__ = ["run_report"]

"""Scored evaluation reports: run suites, judge them, compare baselines.

``run_eval`` is the engine behind the ``repro eval`` CLI verb: it asks
each requested ``EVALS`` suite for its grid, executes through the PR 2
runner (parallel and resumable when a store directory is given), scores
the assembled rows, and stamps the result with the repo's provenance
fields (git SHA and UTC date), so a directory of downloaded
``EVAL_report.json`` artifacts reconstructs the fidelity trajectory.

``compare_to_baseline`` is deliberately coarse: a regression is a
pass→fail flip at the suite or individual-check level against the
committed baseline report, or a suite or check that passed there and
did not run now.  Threshold tuning changes values, not flips,
so nightly CI only pages when a gate actually breaks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api.catalog import EVALS
from repro.experiments.runner import ProgressFn, run_grid
from repro.experiments.store import ResultStore
from repro.utils.provenance import artifact_stamp

#: Suite execution order for a full run.
DEFAULT_SUITES = ("calibration", "regret", "golden", "paper")


def run_eval(
    suites: Optional[List[str]] = None,
    fast: bool = True,
    workers: int = 0,
    store_dir: Optional[Path] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, Any]:
    """Execute the requested suites and assemble the scored report."""
    names = list(suites) if suites else list(DEFAULT_SUITES)
    sections: Dict[str, Any] = {}
    cells = 0
    wall = 0.0
    for name in names:
        suite = EVALS.create(name)
        store = None
        if store_dir is not None:
            directory = Path(store_dir)
            directory.mkdir(parents=True, exist_ok=True)
            store = ResultStore(directory / f"{name}.jsonl")
        grid_report = run_grid(
            suite.grid(fast),
            workers=workers,
            store=store,
            resume=resume,
            progress=progress,
        )
        sections[name] = suite.score(grid_report.table.rows)
        cells += len(grid_report.table)
        wall += grid_report.wall_seconds
    return {
        "format": 1,
        **artifact_stamp(),
        "fast": bool(fast),
        "cells": cells,
        "wall_seconds": wall,
        "suites": sections,
        "passed": all(s["passed"] for s in sections.values()),
    }


def write_report(report: Dict[str, Any], path: Path) -> None:
    """Write the report as stable, diff-friendly JSON."""
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_report(path: Path) -> Dict[str, Any]:
    """Read a previously written report."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def compare_to_baseline(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Pass→fail flips of the current report against a baseline one."""
    regressions: List[str] = []
    for name, base_section in baseline.get("suites", {}).items():
        if not base_section.get("passed"):
            continue  # was already failing; not a regression
        section = current.get("suites", {}).get(name)
        if section is None:
            regressions.append(f"suite {name!r}: present in baseline, not run")
            continue
        if not section.get("passed"):
            regressions.append(f"suite {name!r}: passed in baseline, now fails")
        current_checks = {c["name"]: c for c in section.get("checks", [])}
        for base_check in base_section.get("checks", []):
            if not base_check.get("passed"):
                continue
            now = current_checks.get(base_check["name"])
            if now is None:
                regressions.append(
                    f"check {name}.{base_check['name']}: "
                    "present in baseline, not run"
                )
            elif not now.get("passed"):
                regressions.append(
                    f"check {name}.{base_check['name']}: "
                    f"value {now['value']:.6g} violates threshold "
                    f"{now['direction']} {now['threshold']:.6g} "
                    f"(baseline value {base_check['value']:.6g})"
                )
    return regressions


def summarize(report: Dict[str, Any]) -> str:
    """Multi-line human-readable digest for the CLI."""
    lines = []
    for name, section in report.get("suites", {}).items():
        status = "PASS" if section["passed"] else "FAIL"
        lines.append(f"{name:>12s}  {status}")
        for item in section["checks"]:
            mark = "ok " if item["passed"] else "BAD"
            lines.append(
                f"{'':>12s}  [{mark}] {item['name']}: "
                f"{item['value']:.6g} {item['direction']} "
                f"{item['threshold']:.6g}"
            )
    overall = "PASS" if report.get("passed") else "FAIL"
    lines.append(
        f"{'overall':>12s}  {overall}  "
        f"({report.get('cells', 0)} cells, "
        f"{report.get('wall_seconds', 0.0):.1f}s)"
    )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_SUITES",
    "compare_to_baseline",
    "load_report",
    "run_eval",
    "summarize",
    "write_report",
]

"""The ``repro check`` verb: one parse of ``src/repro``, every check.

The options are declared in :mod:`repro.cli`, which imports this module
only when the verb runs, so no other command pays for the analyzer.
Exit codes:

* ``0`` — clean (possibly via baselined exceptions),
* ``1`` — new violations and/or stale baseline entries,
* ``2`` — usage errors (unknown codes, no package tree under ``--root``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.api.catalog import CHECKS
from repro.devtools import baseline as baseline_mod
from repro.devtools.checks import Check, analyze
from repro.devtools.findings import Violation
from repro.devtools.formats import render

#: Default baseline location, relative to the repo root.
DEFAULT_BASELINE = "check_baseline.jsonl"

EXIT_OK, EXIT_FINDINGS, EXIT_USAGE = 0, 1, 2


def _selected(select: Optional[str]) -> Optional[List[Check]]:
    """Instantiate the selected checks, or ``None`` on unknown codes."""
    available = CHECKS.available()
    wanted = (
        [code.strip() for code in select.split(",") if code.strip()]
        if select
        else available
    )
    unknown = [code for code in wanted if code not in available]
    if unknown:
        print(
            f"unknown check code(s) {unknown}; available: {available}",
            file=sys.stderr,
        )
        return None
    return [CHECKS.create(code) for code in wanted]


def _update_baseline(path: Path, violations: Sequence[Violation]) -> int:
    entries = baseline_mod.entries_from_violations(
        violations, baseline_mod.load_baseline(path)
    )
    baseline_mod.save_baseline(path, entries)
    todo = sum(
        1 for e in entries if e.reason == baseline_mod.PLACEHOLDER_REASON
    )
    note = f"; edit the {todo} TODO reason(s) before committing"
    print(
        f"baseline rewritten: {len(entries)} entr(ies) at {path}"
        + (note if todo else "")
    )
    return EXIT_OK


def run_check(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro check`` invocation; returns the exit code."""
    if args.list_checks:
        for code in CHECKS.available():
            check = CHECKS.create(code)
            print(f"{check.code}  {check.name}: {check.rationale}")
        return EXIT_OK
    checks = _selected(args.select)
    if checks is None:
        return EXIT_USAGE
    root = Path(args.root).resolve()
    package_dir = root / "src" / "repro"
    if not package_dir.is_dir():
        print(
            f"no package tree at {package_dir}; --root must point at a "
            "repo root containing src/repro",
            file=sys.stderr,
        )
        return EXIT_USAGE

    graph, violations = analyze(root, checks)
    if args.graph_dump:
        dump_path = Path(args.graph_dump)
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        dump_path.write_text(
            json.dumps(graph.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"call graph written to {dump_path}", file=sys.stderr)

    baseline_path = (
        Path(args.baseline)
        if args.baseline is not None
        else root / DEFAULT_BASELINE
    )
    if args.update_baseline:
        return _update_baseline(baseline_path, violations)
    result = baseline_mod.apply_baseline(
        violations, baseline_mod.load_baseline(baseline_path)
    )
    print(
        render(args.fmt, result.new, result.suppressed, result.stale, checks)
    )
    return EXIT_FINDINGS if (result.new or result.stale) else EXIT_OK


__all__ = ["DEFAULT_BASELINE", "run_check"]

"""Durable JSON-lines store of grid-cell results.

One line per completed cell::

    {"cell_id": "9f31…", "experiment": "FIG1A", "row": {…}}

Append-only and flushed per completed cell, so an interrupted run loses at
most the cells still in flight (up to ``--workers`` of them in a fan-out
run); :meth:`ResultStore.load` tolerates a torn final line (and skips any
other unparsable line — those cells simply rerun).
Rerunning a grid with ``resume=True`` skips every cell already present,
which is what makes long fan-out runs restartable.

Lines are strict JSON (parseable by jq/pandas/other languages): non-finite
floats — ``incr`` cells report NaN initial metrics — are written as
``null`` and restored to NaN on load.  Row values are scalars, so a null
is never ambiguous.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict


def ensure_trailing_newline(path: Path) -> None:
    """Terminate a torn final line so the next append starts fresh.

    A run killed mid-write leaves a line without a newline; appending
    straight after it would glue the new record onto the torn JSON and
    lose *both*.  ``ResultStore`` calls it before every append, an
    ``EventLog`` before its first write and after a write that raised.
    """
    try:
        with open(path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
    except FileNotFoundError:
        pass


def _sanitize(value: Any) -> Any:
    """Strict-JSON form of a row value: non-finite floats become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_sanitize(item) for item in value]
    return value


def _restore(value: Any) -> Any:
    """Undo :func:`_sanitize`: null row values come back as NaN."""
    if value is None:
        return float("nan")
    if isinstance(value, dict):
        return {key: _restore(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore(item) for item in value]
    return value


class ResultStore:
    """Append-only JSON-lines result store keyed by grid cell id."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def append(self, cell_id: str, experiment: str, row: Dict[str, Any]) -> None:
        """Durably record one completed cell."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        ensure_trailing_newline(self.path)
        record = {
            "cell_id": cell_id,
            "experiment": experiment,
            "row": _sanitize(row),
        }
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, allow_nan=False) + "\n")
            handle.flush()

    def load(self) -> Dict[str, Dict[str, Any]]:
        """All stored records as ``{cell_id: record}``, deduplicated.

        Unparsable lines — a torn tail from a killed run — are skipped, so
        their cells are simply treated as not yet computed.  Duplicate
        cell ids keep the **last** record: a resumed run that re-executes
        a torn cell appends a second line for the same cell hash, and
        merged reports must see exactly one row per cell (the freshest).
        """
        records: Dict[str, Dict[str, Any]] = {}
        if not self.path.exists():
            return records
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and "cell_id" in record:
                    record["row"] = _restore(record.get("row", {}))
                    records[record["cell_id"]] = record

        return records

    def compact(self) -> int:
        """Rewrite the file with one (deduplicated) line per cell.

        Long-lived stores — e.g. the nightly grid's cached store, appended
        to across many resumed runs — accumulate torn lines and duplicate
        cell records; compaction keeps the surviving record of each cell
        (last write wins, matching :meth:`load`) and drops the rest.
        Returns the number of lines removed.  Atomic: the compacted file
        is written alongside and renamed over the original, so a crash
        mid-compaction cannot lose records.
        """
        if not self.path.exists():
            return 0
        with open(self.path) as handle:
            total_lines = sum(1 for line in handle if line.strip())
        records = self.load()
        temporary = self.path.with_suffix(self.path.suffix + ".compact")
        with open(temporary, "w") as handle:
            for record in records.values():
                sanitized = {**record, "row": _sanitize(record.get("row", {}))}
                handle.write(json.dumps(sanitized, allow_nan=False) + "\n")
            handle.flush()
        temporary.replace(self.path)
        return total_lines - len(records)

    def __len__(self) -> int:
        return len(self.load())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"


__all__ = ["ResultStore", "ensure_trailing_newline"]

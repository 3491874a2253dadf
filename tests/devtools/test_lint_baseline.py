"""Baseline ratchet semantics: new fails, baselined passes, stale flagged."""

from __future__ import annotations

import json

from repro.devtools.baseline import (
    PLACEHOLDER_REASON,
    BaselineEntry,
    apply_baseline,
    entries_from_violations,
    load_baseline,
    save_baseline,
)
from repro.devtools.findings import Violation


def make_violation(rule="RPL008", path="src/repro/x.py", line=3,
                   line_text="def f(x=[]):"):
    return Violation(
        rule=rule,
        path=path,
        line=line,
        col=1,
        message="mutable default",
        line_text=line_text,
    )


def test_new_violation_is_not_suppressed():
    result = apply_baseline([make_violation()], [])
    assert len(result.new) == 1
    assert result.suppressed == []
    assert result.stale == []


def test_baselined_violation_is_suppressed_at_any_line():
    entry = BaselineEntry(
        rule="RPL008",
        path="src/repro/x.py",
        line_text="def f(x=[]):",
        reason="legacy signature kept for wire compat",
    )
    # Same fingerprint, different line number: still suppressed — the
    # fingerprint deliberately excludes line numbers so edits above the
    # exception don't invalidate it.
    result = apply_baseline([make_violation(line=99)], [entry])
    assert result.new == []
    assert len(result.suppressed) == 1
    assert result.stale == []


def test_fixed_violation_marks_entry_stale():
    entry = BaselineEntry(
        rule="RPL008",
        path="src/repro/x.py",
        line_text="def f(x=[]):",
        reason="was needed",
    )
    result = apply_baseline([], [entry])
    assert result.new == []
    assert result.stale == [entry]


def test_one_entry_suppresses_repeated_identical_lines():
    entry = BaselineEntry(
        rule="RPL008",
        path="src/repro/x.py",
        line_text="def f(x=[]):",
        reason="r",
    )
    result = apply_baseline(
        [make_violation(line=3), make_violation(line=30)], [entry]
    )
    assert result.new == []
    assert len(result.suppressed) == 2
    assert result.stale == []


def test_round_trip_and_reason_preservation(tmp_path):
    path = tmp_path / "baseline.jsonl"
    first = entries_from_violations([make_violation()])
    assert first[0].reason == PLACEHOLDER_REASON
    edited = [
        BaselineEntry(
            rule=e.rule,
            path=e.path,
            line_text=e.line_text,
            reason="deliberate: see README",
        )
        for e in first
    ]
    save_baseline(path, edited)
    loaded = load_baseline(path)
    assert loaded == sorted(
        edited, key=lambda e: (e.path, e.rule, e.line_text)
    )
    # Re-generating from the same violations keeps the human reason.
    regenerated = entries_from_violations([make_violation()], loaded)
    assert regenerated[0].reason == "deliberate: see README"


def test_load_tolerates_comments_and_torn_tail(tmp_path):
    path = tmp_path / "baseline.jsonl"
    good = json.dumps(
        {
            "rule": "RPL001",
            "path": "src/repro/y.py",
            "line_text": "import random",
            "reason": "r",
        }
    )
    path.write_text(f"# header comment\n{good}\n{{\"rule\": \"RPL0")
    loaded = load_baseline(path)
    assert [e.rule for e in loaded] == ["RPL001"]


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.jsonl") == []

"""Report renderers of ``repro check``.

* ``text`` — ``path:line:col: CODE message`` per finding, then a summary
  line; the local developer loop.
* ``json`` — one machine-readable document (schema below, versioned) for
  tooling.
* ``github`` — ``::error`` workflow commands, so the CI lint job
  annotates the offending lines directly on pull requests.

``rules`` are the selected :class:`~repro.devtools.checks.Check` plugins
— anything with ``code``/``name``/``rationale`` (:class:`RuleInfo`).

JSON schema (``"format_version": 2``)::

    {"format_version": 2,
     "rules": [{"code", "name", "rationale"}…],
     "violations": [{"rule", "path", "line", "col", "message",
                     "line_text"}…],
     "suppressed": [same shape…],
     "stale_baseline": [{"rule", "path", "line_text", "reason"}…],
     "counts": {"violations", "suppressed", "stale_baseline"},
     "ok": bool}
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Protocol, Sequence

from repro.devtools.baseline import BaselineEntry
from repro.devtools.findings import Violation

FORMATS = ("text", "json", "github")
JSON_FORMAT_VERSION = 2


class RuleInfo(Protocol):
    """What the renderers need to know about a check plugin."""

    code: str
    name: str
    rationale: str


def render_text(
    new: Sequence[Violation],
    suppressed: Sequence[Violation],
    stale: Sequence[BaselineEntry],
) -> str:
    lines: List[str] = []
    for violation in new:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col}: "
            f"{violation.rule} {violation.message}"
        )
    for entry in stale:
        lines.append(
            f"{entry.path}: stale baseline entry for {entry.rule} "
            f"({entry.line_text!r}): the violation is gone — delete the "
            f"entry (reason was: {entry.reason})"
        )
    ok = not new and not stale
    summary = (
        f"{len(new)} violation(s), {len(suppressed)} baselined, "
        f"{len(stale)} stale baseline entr(ies)"
    )
    lines.append(("ok: " if ok else "FAILED: ") + summary)
    return "\n".join(lines)


def render_json(
    new: Sequence[Violation],
    suppressed: Sequence[Violation],
    stale: Sequence[BaselineEntry],
    rules: Sequence[RuleInfo],
) -> str:
    document: Dict[str, Any] = {
        "format_version": JSON_FORMAT_VERSION,
        "rules": [
            {
                "code": rule.code,
                "name": rule.name,
                "rationale": rule.rationale,
            }
            for rule in rules
        ],
        "violations": [violation.to_dict() for violation in new],
        "suppressed": [violation.to_dict() for violation in suppressed],
        "stale_baseline": [entry.to_dict() for entry in stale],
        "counts": {
            "violations": len(new),
            "suppressed": len(suppressed),
            "stale_baseline": len(stale),
        },
        "ok": not new and not stale,
    }
    return json.dumps(document, indent=2, sort_keys=True)


def _escape_property(value: str) -> str:
    """GitHub workflow-command property escaping."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(
    new: Sequence[Violation],
    suppressed: Sequence[Violation],
    stale: Sequence[BaselineEntry],
) -> str:
    lines: List[str] = []
    for violation in new:
        lines.append(
            f"::error file={_escape_property(violation.path)}"
            f",line={violation.line},col={violation.col}"
            f",title={_escape_property(violation.rule)}"
            f"::{_escape_data(violation.message)}"
        )
    for entry in stale:
        lines.append(
            f"::error file={_escape_property(entry.path)}"
            f",title={_escape_property(entry.rule + ' baseline')}"
            f"::{_escape_data('stale baseline entry (' + entry.line_text + '); delete it')}"
        )
    lines.append(
        f"{len(new)} violation(s), {len(suppressed)} baselined, "
        f"{len(stale)} stale"
    )
    return "\n".join(lines)


def render(
    fmt: str,
    new: Sequence[Violation],
    suppressed: Sequence[Violation],
    stale: Sequence[BaselineEntry],
    rules: Sequence[RuleInfo],
) -> str:
    if fmt == "json":
        return render_json(new, suppressed, stale, rules)
    if fmt == "github":
        return render_github(new, suppressed, stale)
    return render_text(new, suppressed, stale)


__all__ = [
    "FORMATS",
    "JSON_FORMAT_VERSION",
    "RuleInfo",
    "render",
    "render_github",
    "render_json",
    "render_text",
]

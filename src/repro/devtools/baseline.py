"""The ratcheting JSONL baseline for deliberate ``repro check`` exceptions.

``repro check`` ratchets the committed ``check_baseline.jsonl`` through
this module.  A baseline entry is one strict-JSON line naming a
violation fingerprint plus a **mandatory human reason**::

    {"rule": "RPL002", "path": "src/repro/x.py",
     "line_text": "digest = hashlib.sha1(raw)", "reason": "interop: …"}

Semantics are a one-way ratchet:

* a violation whose fingerprint matches an entry is *suppressed* (the
  exception was deliberate, the reason says why);
* a violation with no entry **fails** the run (new debt is refused);
* an entry matching no violation is **stale** and fails the run too —
  the underlying code was fixed, so the exception must be deleted, and
  the baseline can only shrink.

Fingerprints use the stripped source line rather than the line number,
so unrelated edits above an exception don't invalidate it.  The file
format is the repo's usual torn-tail-tolerant JSONL (sorted, rewritten
atomically by ``--update-baseline``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.devtools.findings import Violation

#: Reason recorded by ``--update-baseline`` until a human edits it.
PLACEHOLDER_REASON = "TODO: justify this exception"


@dataclass(frozen=True)
class BaselineEntry:
    """One deliberate, reason-annotated static-analysis exception."""

    rule: str
    path: str
    line_text: str
    reason: str

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.line_text)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class BaselineResult:
    """Outcome of matching violations against a baseline."""

    new: List[Violation]
    suppressed: List[Violation]
    stale: List[BaselineEntry]


def load_baseline(path: Path) -> List[BaselineEntry]:
    """Parse a baseline file (missing file = empty baseline)."""
    entries: List[BaselineEntry] = []
    if not path.exists():
        return entries
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail: same tolerance as every JSONL store here
        if not isinstance(record, dict):
            continue
        entries.append(
            BaselineEntry(
                rule=str(record.get("rule", "")),
                path=str(record.get("path", "")),
                line_text=str(record.get("line_text", "")),
                reason=str(record.get("reason", "")) or PLACEHOLDER_REASON,
            )
        )
    return entries


def save_baseline(path: Path, entries: Sequence[BaselineEntry]) -> None:
    """Atomically rewrite the baseline, sorted for stable diffs."""
    ordered = sorted(
        entries, key=lambda e: (e.path, e.rule, e.line_text)
    )
    payload = "".join(
        json.dumps(entry.to_dict(), sort_keys=True) + "\n"
        for entry in ordered
    )
    temporary = path.with_suffix(path.suffix + ".tmp")
    temporary.write_text(payload, encoding="utf-8")
    temporary.replace(path)


def entries_from_violations(
    violations: Sequence[Violation],
    previous: Sequence[BaselineEntry] = (),
) -> List[BaselineEntry]:
    """Baseline entries covering ``violations``, keeping existing reasons."""
    reasons = {entry.fingerprint: entry.reason for entry in previous}
    entries: Dict[Tuple[str, str, str], BaselineEntry] = {}
    for violation in violations:
        fingerprint = violation.fingerprint
        entries[fingerprint] = BaselineEntry(
            rule=violation.rule,
            path=violation.path,
            line_text=violation.line_text,
            reason=reasons.get(fingerprint, PLACEHOLDER_REASON),
        )
    return list(entries.values())


def apply_baseline(
    violations: Sequence[Violation], entries: Sequence[BaselineEntry]
) -> BaselineResult:
    """Split violations into new/suppressed and find stale entries.

    One entry suppresses every occurrence sharing its fingerprint (a
    repeated identical line in one file is one deliberate exception, not
    several).
    """
    known = {entry.fingerprint for entry in entries}
    new: List[Violation] = []
    suppressed: List[Violation] = []
    seen: set = set()
    for violation in violations:
        if violation.fingerprint in known:
            suppressed.append(violation)
            seen.add(violation.fingerprint)
        else:
            new.append(violation)
    stale = [entry for entry in entries if entry.fingerprint not in seen]
    return BaselineResult(new=new, suppressed=suppressed, stale=stale)


__all__ = [
    "BaselineEntry",
    "BaselineResult",
    "PLACEHOLDER_REASON",
    "apply_baseline",
    "entries_from_violations",
    "load_baseline",
    "save_baseline",
]

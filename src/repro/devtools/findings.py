"""The finding model of ``repro check``.

Every check — the per-file RPL rules and the whole-program RPC checks
alike — reports :class:`Violation` objects, so there is one baseline
format (:mod:`repro.devtools.baseline`) and one set of renderers
(:mod:`repro.devtools.formats`).

Violations carry a *fingerprint* — ``(rule, path, stripped source
line)`` — deliberately excluding the line number, so a committed baseline
entry keeps suppressing its violation when unrelated edits shift the
file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Violation:
    """One check finding at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    line_text: str = ""

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across unrelated line-number drift."""
        return (self.rule, self.path, self.line_text)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


__all__ = ["Violation"]

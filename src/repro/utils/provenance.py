"""Build provenance for generated report artifacts.

Every ``EVAL_report*.json`` carries the git SHA and an ISO-8601 UTC
timestamp of the run that produced it, so a directory of downloaded CI
artifacts reconstructs the repository's history without consulting the
CI provider's metadata.
"""

from __future__ import annotations

import os
import subprocess
from datetime import datetime, timezone
from typing import Dict


def git_sha() -> str:
    """The commit the working tree is at, or ``"unknown"``.

    CI exposes the SHA via ``GITHUB_SHA`` even on shallow checkouts; a
    local run falls back to ``git rev-parse``.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def artifact_stamp() -> Dict[str, str]:
    """``{"git_sha": …, "date": …}`` fields to merge into a JSON artifact."""
    return {
        "git_sha": git_sha(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


__all__ = ["git_sha", "artifact_stamp"]

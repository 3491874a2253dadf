"""``repro serve`` with its service layers wrapped for the traced run.

Usage: ``python perfbench/launcher.py [--corrupt-answer N] <repro serve
flags>``.  Installs the span wrappers of :mod:`layers`, adds a
``GET /v1/_trace`` route returning the span totals, and hands the rest of
the command line to ``repro serve`` unchanged.  ``--corrupt-answer N``
stores the N-th submitted answer (0-based) with ``holds`` flipped, so the
benchmark's output check can be shown to catch a corrupted answer.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List

from layers import Recorder, install_service_layers


def corrupt_answer(index: int) -> None:
    from repro.service.manager import SessionManager

    submit = SessionManager.submit_answer
    submitted = [0]

    def flipped(self: Any, session_id: str, i: int, j: int, holds: bool, **kwargs: Any) -> Any:
        if submitted[0] == index:
            holds = not holds
        submitted[0] += 1
        return submit(self, session_id, i, j, holds, **kwargs)

    SessionManager.submit_answer = flipped


def main(argv: List[str]) -> int:
    from repro.cli import main as repro_main
    from repro.service.server import ROUTES, Route

    if argv[:1] == ["--corrupt-answer"]:
        corrupt_answer(int(argv[1]))
        argv = argv[2:]
    recorder = Recorder()
    install_service_layers(recorder)

    async def handle_trace(ctx: Any) -> Dict[str, Any]:
        return recorder.snapshot()

    ROUTES.append(Route("_trace", {"GET": handle_trace}, versioned_only=True))
    return repro_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

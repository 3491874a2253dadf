"""Golden replay through the service event-log path.

The third leg of the golden-dataset contract: the same recorded session
must reproduce bit-identically when driven through the *service* machinery
— :class:`~repro.service.manager.SessionManager` create / submit-answer
calls with a durable JSONL event log, followed by a kill-and-resume that
rebuilds the manager from that log.  For ``T1-on`` recordings the check
is stronger than final-state equality: the manager's ``next_question``
must equal the recorded question before every submitted answer (the
interactive min-residual rule *is* T1-on), and the resumed manager must
agree with the uninterrupted one.

This module is the sanctioned exception to check RPL010: evaluation
code constructs sessions through :mod:`repro.api.run` — except here,
where exercising the service path **is** the point.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.evals.golden import replayed_fields
from repro.evals.specs import EvalSpec
from repro.questions.model import Question
from repro.service.manager import SessionManager


def _state(manager: SessionManager, sid: str) -> Dict[str, Any]:
    """Comparable snapshot of one managed session's final state."""
    snapshot = manager.snapshot(sid)
    session = manager._get(sid).session
    return {
        "questions_asked": int(snapshot["questions_asked"]),
        "final_uncertainty": float(session.uncertainty()),
        "orderings_final": int(snapshot["orderings"]),
        "top_k": [int(t) for t in snapshot["top_k"]],
    }


def _next_pair(manager: SessionManager, sid: str) -> Optional[List[int]]:
    question = manager.next_question(sid)
    return None if question is None else [question.i, question.j]


def run_golden_service_cell(*, case: Dict[str, Any]) -> Dict[str, Any]:
    """Drive one golden case through create → answers → resume."""
    spec = EvalSpec.from_dict(case["eval"]).session
    expected = case["expected"]
    verify_questions = bool(case.get("verify_questions"))
    mismatches: List[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-eval-") as tmp:
        log_path = Path(tmp) / "events.jsonl"
        manager = SessionManager(
            log_path=log_path,
            builder=spec.build_builder(),
            measure=spec.measure.build(),
        )
        sid = manager.create_session(
            spec.instance.to_dict(), session_id=case["key"][:16]
        )
        for step, (i, j, holds, accuracy) in enumerate(expected["answers"]):
            if verify_questions:
                pair = _next_pair(manager, sid)
                if pair != [i, j]:
                    mismatches.append(
                        f"question[{step}]: expected ({i}, {j}), "
                        f"service offered {pair}"
                    )
            manager.submit_answer(sid, i, j, holds, accuracy)
        live = _state(manager, sid)
        replayed = replayed_fields(expected)
        mismatches += [
            f"service.{name}: expected {replayed[name]!r}, got {value!r}"
            for name, value in live.items()
            if name in replayed and value != replayed[name]
        ]

        # Kill-and-resume: a manager rebuilt from the log alone must land
        # in the *same* state and offer the same next question.
        resumed_manager = SessionManager.resume(
            log_path,
            builder=spec.build_builder(),
            measure=spec.measure.build(),
        )
        resumed = _state(resumed_manager, sid)
        mismatches += [
            f"resume.{name}: live {value!r}, resumed {resumed[name]!r}"
            for name, value in live.items()
            if resumed[name] != value
        ]
        live_next = _next_pair(manager, sid)
        resumed_next = _next_pair(resumed_manager, sid)
        if live_next != resumed_next:
            mismatches.append(
                f"resume.next_question: live {live_next}, "
                f"resumed {resumed_next}"
            )

    return {
        "path": "service",
        "label": case.get("label", ""),
        "key": case["key"],
        "passed": not mismatches,
        "mismatches": mismatches,
    }


__all__ = ["run_golden_service_cell"]

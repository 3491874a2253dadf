"""Session lifecycle, durable event log, and per-state ranking memo.

:class:`SessionManager` owns many concurrent interactive sessions (one per
end user answering crowd questions) and makes them cheap to serve:

* the initial TPO of every session comes from a shared
  :class:`~repro.service.cache.TPOCache`, so hashed-equal instances pay
  one tree build;
* next-question rankings are memoized by *session state* — (instance
  hash, answer history) — so sessions in identical states (common early
  in their lifetime, and throughout for reliable crowds) share one
  :meth:`~repro.questions.residual.ResidualEvaluator.rank_singles_batch`
  scoring pass;
* every mutation is appended to a JSONL event log (the
  :mod:`repro.experiments.store` style: one strict-JSON line per event,
  flushed immediately, torn tail tolerated on load), so a killed manager
  resumes every in-flight session exactly where it stopped via
  :meth:`SessionManager.resume`.

Sessions are created from declarative *instance specs* — a
:class:`repro.api.InstanceSpec` or its wire-shaped dict form::

    {"workload": "uniform", "n": 20, "k": 5, "seed": 7,
     "params": {"width": 0.3}}

A spec is the canonical, hashable description of the uncertain instance —
the workload generator, its parameters, and the derived-seed RNG stream —
so two sessions with equal specs provably share a TPO, and a resumed
manager re-materializes identical instances from the log alone.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.api.specs import EngineSpec, as_instance_spec
from repro.core.session import InteractiveSession
from repro.experiments.store import ensure_trailing_newline
from repro.questions.model import Question
from repro.questions.residual import ResidualEvaluator
from repro.service.cache import TPOCache, instance_key
from repro.service.protocol import validate_answer
from repro.tpo.builders import TPOBuilder
from repro.uncertainty.base import UncertaintyMeasure
from repro.uncertainty.entropy import EntropyMeasure

#: Anything :class:`pathlib.Path` accepts for the event-log location.
PathLike = Union[str, Path]

#: How many per-state next-question rankings the manager memoizes (LRU).
RANKING_MEMO_SIZE = 1024


class UnknownSessionError(KeyError):
    """Raised when a session id names no live session."""


class ClosedSessionError(ValueError):
    """Raised when an operation targets a closed session."""


def builder_signature(builder: TPOBuilder) -> Dict[str, Any]:
    """The builder configuration fields that shape the built TPO.

    Delegates to :meth:`repro.api.EngineSpec.signature_for` — the single
    canonical definition of the builder fingerprint — so cache keys
    computed here, by the sharded runtime, and by callers hashing an
    :class:`~repro.api.EngineSpec` directly always agree.
    """
    return EngineSpec.signature_for(builder)


# ----------------------------------------------------------------------
# Durable event log
# ----------------------------------------------------------------------


class EventLog:
    """Append-only JSONL log of session events (create / answer / close).

    Same durability contract as the experiment
    :class:`~repro.experiments.store.ResultStore`: one strict-JSON line
    per event, flushed as it happens, and a torn final line (killed
    mid-write) is skipped on load rather than poisoning the replay.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        #: Whether the last write through this object completed.
        self._tail_sound = False

    def append(self, event: Dict[str, Any]) -> None:
        """Durably record one event."""
        self._write([event])

    def _write(self, events: List[Dict[str, Any]]) -> None:
        # The directory and a torn tail (a killed run's, or one this
        # object's own failed write left) are seen to at the first write
        # and after a write that raised, not on every flush.
        if not self._tail_sound:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            ensure_trailing_newline(self.path)
        self._tail_sound = False
        handle = open(self.path, "a")
        start = handle.tell()
        try:
            with handle:
                for event in events:
                    handle.write(json.dumps(event, allow_nan=False) + "\n")
                handle.flush()
        except OSError:
            # Take back whatever part of the batch reached the file, so
            # that writing the same batch again records each event once.
            os.truncate(self.path, start)
            raise
        self._tail_sound = True

    def flush(self) -> int:
        """No-op: every :meth:`append` is already durable.  Returns the
        number of events written (always 0 here); see
        :class:`BufferedEventLog` for the deferred variant."""
        return 0

    def load(self) -> List[Dict[str, Any]]:
        """All parseable events, in append order."""
        events: List[Dict[str, Any]] = []
        if not self.path.exists():
            return events
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(event, dict) and "event" in event:
                    events.append(event)
        return events


class BufferedEventLog(EventLog):
    """:class:`EventLog` whose appends buffer in memory until :meth:`flush`.

    The asyncio server mutates sessions on the event-loop thread but must
    never block it on disk I/O (check RPC101).  With this variant,
    :meth:`append` is a pure in-memory list append, and the handler awaits
    one :meth:`flush` hop through the server's service thread *before*
    responding — so the client-visible durability contract is unchanged
    (a 200 means the event is on disk) while the loop never waits on a
    file handle.

    Appends keep their order; ``flush`` writes the whole backlog through a
    single append-mode open with the same torn-tail healing as the eager
    log.  Two locks keep the threads honest: ``_lock`` guards the buffer
    (so the loop thread's ``append`` only ever waits for a list swap,
    never for the disk), and ``_flush_lock`` serializes whole flushes (so
    overlapping flushers cannot interleave batches out of order).
    """

    def __init__(self, path: PathLike) -> None:
        super().__init__(path)
        self._pending: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()

    @property
    def pending(self) -> int:
        """Events buffered but not yet on disk."""
        with self._lock:
            return len(self._pending)

    def append(self, event: Dict[str, Any]) -> None:
        """Buffer one event (no disk I/O until :meth:`flush`)."""
        with self._lock:
            self._pending.append(event)

    def flush(self) -> int:
        """Write every buffered event durably; returns how many.  A write
        that fails with ``OSError`` leaves the file as it was and puts the
        batch back in front, for the next flush (any caller's) to write."""
        with self._flush_lock:
            with self._lock:
                batch, self._pending = self._pending, []
            try:
                if batch:
                    self._write(batch)
            except OSError:
                with self._lock:
                    self._pending[:0] = batch
                raise
            return len(batch)


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------


@dataclass
class ManagedSession:
    """One live session plus the bookkeeping the manager needs."""

    session_id: str
    spec: Dict[str, Any]
    tpo_key: str
    session: InteractiveSession
    status: str = "active"
    meta: Dict[str, Any] = field(default_factory=dict)


class SessionManager:
    """Runs many interactive sessions against shared, cached state.

    Parameters
    ----------
    cache:
        Shared TPO cache (default: a fresh 64-entry
        :class:`~repro.service.cache.TPOCache`; pass capacity 0 to
        disable sharing).
    log_path:
        Optional JSONL event-log path.  When set, every create / answer /
        close is durably appended, and :meth:`resume` rebuilds the
        manager from that file.
    builder:
        TPO engine shared by all sessions (default: grid).
    measure:
        Uncertainty measure driving question ranking (default ``U_H``).
    """

    def __init__(
        self,
        cache: Optional[TPOCache] = None,
        log_path: Optional[PathLike] = None,
        builder: Optional[TPOBuilder] = None,
        measure: Optional[UncertaintyMeasure] = None,
    ) -> None:
        self.cache = cache if cache is not None else TPOCache()
        self.builder = (
            builder if builder is not None else EngineSpec().build()
        )
        self.measure = measure if measure is not None else EntropyMeasure()
        self.evaluator = ResidualEvaluator(self.measure)
        self._sessions: Dict[str, ManagedSession] = {}
        #: Guards insertion into ``_sessions`` and every snapshot of it:
        #: the server creates sessions on its service thread while the
        #: loop thread lists them, and a copy of a dict is not atomic (a
        #: GC pass inside it can hand the GIL to the inserting thread).
        self._sessions_lock = threading.Lock()
        #: (tpo_key, answers_key) → (candidates, residuals).
        self._rankings: OrderedDict = OrderedDict()
        self._log: Optional[EventLog] = (
            EventLog(log_path) if log_path is not None else None
        )
        self.rankings_computed = 0
        self.rankings_memo_hits = 0
        self.next_batches = 0
        self.next_requests = 0
        self.replay_skipped = 0

    # -- lookup --------------------------------------------------------

    def _get(self, session_id: str) -> ManagedSession:
        managed = self._sessions.get(session_id)
        if managed is None:
            raise UnknownSessionError(session_id)
        return managed

    def _active(self, session_id: str) -> ManagedSession:
        managed = self._get(session_id)
        if managed.status != "active":
            raise ClosedSessionError(f"session {session_id} is closed")
        return managed

    def session_ids(self, status: Optional[str] = "active") -> List[str]:
        """Ids of sessions with the given status (None = all), in creation
        order."""
        with self._sessions_lock:
            snapshot = list(self._sessions.items())
        return [
            sid
            for sid, managed in snapshot
            if status is None or managed.status == status
        ]

    # -- lifecycle -----------------------------------------------------

    def create_session(
        self, spec: Any, session_id: Optional[str] = None
    ) -> str:
        """Create (and log) a session from an instance spec; returns its id.

        ``spec`` is a :class:`repro.api.InstanceSpec` or its wire-shaped
        dict form (the ``/v1`` create body).
        """
        sid = self._create(spec, session_id)
        if self._log is not None:
            self._log.append(
                {
                    "event": "create",
                    "session_id": sid,
                    "spec": self._sessions[sid].spec,
                }
            )
        return sid

    def _create(
        self, spec: Any, session_id: Optional[str] = None
    ) -> str:
        ispec = as_instance_spec(spec)
        spec = ispec.to_dict()
        sid = session_id if session_id is not None else secrets.token_hex(8)
        if sid in self._sessions:
            raise ValueError(f"session id {sid!r} already exists")
        distributions = ispec.materialize()
        tpo_key = instance_key(
            {"spec": spec, "builder": builder_signature(self.builder)}
        )
        space = self.cache.get_space(
            tpo_key,
            distributions,
            lambda: self.builder.build(distributions, spec["k"]),
        )
        session = InteractiveSession(
            distributions, spec["k"], space, evaluator=self.evaluator
        )
        managed = ManagedSession(sid, spec, tpo_key, session)
        with self._sessions_lock:
            self._sessions[sid] = managed
        return sid

    def close_session(self, session_id: str) -> None:
        """Mark a session closed (it stays inspectable, not answerable)."""
        managed = self._get(session_id)
        if managed.status == "closed":
            return
        managed.status = "closed"
        if self._log is not None:
            self._log.append({"event": "close", "session_id": session_id})

    # -- question flow -------------------------------------------------

    def next_question(self, session_id: str) -> Optional[Question]:
        """The most informative question for one session (None = settled)."""
        return self.next_questions([session_id])[session_id]

    def next_questions(
        self, session_ids: Iterable[str]
    ) -> Dict[str, Optional[Question]]:
        """Next question of each session, ranked once per session state.

        Sessions in bit-identical states — same instance hash, same
        answer history — share one memoized ranking; a state not in the
        memo is priced by :meth:`InteractiveSession.ranking` and stored.
        """
        self.next_batches += 1
        results: Dict[str, Optional[Question]] = {}
        for sid in session_ids:
            self.next_requests += 1
            managed = self._active(sid)
            session = managed.session
            state = (managed.tpo_key, session.answers_key())
            ranking = self._rankings.get(state)
            if ranking is None:
                candidates, residuals = session.ranking()
                self.rankings_computed += 1
                # A plain list: the memo must not pin the pool's stances.
                ranking = self._rankings[state] = (list(candidates), residuals)
                if len(self._rankings) > RANKING_MEMO_SIZE:
                    self._rankings.popitem(last=False)
            else:
                self._rankings.move_to_end(state)
                self.rankings_memo_hits += 1
            results[sid] = session.next_question(ranking)
        return results

    def submit_answer(
        self,
        session_id: str,
        i: int,
        j: int,
        holds: bool,
        accuracy: float = 1.0,
    ) -> Dict[str, Any]:
        """Apply (and log) one answer: "t_i ranks above t_j" is ``holds``.

        The pair is canonicalized to ``i < j`` (flipping ``holds``
        accordingly), matching the :class:`Question` identity rules.
        Fields breaking :func:`~repro.service.protocol.validate_answer`
        (tuples outside the session, non-boolean ``holds``, accuracy
        outside ``[0, 1]``) raise ``ValueError`` and change nothing.
        """
        summary = self._submit(session_id, i, j, holds, accuracy)
        if self._log is not None:
            managed = self._get(session_id)
            last = managed.session.answers[-1]
            self._log.append(
                {
                    "event": "answer",
                    "session_id": session_id,
                    "i": last.question.i,
                    "j": last.question.j,
                    "holds": last.holds,
                    "accuracy": last.accuracy,
                }
            )
        return summary

    def _submit(
        self,
        session_id: str,
        i: int,
        j: int,
        holds: bool,
        accuracy: float,
    ) -> Dict[str, Any]:
        managed = self._active(session_id)
        i, j, holds, accuracy = validate_answer(
            i, j, holds, accuracy, managed.session.space.n_tuples
        )
        if i > j:
            i, j, holds = j, i, not holds
        managed.session.submit_answer(Question(i, j), holds, accuracy=accuracy)
        return {
            "session_id": session_id,
            "questions_asked": managed.session.questions_asked,
            "orderings": managed.session.space.size,
            "settled": managed.session.is_settled,
        }

    # -- inspection ----------------------------------------------------

    @property
    def engine_key(self) -> str:
        """Content address of the shared engine configuration."""
        key = getattr(self, "_engine_key", None)
        if key is None:
            key = instance_key({"builder": builder_signature(self.builder)})
            self._engine_key = key
        return key

    def approximation(self, session_id: str) -> Optional[Dict[str, Any]]:
        """Typed approximation metadata for one session, or ``None``.

        Exact sessions (the historical default — zero certified lost
        mass) return ``None`` so their responses carry no new keys.
        Beam-approximate sessions report the space's certified
        ``lost_mass``, the measure's certified ``value_interval`` (or
        ``None`` when only the vacuous bound is available), and the
        ``engine_key`` identifying the beam configuration.
        """
        managed = self._get(session_id)
        space = managed.session.space
        if space.lost_mass <= 0.0:
            return None
        lo, hi = self.evaluator.uncertainty_interval(space)
        interval = (
            [float(lo), float(hi)]
            if math.isfinite(lo) and math.isfinite(hi)
            else None
        )
        return {
            "lost_mass": float(space.lost_mass),
            "value_interval": interval,
            "engine_key": self.engine_key,
        }

    def questions_asked(self, session_id: str) -> int:
        """Answers applied so far (cheap — no snapshot materialization)."""
        return self._get(session_id).session.questions_asked

    def snapshot(self, session_id: str) -> Dict[str, Any]:
        """Full JSON-portable state of one session (any status)."""
        managed = self._get(session_id)
        return {
            "session_id": session_id,
            "status": managed.status,
            "spec": managed.spec,
            "tpo_key": managed.tpo_key,
            "snapshot": managed.session.snapshot().to_dict(),
            "questions_asked": managed.session.questions_asked,
            "orderings": managed.session.space.size,
            "settled": managed.session.is_settled,
            "top_k": managed.session.top_k(),
        }

    def stats(self) -> Dict[str, Any]:
        """Service counters for the ``/stats`` endpoint and benchmarks."""
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        by_status: Dict[str, int] = {}
        for managed in sessions:
            by_status[managed.status] = by_status.get(managed.status, 0) + 1
        stats = {
            "sessions": by_status,
            "cache": self.cache.stats(),
            "rankings": {
                "computed": self.rankings_computed,
                "memo_hits": self.rankings_memo_hits,
            },
            "evaluations": self.evaluator.evaluations,
            "contradictions": self.evaluator.contradictions,
            "replay_skipped": self.replay_skipped,
            "next_batches": self.next_batches,
            "next_requests": self.next_requests,
        }
        if getattr(self.builder, "beam_active", False):
            lost = [
                managed.session.space.lost_mass
                for managed in sessions
                if managed.status == "active"
            ]
            stats["approximation"] = {
                "lost_mass": max(lost, default=0.0),
                "value_interval": None,
                "engine_key": self.engine_key,
            }
        return stats

    # -- durability ----------------------------------------------------

    def defer_log_writes(self) -> bool:
        """Swap the eager event log for a :class:`BufferedEventLog`.

        After this, mutations buffer their events in memory and someone —
        the asyncio server, via its service thread — must call
        :meth:`flush_log` to make them durable.  Idempotent; returns
        whether a log is configured at all.
        """
        if self._log is not None and not isinstance(
            self._log, BufferedEventLog
        ):
            self._log = BufferedEventLog(self._log.path)
        return self._log is not None

    def flush_log(self) -> int:
        """Durably write any buffered events; returns how many were
        written (0 for the eager log, which never buffers)."""
        return self._log.flush() if self._log is not None else 0

    @classmethod
    def resume(cls, log_path: PathLike, **kwargs: Any) -> "SessionManager":
        """Rebuild a manager from its event log and keep logging to it.

        Replays every parseable event in order (create → answers →
        close); events whose session never materialized — e.g. answers
        after a torn create line — are counted in ``replay_skipped``
        rather than aborting the other sessions.  Sessions restore to the
        exact state they were killed in: the next question of a restored
        session equals the one the uninterrupted manager would ask.
        """
        manager = cls(log_path=None, **kwargs)
        events = EventLog(log_path).load()
        for event in events:
            manager._apply_event(event)
        manager._log = EventLog(log_path)
        return manager

    def _apply_event(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        try:
            if kind == "create":
                self._create(event["spec"], event["session_id"])
            elif kind == "answer":
                self._submit(
                    event["session_id"],
                    event["i"],
                    event["j"],
                    event["holds"],
                    event.get("accuracy", 1.0),
                )
            elif kind == "close":
                managed = self._get(event["session_id"])
                managed.status = "closed"
            else:
                self.replay_skipped += 1
        except (KeyError, ValueError, TypeError):
            self.replay_skipped += 1

    def __repr__(self) -> str:
        return (
            f"SessionManager(sessions={len(self._sessions)}, "
            f"cache_hit_rate={self.cache.hit_rate:.2f})"
        )


__all__ = [
    "SessionManager",
    "ManagedSession",
    "EventLog",
    "BufferedEventLog",
    "UnknownSessionError",
    "ClosedSessionError",
    "builder_signature",
]

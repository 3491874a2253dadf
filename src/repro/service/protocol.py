"""Typed models of the versioned ``/v1`` service wire protocol.

The HTTP layer (:mod:`repro.service.server`) never hand-builds JSON for
the versioned surface: every request body is parsed into a frozen request
dataclass (validating types and required fields), and every response is a
frozen response dataclass rendered through ``to_payload()``.  Clients and
the nightly benchmarks can therefore depend on the exact shapes below —
the protocol is frozen per version, and breaking changes require ``/v2``.

Error envelope
--------------
Every non-2xx response on the versioned surface carries one uniform JSON
envelope::

    {"error": {"code": "not_found", "message": "no session 'x'",
               "detail": {...}}}

``code`` is a stable machine-readable slug per status (see
:data:`ERROR_CODES`), ``message`` is human-readable, and ``detail`` is an
optional object with structured context (e.g. the ``allow`` list on 405).
The legacy unversioned routes keep their historical flat
``{"error": "<message>"}`` shape.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.specs import InstanceSpec

#: The protocol version this module describes (the URL prefix).
PROTOCOL_VERSION = "v1"

#: Stable machine-readable error codes per HTTP status.
ERROR_CODES: Dict[int, str] = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    413: "payload_too_large",
    500: "internal",
    502: "bad_gateway",
    503: "unavailable",
}

#: HTTP reason phrases for the statuses the service emits.
REASON_PHRASES: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A request body that does not match its typed model."""


def _require(body: Mapping, fields: Tuple[str, ...], what: str) -> None:
    missing = [name for name in fields if name not in body]
    if missing:
        raise ProtocolError(f"{what} needs fields {sorted(missing)}")


def _object_body(body: Any, what: str) -> Mapping:
    if not isinstance(body, Mapping):
        raise ProtocolError(f"{what} must be a JSON object")
    return body


def validate_answer(
    i: Any,
    j: Any,
    holds: Any,
    accuracy: Any = 1.0,
    n_tuples: Optional[int] = None,
) -> Tuple[int, int, bool, float]:
    """The one rule set for an incoming answer, nothing coerced.

    ``i`` and ``j`` must be distinct integers (a bool is not one), inside
    ``[0, n_tuples)`` when the session size is known; ``holds`` must be a
    boolean; ``accuracy`` a finite number in ``[0, 1]``.  Any violation
    raises :class:`ProtocolError` (a ``ValueError``, so both the HTTP
    layer and event-log replay treat it as a bad request).
    """
    for name, value in (("i", i), ("j", j)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ProtocolError(
                f"answer field {name!r} must be an integer, got {value!r}"
            )
        if n_tuples is not None and not 0 <= value < n_tuples:
            raise ProtocolError(
                f"answer field {name!r} must lie in [0, {n_tuples}), "
                f"got {value!r}"
            )
    if i == j:
        raise ProtocolError("an answer must compare two distinct tuples")
    if not isinstance(holds, bool):
        raise ProtocolError(
            f"answer field 'holds' must be a boolean, got {holds!r}"
        )
    # NaN fails the range comparison, so it is rejected with the rest.
    if (
        isinstance(accuracy, bool)
        or not isinstance(accuracy, numbers.Real)
        or not 0.0 <= accuracy <= 1.0
    ):
        raise ProtocolError(
            f"answer field 'accuracy' must be a number in [0, 1], "
            f"got {accuracy!r}"
        )
    return int(i), int(j), bool(holds), float(accuracy)


# ----------------------------------------------------------------------
# Error envelope
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorEnvelope:
    """The uniform ``/v1`` error body."""

    status: int
    message: str
    code: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        code = self.code or ERROR_CODES.get(self.status, "error")
        error: Dict[str, Any] = {"code": code, "message": self.message}
        if self.detail:
            error["detail"] = dict(self.detail)
        return {"error": error}

    def to_legacy_payload(self) -> Dict[str, Any]:
        """The historical flat shape of the unversioned routes."""
        return {"error": self.message}


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CreateSessionRequest:
    """``POST /v1/sessions`` — create a session from an instance spec."""

    spec: InstanceSpec
    session_id: Optional[str] = None

    @classmethod
    def from_body(cls, body: Any) -> "CreateSessionRequest":
        body = _object_body(body, "create-session request")
        _require(body, ("spec",), "create-session request")
        session_id = body.get("session_id")
        if session_id is not None and not isinstance(session_id, str):
            raise ProtocolError("session_id must be a string")
        unknown = set(body) - {"spec", "session_id"}
        if unknown:
            raise ProtocolError(
                f"unknown create-session fields: {sorted(unknown)}"
            )
        return cls(
            spec=InstanceSpec.from_dict(body["spec"]), session_id=session_id
        )


@dataclass(frozen=True)
class AnswerRequest:
    """``POST /v1/sessions/<id>/answers`` — apply one crowd answer."""

    i: int
    j: int
    holds: bool
    accuracy: float = 1.0

    @classmethod
    def from_body(cls, body: Any, strict: bool = True) -> "AnswerRequest":
        """Parse an answer body.

        ``strict`` (the versioned surface) rejects unknown fields, so a
        misspelled ``accuracy`` key cannot silently apply a full-weight
        answer; the legacy routes keep their historical leniency about
        extra keys.  Field values are checked by :func:`validate_answer`
        in both modes.
        """
        body = _object_body(body, "answer")
        _require(body, ("i", "j", "holds"), "answer")
        if strict:
            unknown = set(body) - {"i", "j", "holds", "accuracy"}
            if unknown:
                raise ProtocolError(
                    f"unknown answer fields: {sorted(unknown)}"
                )
        i, j, holds, accuracy = validate_answer(
            body["i"], body["j"], body["holds"], body.get("accuracy", 1.0)
        )
        return cls(i=i, j=j, holds=holds, accuracy=accuracy)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CreateSessionResponse:
    session_id: str

    def to_payload(self) -> Dict[str, Any]:
        return {"session_id": self.session_id}


@dataclass(frozen=True)
class SessionListResponse:
    sessions: List[str]

    def to_payload(self) -> Dict[str, Any]:
        return {"sessions": list(self.sessions)}


@dataclass(frozen=True)
class ApproximationInfo:
    """Certified approximation metadata of a beam-built session.

    Attached only when the underlying TPO is approximate (certified
    ``lost_mass`` > 0), so exact-mode responses are byte-identical to the
    historical shape.  ``value_interval`` is the measure's certified
    ``[lo, hi]`` bracket on the true uncertainty value, or ``None`` when
    only the vacuous bound is available; ``engine_key`` content-addresses
    the beam configuration that produced the tree.
    """

    lost_mass: float
    engine_key: str
    value_interval: Optional[List[float]] = None

    @classmethod
    def from_dict(
        cls, payload: Optional[Mapping[str, Any]]
    ) -> Optional["ApproximationInfo"]:
        """Lift a manager ``approximation()`` dict (or ``None``)."""
        if payload is None:
            return None
        interval = payload.get("value_interval")
        return cls(
            lost_mass=float(payload["lost_mass"]),
            engine_key=str(payload["engine_key"]),
            value_interval=(
                None if interval is None else [float(v) for v in interval]
            ),
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "lost_mass": self.lost_mass,
            "value_interval": (
                None
                if self.value_interval is None
                else list(self.value_interval)
            ),
            "engine_key": self.engine_key,
        }


@dataclass(frozen=True)
class NextQuestionResponse:
    """Either the next question, or ``done`` when the session settled.

    ``approximation`` is populated only for beam-approximate sessions;
    exact sessions keep the historical two-key payload.
    """

    session_id: str
    question: Optional[Tuple[int, int]] = None
    approximation: Optional[ApproximationInfo] = None

    def to_payload(self) -> Dict[str, Any]:
        if self.question is None:
            payload: Dict[str, Any] = {
                "session_id": self.session_id,
                "done": True,
            }
        else:
            i, j = self.question
            payload = {
                "session_id": self.session_id,
                "question": {"i": i, "j": j},
            }
        if self.approximation is not None:
            payload["approximation"] = self.approximation.to_payload()
        return payload


@dataclass(frozen=True)
class AnswerResponse:
    session_id: str
    questions_asked: int
    orderings: int
    settled: bool

    @classmethod
    def from_summary(cls, summary: Mapping[str, Any]) -> "AnswerResponse":
        return cls(
            session_id=summary["session_id"],
            questions_asked=summary["questions_asked"],
            orderings=summary["orderings"],
            settled=summary["settled"],
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "questions_asked": self.questions_asked,
            "orderings": self.orderings,
            "settled": self.settled,
        }


@dataclass(frozen=True)
class SnapshotResponse:
    """Full JSON-portable state of one session (any status)."""

    session_id: str
    status: str
    spec: Dict[str, Any]
    tpo_key: str
    snapshot: Dict[str, Any]
    questions_asked: int
    orderings: int
    settled: bool
    top_k: List[int]

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "SnapshotResponse":
        return cls(**{name: snapshot[name] for name in (
            "session_id", "status", "spec", "tpo_key", "snapshot",
            "questions_asked", "orderings", "settled", "top_k",
        )})

    def to_payload(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "status": self.status,
            "spec": dict(self.spec),
            "tpo_key": self.tpo_key,
            "snapshot": dict(self.snapshot),
            "questions_asked": self.questions_asked,
            "orderings": self.orderings,
            "settled": self.settled,
            "top_k": list(self.top_k),
        }


@dataclass(frozen=True)
class CloseSessionResponse:
    session_id: str
    closed: bool = True

    def to_payload(self) -> Dict[str, Any]:
        return {"session_id": self.session_id, "closed": self.closed}


@dataclass(frozen=True)
class TopologyInfo:
    """Where one process sits in a serve deployment.

    ``role`` is ``"single"`` (the historical one-process service),
    ``"router"`` (the front end of a sharded fleet), or ``"worker"``
    (one shard of it, in which case ``shard`` says which).
    """

    role: str = "single"
    workers: int = 1
    shard: Optional[int] = None

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "role": self.role,
            "workers": self.workers,
            # Session placement is always BLAKE2b of the session id.
            "strategy": "blake2b",
        }
        if self.shard is not None:
            payload["shard"] = self.shard
        return payload


@dataclass(frozen=True)
class StatsResponse:
    """``GET /v1/stats`` on one process — typed service counters.

    The flat key set is the historical ``/stats`` shape (``sessions`` /
    ``cache`` / ``rankings`` / ``evaluations`` / ``contradictions`` /
    ``replay_skipped`` plus the manager's ``next_batches`` /
    ``next_requests``) so existing dashboards keep working; ``cache``
    is :meth:`repro.service.cache.TPOCache.stats` (flat hot-tier
    counters plus ``builds``/``cold_hits``/``cold_hit_rate`` and a nested
    ``cold`` tier block), ``store`` aliases it, and ``topology`` says
    which process of which fleet answered.
    """

    sessions: Dict[str, int]
    cache: Dict[str, Any]
    rankings: Dict[str, int]
    evaluations: int
    contradictions: int
    replay_skipped: int
    next_batches: int
    next_requests: int
    topology: TopologyInfo = field(default_factory=TopologyInfo)
    approximation: Optional[ApproximationInfo] = None

    @classmethod
    def from_manager_stats(
        cls,
        stats: Mapping[str, Any],
        topology: Optional[TopologyInfo] = None,
    ) -> "StatsResponse":
        return cls(
            sessions=dict(stats["sessions"]),
            cache=dict(stats["cache"]),
            rankings=dict(stats["rankings"]),
            evaluations=stats["evaluations"],
            contradictions=stats["contradictions"],
            replay_skipped=stats["replay_skipped"],
            next_batches=stats["next_batches"],
            next_requests=stats["next_requests"],
            topology=topology if topology is not None else TopologyInfo(),
            approximation=ApproximationInfo.from_dict(
                stats.get("approximation")
            ),
        )

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "sessions": dict(self.sessions),
            "cache": dict(self.cache),
            "store": dict(self.cache),
            "rankings": dict(self.rankings),
            "evaluations": self.evaluations,
            "contradictions": self.contradictions,
            "replay_skipped": self.replay_skipped,
            "next_batches": self.next_batches,
            "next_requests": self.next_requests,
            "topology": self.topology.to_payload(),
        }
        if self.approximation is not None:
            payload["approximation"] = self.approximation.to_payload()
        return payload


@dataclass(frozen=True)
class ClusterStatsResponse:
    """``GET /v1/stats`` on a sharded router — the fleet, aggregated.

    ``workers`` holds each worker's own :class:`StatsResponse` payload
    (tagged with its shard); the top-level blocks are fleet totals —
    summed session counts and ``/next`` counters, plus a ``store`` block
    with hot/cold hit rates and stored bytes across all workers.
    """

    topology: TopologyInfo
    workers: List[Dict[str, Any]]

    def to_payload(self) -> Dict[str, Any]:
        sessions: Dict[str, int] = {}
        next_batches = 0
        next_requests = 0
        hot_hits = hot_misses = 0
        cold_hits = cold_waited = builds = 0
        store_bytes = 0
        for worker in self.workers:
            for status, count in worker.get("sessions", {}).items():
                sessions[status] = sessions.get(status, 0) + count
            next_batches += worker.get("next_batches", 0)
            next_requests += worker.get("next_requests", 0)
            cache = worker.get("cache", {})
            hot_hits += cache.get("hits", 0)
            hot_misses += cache.get("misses", 0)
            cold_hits += cache.get("cold_hits", 0)
            cold_waited += cache.get("cold_waited", 0)
            builds += cache.get("builds", 0)
            store_bytes += cache.get("cold", {}).get("bytes", 0)
        hot_lookups = hot_hits + hot_misses
        cold_shared = cold_hits + cold_waited
        cold_consults = cold_shared + builds
        return {
            "topology": self.topology.to_payload(),
            "sessions": sessions,
            "next_batches": next_batches,
            "next_requests": next_requests,
            "store": {
                "hot_hits": hot_hits,
                "hot_misses": hot_misses,
                "hot_hit_rate": (
                    hot_hits / hot_lookups if hot_lookups else 0.0
                ),
                "cold_hits": cold_hits,
                "cold_waited": cold_waited,
                "builds": builds,
                "cold_hit_rate": (
                    cold_shared / cold_consults if cold_consults else 0.0
                ),
                "bytes": store_bytes,
            },
            "workers": [dict(worker) for worker in self.workers],
        }


@dataclass(frozen=True)
class MetaResponse:
    """``GET /v1/meta`` — what this service instance can build and serve.

    ``beam_engines`` names the registered TPO engines that accept the
    anytime beam parameters (``beam_epsilon`` / ``beam_width``) — every
    flat builder does, so today it mirrors the engine registry.
    """

    protocol: str
    version: str
    plugins: Dict[str, List[str]]
    endpoints: List[Dict[str, str]]
    topology: TopologyInfo = field(default_factory=TopologyInfo)
    beam_engines: List[str] = field(default_factory=list)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "version": self.version,
            "plugins": {k: list(v) for k, v in self.plugins.items()},
            "endpoints": [dict(e) for e in self.endpoints],
            "topology": self.topology.to_payload(),
            "beam_engines": list(self.beam_engines),
        }


__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "REASON_PHRASES",
    "ProtocolError",
    "ErrorEnvelope",
    "CreateSessionRequest",
    "AnswerRequest",
    "validate_answer",
    "CreateSessionResponse",
    "SessionListResponse",
    "ApproximationInfo",
    "NextQuestionResponse",
    "AnswerResponse",
    "SnapshotResponse",
    "CloseSessionResponse",
    "MetaResponse",
    "TopologyInfo",
    "StatsResponse",
    "ClusterStatsResponse",
]

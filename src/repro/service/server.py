"""Dependency-free asyncio HTTP front end for the session manager.

A deliberately small HTTP/1.1 implementation over ``asyncio.start_server``
(no web framework — the repo's only runtime dependency stays NumPy),
exposing the **versioned** ``/v1`` wire protocol typed out in
:mod:`repro.service.protocol`:

==========  ==================================  ===============================
method      path                                body / response
==========  ==================================  ===============================
``GET``     ``/v1/healthz``                     ``{"ok": true}``
``GET``     ``/v1/meta``                        protocol version + registered
                                                plugins + endpoint table
``GET``     ``/v1/stats``                       service counters
``GET``     ``/v1/sessions``                    ``{"sessions": [ids…]}``
``POST``    ``/v1/sessions``                    ``{"spec": {…}}`` →
                                                ``{"session_id"}``
``GET``     ``/v1/sessions/<id>``               full snapshot
``GET``     ``/v1/sessions/<id>/next``          ``{"question": {"i", "j"}}``
                                                or ``{"done": true}``
``POST``    ``/v1/sessions/<id>/answers``       ``{"i", "j", "holds",
                                                "accuracy"?}``
``POST``    ``/v1/sessions/<id>/close``         ``{"closed": true}``
==========  ==================================  ===============================

Versioned error responses use the uniform JSON envelope
(``{"error": {"code", "message", "detail"?}}``) with correct statuses:
400 on malformed bodies/specs, 404 on unknown sessions or routes, 405 —
with an ``Allow`` header — on known routes hit with the wrong method, 409
on closed sessions, and 413 on oversized bodies.  The pre-``/v1``
unversioned paths remain as deprecated aliases (flat
``{"error": "<message>"}`` bodies, a ``Deprecation: true`` header) so old
clients keep working.

``/next`` is answered on the loop thread by
:meth:`SessionManager.next_question`, whose per-state ranking memo lets
sessions in identical states share one ranking pass.

The manager is synchronous and touched from the event-loop thread, with
two deliberate exceptions that run on one :class:`ServiceThread`:

* **The durable event log.**  :func:`start_server` swaps the manager's
  eager :class:`~repro.service.manager.EventLog` for a
  :class:`~repro.service.manager.BufferedEventLog`, so mutating handlers
  append in memory (no disk I/O on the loop thread — check RPC101)
  and then await one flush hop through the service thread *before*
  responding.  A 200 still means the event is on disk; the buffered log's
  own lock covers the loop-thread/service-thread handoff.
* **Session creation.**  Fetching a session's initial space may read or
  write the TPO cache's cold tier and wait for another worker's build of
  the same tree, so ``POST /sessions`` runs
  :meth:`~repro.service.manager.SessionManager.create_session` and its
  event's flush in one hop there.  Creations are serialized there, so the
  cache and builder are only ever used by that one thread; the manager's
  loop-side readers of its session table iterate snapshots.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import queue
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.api.catalog import all_registries
from repro.service.manager import (
    ClosedSessionError,
    SessionManager,
    UnknownSessionError,
)
from repro.tpo.builders import TPOSizeError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REASON_PHRASES,
    AnswerRequest,
    AnswerResponse,
    ApproximationInfo,
    CloseSessionResponse,
    CreateSessionRequest,
    CreateSessionResponse,
    ErrorEnvelope,
    MetaResponse,
    NextQuestionResponse,
    ProtocolError,
    SessionListResponse,
    SnapshotResponse,
    StatsResponse,
    TopologyInfo,
)

MAX_BODY_BYTES = 1 << 20  # a spec or an answer is tiny; reject abuse early.


class HttpError(Exception):
    """An error with a definite HTTP status and JSON payload."""

    def __init__(
        self,
        status: int,
        message: str,
        detail: Optional[Dict[str, Any]] = None,
        allow: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.detail = dict(detail or {})
        self.allow = sorted(allow) if allow else None


class ServiceThread:
    """The server's one thread for blocking work, in submission order.

    Each call's loop future is settled by one ``call_soon_threadsafe``,
    after which the thread blocks at once: a pool executor chains a second
    future and keeps the GIL for its bookkeeping while the woken loop
    waits.  The thread ends with this object."""

    def __init__(self) -> None:
        self._calls: "queue.SimpleQueue" = queue.SimpleQueue()
        threading.Thread(
            target=_serve_calls, args=(self._calls,), name="repro-service", daemon=True
        ).start()
        weakref.finalize(self, self._calls.put, None)

    def run(self, func: Callable[[], Any]) -> "asyncio.Future":
        """Future of ``func()`` called on the service thread."""
        future = asyncio.get_running_loop().create_future()
        self._calls.put((future, func))
        return future


def _serve_calls(calls: "queue.SimpleQueue") -> None:
    for future, func in iter(calls.get, None):
        try:
            outcome = func(), None
        except BaseException as exc:
            outcome = None, exc
        with contextlib.suppress(RuntimeError):  # the loop has closed
            future.get_loop().call_soon_threadsafe(_settle, future, *outcome)


def _settle(future: "asyncio.Future", result: Any, error: Any) -> None:
    if future.cancelled():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


# ----------------------------------------------------------------------
# Request handling
# ----------------------------------------------------------------------


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, int]]:
    """Parse the request line + headers; returns ``(method, path,
    content_length)`` or ``None`` on EOF.

    Split from :func:`_read_body` so the connection handler knows the
    path — and therefore whether the client is on the versioned surface —
    before any body-level error can be raised.
    """
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = -1
            if content_length < 0:
                raise HttpError(400, "bad Content-Length")
    return method, target.split("?", 1)[0], content_length


async def _read_raw_body(
    reader: asyncio.StreamReader, content_length: int
) -> bytes:
    """Read the request body's bytes; 413, before reading any, when it is
    declared longer than :data:`MAX_BODY_BYTES`."""
    if content_length > MAX_BODY_BYTES:
        raise HttpError(
            413,
            "request body too large",
            detail={
                "max_bytes": MAX_BODY_BYTES,
                "content_length": content_length,
            },
        )
    return await reader.readexactly(content_length)


async def _read_body(
    reader: asyncio.StreamReader, content_length: int
) -> Any:
    """Read and parse the JSON request body (may raise 400/413)."""
    raw = await _read_raw_body(reader, content_length)
    if not raw:
        return {}
    try:
        body = json.loads(raw)
    except json.JSONDecodeError:
        raise HttpError(400, "request body is not valid JSON") from None
    if not isinstance(body, dict):
        raise HttpError(400, "request body must be a JSON object")
    return body


def _encode_response(
    status: int,
    payload: Dict[str, Any],
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    body = (json.dumps(payload) + "\n").encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    if extra_headers:
        headers.update(extra_headers)
    head_lines = [
        f"HTTP/1.1 {status} {REASON_PHRASES.get(status, 'Unknown')}"
    ]
    head_lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
    return head + body


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------


@dataclass
class Context:
    """Everything one request handler needs (the server keeps one without
    the request fields, shared by every connection)."""

    manager: SessionManager
    worker: ServiceThread
    topology: TopologyInfo
    body: Any = None
    params: Dict[str, str] = field(default_factory=dict)
    versioned: bool = True

    async def flush_log(self) -> None:
        """Durably write buffered event-log appends on the service thread;
        mutating handlers await this before responding ("200 ⇒ logged")."""
        await self.worker.run(self.manager.flush_log)


async def _handle_healthz(ctx: Context) -> Dict[str, Any]:
    return {"ok": True}


async def _handle_meta(ctx: Context) -> Dict[str, Any]:
    plugins = {
        kind: registry.available()
        for kind, registry in all_registries().items()
    }
    endpoints = [
        {"method": method, "path": f"/{PROTOCOL_VERSION}/{route.pattern}"}
        for route in ROUTES
        for method in sorted(route.handlers)
    ]
    return MetaResponse(
        protocol=PROTOCOL_VERSION,
        version=__version__,
        plugins=plugins,
        endpoints=endpoints,
        topology=ctx.topology,
        beam_engines=plugins.get("engines", []),
    ).to_payload()


async def _handle_stats(ctx: Context) -> Dict[str, Any]:
    return StatsResponse.from_manager_stats(
        ctx.manager.stats(), topology=ctx.topology
    ).to_payload()


async def _handle_list_sessions(ctx: Context) -> Dict[str, Any]:
    return SessionListResponse(
        sessions=ctx.manager.session_ids(status=None)
    ).to_payload()


async def _handle_create_session(ctx: Context) -> Dict[str, Any]:
    if ctx.versioned:
        try:
            request = CreateSessionRequest.from_body(ctx.body)
        except (TypeError, ValueError) as exc:
            # Spec validation failures (unknown workload, bad n/k, unknown
            # fields) are the client's fault — 400, never a 500.
            raise HttpError(400, str(exc)) from None
        spec: Any = request.spec
        session_id = request.session_id
    else:
        # Legacy leniency: a bare spec body (no "spec" wrapper) is allowed.
        spec = ctx.body.get("spec", ctx.body)
        session_id = ctx.body.get("session_id")

    def create() -> str:
        sid = ctx.manager.create_session(spec, session_id=session_id)
        ctx.manager.flush_log()
        return sid

    try:
        # Off the loop: the initial space may come from (or be published
        # to) the cold tier, or wait on another worker's build.
        sid = await ctx.worker.run(create)
    except TPOSizeError as exc:
        # An instance whose TPO blows the engine's size budget is a
        # client-side resource limit, not an internal failure — surface
        # it as 413 instead of leaking an opaque 500 (found by RPC104).
        raise HttpError(413, str(exc)) from None
    except (TypeError, ValueError) as exc:
        # TypeError covers bad generator params the spec validator cannot
        # know about (e.g. {"params": {"bogus": 1}}) — still the client's
        # fault, not a 500.
        raise HttpError(400, str(exc)) from None
    return CreateSessionResponse(session_id=sid).to_payload()


async def _handle_snapshot(ctx: Context) -> Dict[str, Any]:
    snapshot = ctx.manager.snapshot(ctx.params["session_id"])
    return SnapshotResponse.from_snapshot(snapshot).to_payload()


async def _handle_next(ctx: Context) -> Dict[str, Any]:
    sid = ctx.params["session_id"]
    question = ctx.manager.next_question(sid)
    return NextQuestionResponse(
        session_id=sid,
        question=None if question is None else (question.i, question.j),
        approximation=ApproximationInfo.from_dict(
            ctx.manager.approximation(sid)
        ),
    ).to_payload()


async def _handle_answer(ctx: Context) -> Dict[str, Any]:
    sid = ctx.params["session_id"]
    request = AnswerRequest.from_body(ctx.body, strict=ctx.versioned)
    try:
        summary = ctx.manager.submit_answer(
            sid,
            request.i,
            request.j,
            request.holds,
            accuracy=request.accuracy,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ClosedSessionError):
            raise
        raise HttpError(400, str(exc)) from None
    await ctx.flush_log()
    return AnswerResponse.from_summary(summary).to_payload()


async def _handle_close(ctx: Context) -> Dict[str, Any]:
    sid = ctx.params["session_id"]
    ctx.manager.close_session(sid)
    await ctx.flush_log()
    return CloseSessionResponse(session_id=sid).to_payload()


class Route:
    """One path pattern plus its method → handler table.

    Patterns are slash-joined literal segments with ``{name}`` wildcards
    (e.g. ``sessions/{session_id}/next``).  A request whose path matches a
    pattern but whose method has no handler is answered 405 with an
    ``Allow`` header — never a generic 404.
    """

    def __init__(
        self,
        pattern: str,
        handlers: Dict[str, Any],
        versioned_only: bool = False,
    ) -> None:
        self.pattern = pattern
        self.segments = pattern.split("/")
        self.handlers = handlers
        self.versioned_only = versioned_only

    def match(self, segments: List[str]) -> Optional[Dict[str, str]]:
        """Wildcard bindings when ``segments`` matches, else ``None``."""
        if len(segments) != len(self.segments):
            return None
        params: Dict[str, str] = {}
        for expected, actual in zip(self.segments, segments, strict=True):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params


ROUTES: List[Route] = [
    Route("healthz", {"GET": _handle_healthz}),
    Route("meta", {"GET": _handle_meta}, versioned_only=True),
    Route("stats", {"GET": _handle_stats}),
    Route(
        "sessions",
        {"GET": _handle_list_sessions, "POST": _handle_create_session},
    ),
    Route("sessions/{session_id}", {"GET": _handle_snapshot}),
    Route("sessions/{session_id}/next", {"GET": _handle_next}),
    Route("sessions/{session_id}/answers", {"POST": _handle_answer}),
    Route("sessions/{session_id}/close", {"POST": _handle_close}),
]


async def _route(
    method: str, path: str, body: Any, shared: Context
) -> Tuple[Dict[str, Any], bool]:
    """Dispatch one request; returns ``(payload, versioned)``."""
    segments = [s for s in path.split("/") if s]
    versioned = bool(segments) and segments[0] == PROTOCOL_VERSION
    if versioned:
        segments = segments[1:]
    sid: Optional[str] = None
    try:
        for route in ROUTES:
            if route.versioned_only and not versioned:
                continue
            params = route.match(segments)
            if params is None:
                continue
            handler = route.handlers.get(method)
            if handler is None:
                prefix = f"/{PROTOCOL_VERSION}/" if versioned else "/"
                raise HttpError(
                    405,
                    f"{method} not allowed on {prefix}{route.pattern}",
                    detail={"allow": sorted(route.handlers)},
                    allow=route.handlers,
                )
            sid = params.get("session_id")
            ctx = Context(
                shared.manager,
                shared.worker,
                shared.topology,
                body,
                params,
                versioned,
            )
            return await handler(ctx), versioned
        raise HttpError(404, f"no route for {method} {path}")
    except ProtocolError as exc:
        raise HttpError(400, str(exc)) from None
    except UnknownSessionError:
        raise HttpError(404, f"no session {sid!r}") from None
    except ClosedSessionError as exc:
        raise HttpError(409, str(exc)) from None


def _error_payload(
    status: int,
    message: str,
    detail: Optional[Dict[str, Any]],
    versioned: bool,
) -> Dict[str, Any]:
    envelope = ErrorEnvelope(status=status, message=message, detail=detail or {})
    return envelope.to_payload() if versioned else envelope.to_legacy_payload()


async def _handle_connection(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, shared: Context
) -> None:
    status, payload = 500, {"error": "internal error"}
    headers: Dict[str, str] = {}
    versioned = True
    try:
        head = await _read_head(reader)
        if head is None:
            return
        method, path, content_length = head
        versioned = [s for s in path.split("/") if s][:1] == [
            PROTOCOL_VERSION
        ]
        body = await _read_body(reader, content_length)
        payload, versioned = await _route(method, path, body, shared)
        status = 200
    except HttpError as exc:
        status = exc.status
        payload = _error_payload(
            exc.status, exc.message, exc.detail, versioned
        )
        if exc.allow:
            headers["Allow"] = ", ".join(exc.allow)
    except Exception as exc:  # pragma: no cover - defensive catch-all
        status = 500
        payload = _error_payload(
            500, f"{type(exc).__name__}: {exc}", None, versioned
        )
    finally:
        if not versioned:
            headers.setdefault("Deprecation", "true")
        try:
            writer.write(_encode_response(status, payload, headers))
            writer.write_eof()  # the FIN now, not after a close callback
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (OSError, RuntimeError):  # client went away
            pass


async def start_server(
    manager: SessionManager,
    host: str = "127.0.0.1",
    port: int = 8080,
    topology: Optional[TopologyInfo] = None,
) -> "asyncio.AbstractServer":
    """Bind the service; the caller drives ``serve_forever`` (or tests
    poke it and close).

    Also moves the manager's event log into deferred mode
    (:meth:`SessionManager.defer_log_writes`) with a
    :class:`ServiceThread` doing the actual disk writes — handlers append
    in memory and await the flush, so the event loop never blocks on the
    log file — and session creation.  ``topology`` is what ``/v1/meta``
    and ``/v1/stats`` report as this process's place in the deployment
    (defaults to the single-process role).
    """
    manager.defer_log_writes()
    shared = Context(
        manager,
        ServiceThread(),
        topology if topology is not None else TopologyInfo(),
    )

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(reader, writer, shared)

    return await asyncio.start_server(handler, host=host, port=port)


async def serve(
    manager: SessionManager,
    host: str = "127.0.0.1",
    port: int = 8080,
    topology: Optional[TopologyInfo] = None,
) -> None:
    """Run the service until cancelled (the ``repro serve`` entry point)."""
    server = await start_server(
        manager, host=host, port=port, topology=topology
    )
    addresses = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in server.sockets or []
    )
    print(
        f"repro service listening on {addresses} "
        f"(protocol /{PROTOCOL_VERSION})"
    )
    async with server:
        await server.serve_forever()


__all__ = [
    "start_server",
    "serve",
    "HttpError",
    "Route",
    "ROUTES",
]

"""Sharded multi-worker serve runtime: router + worker fleet.

``repro serve --workers N`` runs N single-threaded worker processes,
each an ordinary :class:`~repro.service.manager.SessionManager` behind
the asyncio front end of :mod:`repro.service.server`, plus one asyncio
**router** process (this module) that owns the public ``host:port``::

                        ┌────────────┐
        clients ──────▶ │   router   │  shard = BLAKE2b(session_id) % N
                        └─────┬──────┘
              ┌───────────────┼───────────────┐
        ┌─────▼─────┐   ┌─────▼─────┐   ┌─────▼─────┐
        │ worker 0  │   │ worker 1  │   │ worker N-1│   (loopback, port 0)
        │ hot cache │   │ hot cache │   │ hot cache │
        └─────┬─────┘   └─────┬─────┘   └─────┬─────┘
              └───────────────┼───────────────┘
                        ┌─────▼──────┐
                        │ cold tier  │  shared content-addressed npz
                        └────────────┘

Every session lives on exactly one worker — :func:`shard_for` hashes the
session id with BLAKE2b, so any router (or a client that knows the
recipe) computes the same placement without coordination.  The router
assigns ids to ``POST /sessions`` bodies that lack one, then proxies
session-scoped requests verbatim; fleet-level reads (``/v1/healthz``,
``/v1/meta``, ``/v1/stats``, ``GET /v1/sessions``) fan out to every
worker and merge.  TPOs cross the process boundary through the shared
cold tier configured by :class:`~repro.api.specs.StoreSpec` — a worker
that builds a tree publishes its npz form once; its siblings deserialize
it instead of rebuilding.

Workers are crash-isolated: each logs to its own event-log file
(:func:`worker_log_path`), and the router's monitor restarts a dead
worker with ``resume=True``, replaying that log to the exact pre-crash
state — the same bit-identical resume contract the single-process
service has always had, now per shard.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api.canonical import content_key
from repro.api.specs import ServeSpec
from repro.service.manager import SessionManager
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ClusterStatsResponse,
    ErrorEnvelope,
    TopologyInfo,
)
from repro.service.server import (
    HttpError,
    _encode_response,
    _read_head,
    _read_raw_body,
    start_server,
)

PathLike = Union[str, Path]

#: How long the parent waits for a freshly started worker to report its
#: port before declaring the launch failed.
WORKER_START_TIMEOUT = 60.0


def shard_for(session_id: str, workers: int) -> int:
    """Which worker owns ``session_id`` — stable across processes.

    The digest is :func:`repro.api.canonical.content_key` — the same
    BLAKE2b-over-canonical-JSON recipe as every other content address in
    the repo — so any router (or client) computes the same placement;
    the digest is uniform, so sessions spread evenly over any worker
    count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(content_key(session_id, digest_size=8), 16) % workers


def worker_log_path(base: Optional[PathLike], shard: int) -> Optional[Path]:
    """The per-shard event-log file derived from the fleet's base path.

    ``events.jsonl`` → ``events.w0.jsonl`` / ``events.w1.jsonl`` / …, so
    each worker appends (and replays) only its own sessions and a
    restart never contends on a sibling's log.
    """
    if base is None:
        return None
    path = Path(base)
    return path.with_name(f"{path.stem}.w{shard}{path.suffix}")


def build_worker_manager(
    spec: ServeSpec, shard: int, resume: bool = False
) -> SessionManager:
    """One shard's session manager: TPO cache over the shared cold tier + per-shard log."""
    from repro.api.specs import EngineSpec

    store = spec.store.build()
    builder = EngineSpec("grid", {"resolution": spec.resolution}).build()
    log = worker_log_path(spec.log, shard)
    if resume and log is not None and log.exists():
        return SessionManager.resume(log, cache=store, builder=builder)
    return SessionManager(cache=store, log_path=log, builder=builder)


async def _run_worker(
    conn: Any, spec: ServeSpec, shard: int, resume: bool
) -> None:
    manager = build_worker_manager(spec, shard, resume)
    topology = TopologyInfo(
        role="worker",
        workers=spec.workers,
        shard=shard,
    )
    server = await start_server(
        manager, host="127.0.0.1", port=0, topology=topology
    )
    sockets = server.sockets or []
    conn.send(sockets[0].getsockname()[1])
    conn.close()
    async with server:
        await server.serve_forever()


def _worker_entry(
    conn: Any, spec_payload: Dict[str, Any], shard: int, resume: bool
) -> None:
    """Process target for one worker (module-level so spawn can pickle)."""
    spec = ServeSpec.from_dict(spec_payload)
    try:
        asyncio.run(_run_worker(conn, spec, shard, resume))
    except KeyboardInterrupt:
        pass


def _parse_http_response(raw: bytes) -> Tuple[int, Any]:
    """Status code + decoded JSON body of a raw worker response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    parts = status_line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(502, "worker sent a malformed response")
    try:
        payload = json.loads(body) if body.strip() else {}
    except json.JSONDecodeError:
        raise HttpError(502, "worker sent a non-JSON body") from None
    return int(parts[1]), payload


#: Fleet-level GET paths the router answers by merging every worker.
_FANOUT_PATHS = {"healthz", "meta", "stats", "sessions"}


class ShardedService:
    """The router process: owns the worker fleet and the public socket.

    Lifecycle: :meth:`start_workers` (synchronous, before any event
    loop), then either
    :meth:`run` (serve until cancelled, the CLI path) or :meth:`start`
    (bind and return, the test path) …finally :meth:`stop_workers`.
    """

    def __init__(
        self,
        spec: ServeSpec,
        resume: bool = False,
        mp_context: Optional[str] = None,
        monitor_interval: float = 0.1,
    ) -> None:
        self.spec = spec
        self.resume = resume
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "forkserver" if "forkserver" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        if mp_context == "forkserver":
            # The monitor restarts workers while the router serves.  A
            # plain fork would give the new worker copies of the router's
            # listening and client sockets, and a client reading its
            # response to EOF would then wait as long as that worker
            # lives.  Forkserver children start from a clean process;
            # preloading this module keeps their start as fast as a fork.
            self._ctx.set_forkserver_preload(["repro.service.sharding"])
        self.monitor_interval = float(monitor_interval)
        self._procs: List[Any] = [None] * spec.workers
        self._ports: List[Optional[int]] = [None] * spec.workers
        self.restarts = 0
        self._monitor_task: Optional["asyncio.Task"] = None
        self._server: Optional["asyncio.AbstractServer"] = None
        self.topology = TopologyInfo(
            role="router",
            workers=spec.workers,
        )

    # -- worker lifecycle ----------------------------------------------

    def start_workers(self) -> None:
        """Start the fleet and wait for every worker to report its port."""
        for shard in range(self.spec.workers):
            self._launch(shard, resume=self.resume)

    def _launch(self, shard: int, resume: bool) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(child, self.spec.to_dict(), shard, resume),
            daemon=True,
            name=f"repro-serve-w{shard}",
        )
        proc.start()
        child.close()
        if not parent.poll(WORKER_START_TIMEOUT):
            proc.terminate()
            raise RuntimeError(
                f"worker {shard} did not report a port within "
                f"{WORKER_START_TIMEOUT}s"
            )
        port = parent.recv()
        parent.close()
        self._procs[shard] = proc
        self._ports[shard] = int(port)

    def stop_workers(self) -> None:
        """Terminate and reap every live worker process."""
        for shard, proc in enumerate(self._procs):
            if proc is None:
                continue
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
            self._procs[shard] = None
            self._ports[shard] = None

    async def _monitor(self) -> None:
        """Restart dead workers (always resuming from their shard log)."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.monitor_interval)
            for shard, proc in enumerate(self._procs):
                if proc is None or proc.is_alive():
                    continue
                self.restarts += 1
                # _launch blocks on the pipe handshake — keep it off the
                # loop thread so in-flight requests to live shards drain.
                await loop.run_in_executor(
                    None, self._launch, shard, True
                )

    # -- routing -------------------------------------------------------

    async def _forward_raw(
        self, shard: int, method: str, path: str, body: bytes
    ) -> bytes:
        """Proxy one request to a worker; returns its raw HTTP response."""
        port = self._ports[shard]
        if port is None:
            raise HttpError(502, f"worker {shard} is not running")
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
        except OSError:
            raise HttpError(
                502,
                f"worker {shard} is unreachable",
                detail={"shard": shard},
            ) from None
        try:
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{port}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + body)
            await writer.drain()
            raw = await reader.read(-1)  # workers close after responding
        except (ConnectionError, asyncio.IncompleteReadError):
            raise HttpError(
                502,
                f"worker {shard} dropped the connection",
                detail={"shard": shard},
            ) from None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if not raw:
            raise HttpError(502, f"worker {shard} sent no response")
        return raw

    async def _forward_json(
        self, shard: int, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Any]:
        return _parse_http_response(
            await self._forward_raw(shard, method, path, body)
        )

    async def _fanout(
        self, leaf: str, method: str, path: str
    ) -> Dict[str, Any]:
        """Merge a fleet-level read across every worker."""
        results = await asyncio.gather(
            *(
                self._forward_json(shard, method, path)
                for shard in range(self.spec.workers)
            )
        )
        payloads = []
        for shard, (status, payload) in enumerate(results):
            if status != 200:
                raise HttpError(
                    502,
                    f"worker {shard} answered {status} to {path}",
                    detail={"shard": shard, "status": status},
                )
            payloads.append(payload)
        if leaf == "healthz":
            return {"ok": all(p.get("ok") is True for p in payloads)}
        if leaf == "sessions":
            merged: List[str] = []
            for payload in payloads:
                merged.extend(payload.get("sessions", []))
            return {"sessions": sorted(merged)}
        if leaf == "stats":
            workers = [
                dict(payload, shard=shard)
                for shard, payload in enumerate(payloads)
            ]
            return ClusterStatsResponse(
                topology=self.topology, workers=workers
            ).to_payload()
        # meta: every worker enumerates the same catalog — report worker
        # 0's view with the router's own place in the topology.
        meta = dict(payloads[0])
        meta["topology"] = self.topology.to_payload()
        return meta

    async def _dispatch(
        self, method: str, path: str, raw_body: bytes
    ) -> bytes:
        segments = [s for s in path.split("/") if s]
        if segments[:1] == [PROTOCOL_VERSION]:
            segments = segments[1:]
        if (
            method == "GET"
            and len(segments) == 1
            and segments[0] in _FANOUT_PATHS
        ):
            payload = await self._fanout(segments[0], method, path)
            return _encode_response(200, payload)
        if method == "POST" and segments == ["sessions"]:
            return await self._route_create(method, path, raw_body)
        if len(segments) >= 2 and segments[0] == "sessions":
            shard = shard_for(segments[1], self.spec.workers)
            return await self._forward_raw(shard, method, path, raw_body)
        # Anything else (unknown routes, wrong methods on fleet paths):
        # let a worker produce the protocol-correct 404/405 envelope.
        return await self._forward_raw(0, method, path, raw_body)

    async def _route_create(
        self, method: str, path: str, raw_body: bytes
    ) -> bytes:
        """Place a new session: assign an id if absent, hash it to a
        shard, and forward the (possibly re-encoded) body there."""
        import secrets

        try:
            body = json.loads(raw_body) if raw_body.strip() else {}
        except json.JSONDecodeError:
            raise HttpError(
                400, "request body is not valid JSON"
            ) from None
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        session_id = body.get("session_id")
        if session_id is None:
            session_id = secrets.token_hex(8)
            if "spec" in body:
                body = dict(body, session_id=session_id)
            else:
                # Legacy bare-spec body: wrap it so the injected id is
                # not mistaken for a spec field.
                body = {"spec": body, "session_id": session_id}
            raw_body = json.dumps(body).encode("utf-8")
        elif not isinstance(session_id, str):
            raise HttpError(400, "session_id must be a string")
        shard = shard_for(session_id, self.spec.workers)
        return await self._forward_raw(shard, method, path, raw_body)

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        versioned = True
        try:
            head = await _read_head(reader)
            if head is None:
                return
            method, path, content_length = head
            versioned = [s for s in path.split("/") if s][:1] == [
                PROTOCOL_VERSION
            ]
            raw_body = await _read_raw_body(reader, content_length)
            response = await self._dispatch(method, path, raw_body)
        except HttpError as exc:
            envelope = ErrorEnvelope(
                status=exc.status, message=exc.message, detail=exc.detail
            )
            payload = (
                envelope.to_payload()
                if versioned
                else envelope.to_legacy_payload()
            )
            response = _encode_response(exc.status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except Exception as exc:  # pragma: no cover - defensive
            envelope = ErrorEnvelope(
                status=500, message=f"{type(exc).__name__}: {exc}"
            )
            response = _encode_response(500, envelope.to_payload())
        try:
            writer.write(response)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError, OSError):
            pass

    # -- running -------------------------------------------------------

    async def start(self) -> "asyncio.AbstractServer":
        """Bind the router socket and start the worker monitor.

        The workers must already be running (:meth:`start_workers`).
        Returns the bound server so callers — tests, mainly — can read
        the real port and close it when done.
        """
        self._server = await asyncio.start_server(
            self._handle_client, host=self.spec.host, port=self.spec.port
        )
        self._monitor_task = asyncio.ensure_future(self._monitor())
        return self._server

    async def run(self) -> None:
        """Serve until cancelled (the multi-worker ``repro serve`` path)."""
        server = await self.start()
        addresses = ", ".join(
            f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
            for sock in server.sockets or []
        )
        print(
            f"repro service router on {addresses} "
            f"({self.spec.workers} workers, shard by blake2b, "
            f"protocol /{PROTOCOL_VERSION})"
        )
        try:
            async with server:
                await server.serve_forever()
        finally:
            await self.shutdown()

    async def shutdown(self) -> None:
        """Cancel the monitor and tear the fleet down."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._monitor_task = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.stop_workers)


def run_sharded(spec: ServeSpec, resume: bool = False) -> None:
    """Start the fleet and block in the router loop (CLI entry point)."""
    service = ShardedService(spec, resume=resume)
    service.start_workers()
    try:
        asyncio.run(service.run())
    finally:
        service.stop_workers()


__all__ = [
    "shard_for",
    "worker_log_path",
    "build_worker_manager",
    "ShardedService",
    "run_sharded",
    "WORKER_START_TIMEOUT",
]

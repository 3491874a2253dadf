"""Regression tests for the non-blocking event-log path (check RPC101).

The asyncio server must never ``open()`` the event log on the loop thread:
mutating handlers append to a :class:`BufferedEventLog` (pure in-memory)
and await one flush hop through a single-thread executor before
responding.  These tests pin both halves of that contract — the loop
never blocks, and a 200 response still means the event is on disk.
"""

import asyncio
import json
import threading

import pytest

import repro.service.manager as manager_module
from repro.experiments.store import ensure_trailing_newline
from repro.service.manager import (
    BufferedEventLog,
    EventLog,
    SessionManager,
)
from repro.service.server import start_server
from repro.tpo.builders import GridBuilder

SPEC = {
    "workload": "uniform",
    "n": 8,
    "k": 3,
    "seed": 5,
    "params": {"width": 0.3},
}


def make_manager(**kwargs):
    kwargs.setdefault("builder", GridBuilder(resolution=256))
    return SessionManager(**kwargs)


class TestBufferedEventLog:
    def test_append_touches_no_disk_until_flush(self, tmp_path):
        log = BufferedEventLog(tmp_path / "events.jsonl")
        log.append({"event": "create", "session_id": "a"})
        log.append({"event": "close", "session_id": "a"})
        assert not log.path.exists()
        assert log.pending == 2
        assert log.flush() == 2
        assert log.pending == 0
        assert [e["event"] for e in log.load()] == ["create", "close"]

    def test_flush_preserves_append_order(self, tmp_path):
        log = BufferedEventLog(tmp_path / "events.jsonl")
        for index in range(20):
            log.append({"event": "answer", "n": index})
        log.flush()
        assert [e["n"] for e in log.load()] == list(range(20))

    def test_flush_on_empty_buffer_is_noop(self, tmp_path):
        log = BufferedEventLog(tmp_path / "events.jsonl")
        assert log.flush() == 0
        assert not log.path.exists()

    def test_flush_heals_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "create", "session_id": "a"}\n{"event": ')
        log = BufferedEventLog(path)
        log.append({"event": "close", "session_id": "a"})
        log.flush()
        assert [e["event"] for e in log.load()] == ["create", "close"]

    def test_concurrent_appends_and_flushes(self, tmp_path):
        """Threaded appenders + flushers lose and duplicate nothing."""
        log = BufferedEventLog(tmp_path / "events.jsonl")
        per_thread = 50

        def appender(worker):
            for index in range(per_thread):
                log.append({"event": "answer", "w": worker, "n": index})

        def flusher():
            for _ in range(10):
                log.flush()

        threads = [
            threading.Thread(target=appender, args=(w,)) for w in range(4)
        ] + [threading.Thread(target=flusher) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.flush()
        events = log.load()
        assert len(events) == 4 * per_thread
        for worker in range(4):
            ordered = [e["n"] for e in events if e["w"] == worker]
            assert ordered == list(range(per_thread))

    def test_tail_is_healed_once_per_log(self, tmp_path, monkeypatch):
        heals = []

        def counting(path):
            heals.append(path)
            ensure_trailing_newline(path)

        monkeypatch.setattr(
            "repro.service.manager.ensure_trailing_newline", counting
        )
        log = BufferedEventLog(tmp_path / "logs" / "events.jsonl")
        for n in range(5):
            log.append({"event": "answer", "n": n})
            assert log.flush() == 1
        assert len(heals) == 1
        assert [e["n"] for e in log.load()] == list(range(5))

    def test_write_after_a_failed_write_heals_the_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = BufferedEventLog(path)
        log.append({"event": "create", "session_id": "a"})
        log.flush()
        log.append({"event": "answer", "session_id": "a", "x": float("nan")})
        with pytest.raises(ValueError):
            log.flush()
        # What a write killed halfway leaves behind.
        with open(path, "a") as handle:
            handle.write('{"event": "answer", "sess')
        log.append({"event": "close", "session_id": "a"})
        log.flush()
        assert [e["event"] for e in log.load()] == ["create", "close"]

    def test_flush_after_an_os_error_writes_every_event_once(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "events.jsonl"
        log = BufferedEventLog(path)
        log.append({"event": "create", "session_id": "a"})
        log.flush()
        events = [
            {"event": "create", "session_id": "b"},
            {"event": "answer", "session_id": "a", "i": 0, "j": 1},
            {"event": "answer", "session_id": "b", "i": 2, "j": 3},
        ]
        for event in events:
            log.append(event)

        class DiskFull:
            """A file that takes one line and half of the next."""

            def __init__(self, handle):
                self.handle = handle
                self.lines = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def tell(self):
                return self.handle.tell()

            def flush(self):
                self.handle.flush()

            def write(self, text):
                self.lines += 1
                if self.lines == 2:
                    self.handle.write(text[:10])
                    self.handle.flush()
                    raise OSError(28, "No space left on device")
                self.handle.write(text)

        monkeypatch.setattr(
            manager_module,
            "open",
            lambda *args: DiskFull(open(*args)),
            raising=False,
        )
        with pytest.raises(OSError):
            log.flush()
        monkeypatch.undo()
        assert log.pending == len(events)
        assert [e["session_id"] for e in log.load()] == ["a"]
        assert log.flush() == len(events)
        assert log.flush() == 0
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"event": "create", "session_id": "a"},
            *events,
        ]

    def test_eager_log_flush_is_noop(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.append({"event": "create", "session_id": "a"})
        # Eager appends are durable immediately; flush has nothing to do.
        assert log.flush() == 0
        assert [e["event"] for e in log.load()] == ["create"]


class TestManagerDeferredLog:
    def test_defer_swaps_log_and_is_idempotent(self, tmp_path):
        manager = make_manager(log_path=tmp_path / "events.jsonl")
        assert isinstance(manager._log, EventLog)
        assert not isinstance(manager._log, BufferedEventLog)
        assert manager.defer_log_writes() is True
        buffered = manager._log
        assert isinstance(buffered, BufferedEventLog)
        assert manager.defer_log_writes() is True
        assert manager._log is buffered

    def test_defer_without_log_reports_false(self):
        manager = make_manager()
        assert manager.defer_log_writes() is False
        assert manager.flush_log() == 0

    def test_events_hit_disk_only_on_flush(self, tmp_path):
        path = tmp_path / "events.jsonl"
        manager = make_manager(log_path=path)
        manager.defer_log_writes()
        sid = manager.create_session(SPEC)
        question = manager.next_question(sid)
        manager.submit_answer(sid, question.i, question.j, True)
        assert not path.exists()
        assert manager.flush_log() == 2
        events = EventLog(path).load()
        assert [e["event"] for e in events] == ["create", "answer"]
        assert manager.flush_log() == 0  # drained

    def test_resume_from_flushed_deferred_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        manager = make_manager(log_path=path)
        manager.defer_log_writes()
        sid = manager.create_session(SPEC)
        for _ in range(3):
            question = manager.next_question(sid)
            if question is None:
                break
            manager.submit_answer(sid, question.i, question.j, True)
        manager.flush_log()
        resumed = SessionManager.resume(
            path, builder=GridBuilder(resolution=256)
        )
        assert resumed.session_ids() == [sid]
        assert resumed.questions_asked(sid) == manager.questions_asked(sid)
        assert resumed.next_question(sid) == manager.next_question(sid)


async def _http(host, port, method, path, body=None):
    """Minimal HTTP/1.1 client: one request, one JSON response."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])


class TestServerDurability:
    def test_mutations_are_on_disk_before_the_response(self, tmp_path):
        """200 ⇒ logged, even though handlers never open() on the loop."""
        path = tmp_path / "events.jsonl"

        async def scenario():
            manager = make_manager(log_path=path)
            server = await start_server(manager, port=0)
            # start_server moved the log into deferred (buffered) mode.
            assert isinstance(manager._log, BufferedEventLog)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                status, created = await _http(
                    host, port, "POST", "/v1/sessions", {"spec": SPEC}
                )
                assert status == 200
                sid = created["session_id"]
                # The create event was flushed before the 200 reached us.
                assert [e["event"] for e in EventLog(path).load()] == [
                    "create"
                ]
                status, question = await _http(
                    host, port, "GET", f"/v1/sessions/{sid}/next"
                )
                assert status == 200
                i, j = question["question"]["i"], question["question"]["j"]
                status, _ = await _http(
                    host,
                    port,
                    "POST",
                    f"/v1/sessions/{sid}/answers",
                    {"i": i, "j": j, "holds": True},
                )
                assert status == 200
                status, _ = await _http(
                    host, port, "POST", f"/v1/sessions/{sid}/close"
                )
                assert status == 200
                assert manager._log.pending == 0
                return sid
            finally:
                server.close()
                await server.wait_closed()

        sid = asyncio.run(scenario())
        events = EventLog(path).load()
        assert [e["event"] for e in events] == ["create", "answer", "close"]
        resumed = SessionManager.resume(
            path, builder=GridBuilder(resolution=256)
        )
        assert resumed.questions_asked(sid) == 1
        assert resumed._get(sid).status == "closed"

    def test_unlogged_manager_still_serves(self, tmp_path):
        """No log configured → no executor, handlers still respond."""

        async def scenario():
            manager = make_manager()
            server = await start_server(manager, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                status, created = await _http(
                    host, port, "POST", "/v1/sessions", {"spec": SPEC}
                )
                assert status == 200
                status, _ = await _http(
                    host,
                    port,
                    "POST",
                    f"/v1/sessions/{created['session_id']}/close",
                )
                assert status == 200
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

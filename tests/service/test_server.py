"""Tests for the asyncio HTTP front end (raw sockets, no HTTP library)."""

import asyncio
import gc
import json
import threading

import pytest

from repro.service.manager import SessionManager
from repro.service.server import ServiceThread, start_server
from repro.tpo.builders import GridBuilder

SPEC = {
    "workload": "uniform",
    "n": 8,
    "k": 3,
    "seed": 5,
    "params": {"width": 0.3},
}


async def http(host, port, method, path, body=None):
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


def with_server(coro):
    """Run ``coro(host, port, manager)`` against a live server."""

    async def runner():
        manager = SessionManager(builder=GridBuilder(resolution=256))
        server = await start_server(manager, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await coro(host, port, manager)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(runner())


class TestRoutes:
    def test_healthz(self):
        async def scenario(host, port, manager):
            assert await http(host, port, "GET", "/healthz") == (
                200,
                {"ok": True},
            )

        with_server(scenario)

    def test_session_lifecycle_over_http(self):
        async def scenario(host, port, manager):
            status, created = await http(
                host, port, "POST", "/sessions", {"spec": SPEC}
            )
            assert status == 200
            sid = created["session_id"]

            status, nxt = await http(
                host, port, "GET", f"/sessions/{sid}/next"
            )
            assert status == 200 and "question" in nxt
            question = nxt["question"]

            status, applied = await http(
                host,
                port,
                "POST",
                f"/sessions/{sid}/answers",
                {"i": question["i"], "j": question["j"], "holds": True},
            )
            assert status == 200
            assert applied["questions_asked"] == 1

            status, snapshot = await http(
                host, port, "GET", f"/sessions/{sid}"
            )
            assert status == 200
            assert snapshot["snapshot"]["answers"] == [
                [question["i"], question["j"], True, 1.0]
            ]
            assert len(snapshot["top_k"]) == 3

            status, closed = await http(
                host, port, "POST", f"/sessions/{sid}/close"
            )
            assert status == 200 and closed["closed"] is True
            status, _ = await http(host, port, "GET", f"/sessions/{sid}/next")
            assert status == 409

        with_server(scenario)

    def test_concurrent_next_requests_coalesce(self):
        async def scenario(host, port, manager):
            for sid in ("a", "b", "c"):
                await http(
                    host,
                    port,
                    "POST",
                    "/sessions",
                    {"spec": SPEC, "session_id": sid},
                )
            responses = await asyncio.gather(
                *(
                    http(host, port, "GET", f"/sessions/{sid}/next")
                    for sid in ("a", "b", "c")
                )
            )
            questions = {body["question"]["i"] for _, body in responses}
            assert len(questions) == 1  # identical states, identical pick
            # All three shared one ranking pass through the memo.
            assert manager.rankings_computed == 1
            assert manager.rankings_memo_hits == 2

        with_server(scenario)

    def test_concurrent_next_with_an_unknown_id_fails_alone(self):
        async def scenario(host, port, manager):
            for sid in ("a", "b"):
                await http(
                    host,
                    port,
                    "POST",
                    "/v1/sessions",
                    {"spec": SPEC, "session_id": sid},
                )
            (status_a, a), (status_ghost, ghost), (status_b, b) = (
                await asyncio.gather(
                    http(host, port, "GET", "/v1/sessions/a/next"),
                    http(host, port, "GET", "/v1/sessions/ghost/next"),
                    http(host, port, "GET", "/v1/sessions/b/next"),
                )
            )
            assert (status_a, status_ghost, status_b) == (200, 404, 200)
            assert ghost["error"]["code"] == "not_found"
            assert a["question"] == b["question"]

        with_server(scenario)

    def test_errors_are_json_with_status(self):
        async def scenario(host, port, manager):
            status, body = await http(host, port, "GET", "/sessions/ghost")
            assert status == 404 and "error" in body
            status, body = await http(
                host, port, "POST", "/sessions", {"spec": {"workload": "nope"}}
            )
            assert status == 400 and "error" in body
            # Bad *generator* params surface as TypeError deep inside the
            # workload factory — still a client error, never a 500.
            status, body = await http(
                host,
                port,
                "POST",
                "/sessions",
                {"spec": {**SPEC, "params": {"bogus": 1}}},
            )
            assert status == 400 and "error" in body
            status, body = await http(host, port, "GET", "/nope")
            assert status == 404
            status, body = await http(host, port, "PUT", "/sessions")
            assert status == 405
            sid_status, created = await http(
                host, port, "POST", "/sessions", {"spec": SPEC}
            )
            sid = created["session_id"]
            status, body = await http(
                host, port, "POST", f"/sessions/{sid}/answers", {"i": 0}
            )
            assert status == 400 and "holds" in body["error"]

        with_server(scenario)

    def test_unknown_method_on_known_route_is_405_with_allow(self):
        """Wrong method on a *known* route must never fall through to the
        generic 404 path: 405, an Allow header, and a JSON body."""

        async def scenario(host, port, manager):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                (
                    f"DELETE /sessions/some-id HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: 0\r\n\r\n"
                ).encode()
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, body_raw = raw.partition(b"\r\n\r\n")
            assert b" 405 " in head.split(b"\r\n", 1)[0]
            header_lines = head.decode("latin-1").split("\r\n")[1:]
            headers = dict(
                line.split(": ", 1) for line in header_lines if ": " in line
            )
            assert headers["Allow"] == "GET"
            assert json.loads(body_raw)["error"] == (
                "DELETE not allowed on /sessions/{session_id}"
            )
            # The same request against a multi-method route lists them all.
            status, body = await http(host, port, "PATCH", "/sessions")
            assert status == 405
            assert "GET" in body["error"] or "not allowed" in body["error"]

        with_server(scenario)

    def test_malformed_json_body_is_400(self):
        async def scenario(host, port, manager):
            reader, writer = await asyncio.open_connection(host, port)
            payload = b"{not json"
            writer.write(
                (
                    f"POST /sessions HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                ).encode()
                + payload
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b" 400 " in raw.split(b"\r\n", 1)[0]

        with_server(scenario)

    def test_stats_includes_batcher_counters(self):
        async def scenario(host, port, manager):
            await http(
                host,
                port,
                "POST",
                "/sessions",
                {"spec": SPEC, "session_id": "a"},
            )
            await http(host, port, "GET", "/sessions/a/next")
            status, stats = await http(host, port, "GET", "/stats")
            assert status == 200
            assert stats["next_requests"] == 1
            assert stats["cache"]["misses"] == 1
            status, listing = await http(host, port, "GET", "/sessions")
            assert listing["sessions"] == ["a"]

        with_server(scenario)

    def test_session_creation_runs_off_the_event_loop(self):
        # A slow cold tier (a read, or a wait on another worker's build)
        # must not stall the requests of other sessions.
        import threading

        from repro.service.cache import TPOCache
        from repro.service.store import ColdTier

        entered, release = threading.Event(), threading.Event()
        threads = []

        class SlowTier(ColdTier):
            def _load(self, key, distributions):
                threads.append(threading.current_thread())
                entered.set()
                release.wait(timeout=10)
                return None

        async def runner():
            manager = SessionManager(
                cache=TPOCache(cold=SlowTier()),
                builder=GridBuilder(resolution=256),
            )
            server = await start_server(manager, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            loop = asyncio.get_running_loop()
            try:
                create = asyncio.ensure_future(
                    http(host, port, "POST", "/v1/sessions", {"spec": SPEC})
                )
                assert await loop.run_in_executor(None, entered.wait, 10)
                assert await http(host, port, "GET", "/v1/healthz") == (
                    200,
                    {"ok": True},
                )
                release.set()
                status, created = await create
                assert status == 200 and "session_id" in created
            finally:
                release.set()
                server.close()
                await server.wait_closed()

        asyncio.run(runner())
        assert threads and threads[0] is not threading.main_thread()

    def test_reads_stay_consistent_while_creations_run_off_loop(self):
        # Creations insert into the manager's session table on the
        # executor thread while list/stats iterate it on the loop thread.
        import sys

        from repro.service.cache import TPOCache
        from repro.service.store import MemoryColdTier

        count, preloaded = 24, 2000

        async def scenario(host, port, manager):
            async def create(index):
                spec = {**SPEC, "n": 6, "k": 2, "seed": index % 4}
                body = {"spec": spec, "session_id": f"s{index}"}
                return await http(host, port, "POST", "/v1/sessions", body)

            async def read(index):
                path = "/v1/sessions" if index % 2 else "/v1/stats"
                return await http(host, port, "GET", path)

            results = await asyncio.gather(
                *[create(i) for i in range(count)],
                *[read(i) for i in range(2 * count)],
            )
            assert [status for status, _ in results] == [200] * (3 * count)
            status, listing = await http(host, port, "GET", "/v1/sessions")
            assert sorted(listing["sessions"]) == sorted(
                [f"p{i}" for i in range(preloaded)]
                + [f"s{i}" for i in range(count)]
            )
            status, stats = await http(host, port, "GET", "/v1/stats")
            assert stats["sessions"] == {"active": preloaded + count}
            assert stats["cache"]["builds"] == 5
            assert stats["cache"]["cold"]["entries"] == 5

        async def runner():
            manager = SessionManager(
                cache=TPOCache(cold=MemoryColdTier()),
                builder=GridBuilder(resolution=256),
            )
            # A long table makes each loop-side iteration span many
            # thread switches.
            for index in range(preloaded):
                manager.create_session(SPEC, session_id=f"p{index}")
            server = await start_server(manager, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                await asyncio.wait_for(scenario(host, port, manager), 60)
            finally:
                server.close()
                await server.wait_closed()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            asyncio.run(runner())
        finally:
            sys.setswitchinterval(interval)

    def test_single_process_topology_in_meta_and_stats(self):
        # --workers 1 keeps the classic single-process server; its
        # topology advertises exactly that, with no shard field.
        async def scenario(host, port, manager):
            status, meta = await http(host, port, "GET", "/v1/meta")
            assert status == 200
            assert meta["topology"] == {
                "role": "single",
                "workers": 1,
                "strategy": "blake2b",
            }
            status, stats = await http(host, port, "GET", "/v1/stats")
            assert status == 200
            assert stats["topology"]["role"] == "single"
            # The typed response exposes the store block alongside the
            # historical flat cache keys.
            assert stats["store"] == stats["cache"]

        with_server(scenario)


class TestServiceThread:
    def test_calls_run_in_order_on_the_service_thread(self):
        seen = []

        def call(n):
            seen.append((n, threading.current_thread().name))
            return n * n

        async def scenario():
            worker = ServiceThread()
            futures = [worker.run(lambda n=n: call(n)) for n in range(6)]
            return await asyncio.gather(*futures)

        assert asyncio.run(scenario()) == [n * n for n in range(6)]
        assert [n for n, _ in seen] == list(range(6))
        assert {name for _, name in seen} == {"repro-service"}

    def test_errors_reach_the_awaiting_handler(self):
        def boom():
            raise ValueError("bad spec")

        async def scenario():
            worker = ServiceThread()
            with pytest.raises(ValueError, match="bad spec"):
                await worker.run(boom)
            return await worker.run(lambda: 7)  # the thread survives

        assert asyncio.run(scenario()) == 7

    def test_the_thread_ends_with_its_owner(self):
        before = set(threading.enumerate())
        worker = ServiceThread()
        (thread,) = set(threading.enumerate()) - before
        assert thread.is_alive()
        del worker
        gc.collect()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_a_cancelled_wait_is_not_settled(self):
        release = threading.Event()

        async def scenario():
            worker = ServiceThread()
            future = worker.run(release.wait)
            future.cancel()
            release.set()
            # The settle callback finds the future cancelled and leaves it.
            assert await worker.run(lambda: "next") == "next"
            return future.cancelled()

        assert asyncio.run(scenario())

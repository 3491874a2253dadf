"""Tests for the sharded multi-worker serve runtime."""

import asyncio
import collections
import json
import os
import time
from pathlib import Path

import pytest

from repro.api.specs import EngineSpec, ServeSpec, StoreSpec
from repro.service.manager import SessionManager
from repro.service.protocol import SnapshotResponse
from repro.service.sharding import (
    ShardedService,
    shard_for,
    worker_log_path,
)

SPEC = {
    "workload": "uniform",
    "n": 8,
    "k": 3,
    "seed": 5,
    "params": {"width": 0.3},
}


class TestShardFor:
    def test_deterministic_and_in_range(self):
        for workers in (1, 2, 3, 7):
            for index in range(50):
                sid = f"s{index:04d}"
                shard = shard_for(sid, workers)
                assert 0 <= shard < workers
                assert shard == shard_for(sid, workers)

    def test_distribution_is_roughly_even(self):
        counts = collections.Counter(
            shard_for(f"session-{index}", 4) for index in range(400)
        )
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 50

    def test_single_worker_takes_everything(self):
        assert shard_for("anything", 1) == 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            shard_for("sid", 0)


class TestWorkerLogPath:
    def test_inserts_shard_before_suffix(self):
        assert worker_log_path("events.jsonl", 2) == Path("events.w2.jsonl")
        assert worker_log_path(
            Path("/tmp/run/events.jsonl"), 0
        ) == Path("/tmp/run/events.w0.jsonl")

    def test_none_base_stays_none(self):
        assert worker_log_path(None, 3) is None

    def test_shards_never_collide(self):
        paths = {worker_log_path("events.jsonl", s) for s in range(8)}
        assert len(paths) == 8


def ids_on_every_shard(per_shard, workers=2):
    """Client-chosen session ids, ``per_shard`` of them hashed to each
    shard (random server-minted ids can all land on one shard)."""
    by_shard = {shard: [] for shard in range(workers)}
    index = 0
    while min(len(ids) for ids in by_shard.values()) < per_shard:
        sid = f"s{index:04d}"
        shard = by_shard[shard_for(sid, workers)]
        if len(shard) < per_shard:
            shard.append(sid)
        index += 1
    return [sid for shard in sorted(by_shard) for sid in by_shard[shard]]


def fd_links(fds):
    """Targets of a process's open descriptors (``/proc/<pid>/fd``)."""
    links = set()
    for fd in fds.iterdir():
        try:
            links.add(os.readlink(fd))
        except OSError:  # closed while listing
            pass
    return links


async def http(host, port, method, path, body=None, content_length=None):
    """Minimal HTTP/1.1 client: one request, one JSON response
    (``content_length`` overrides the declared length of the body)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    length = content_length if content_length is not None else len(payload)
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])


def with_fleet(coro, tmp_path, workers=2):
    """Run ``coro(host, port, service)`` against a live 2-worker fleet."""
    spec = ServeSpec(
        host="127.0.0.1",
        port=0,
        workers=workers,
        store=StoreSpec(backend="disk-npz", path=str(tmp_path / "cold")),
        log=str(tmp_path / "events.jsonl"),
        resolution=256,
    )
    service = ShardedService(spec, monitor_interval=0.05)
    service.start_workers()

    async def runner():
        server = await service.start()
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await coro(host, port, service)
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    try:
        return asyncio.run(runner())
    finally:
        service.stop_workers()


class TestFleetHttp:
    def test_fleet_lifecycle_and_fanout(self, tmp_path):
        async def scenario(host, port, service):
            # Health fans out to every worker.
            assert await http(host, port, "GET", "/v1/healthz") == (
                200,
                {"ok": True},
            )

            # Meta reports the router topology.
            status, meta = await http(host, port, "GET", "/v1/meta")
            assert status == 200
            assert meta["topology"]["role"] == "router"
            assert meta["topology"]["workers"] == 2
            assert meta["topology"]["strategy"] == "blake2b"

            # Sessions land on the shard their id hashes to and are
            # reachable back through the router; three on each shard.
            sids = ids_on_every_shard(3)
            for sid in sids:
                status, created = await http(
                    host,
                    port,
                    "POST",
                    "/v1/sessions",
                    {"spec": SPEC, "session_id": sid},
                )
                assert status == 200
                assert created["session_id"] == sid

            for sid in sids:
                status, nxt = await http(
                    host, port, "GET", f"/v1/sessions/{sid}/next"
                )
                assert status == 200 and "question" in nxt
                question = nxt["question"]
                status, applied = await http(
                    host,
                    port,
                    "POST",
                    f"/v1/sessions/{sid}/answers",
                    {
                        "i": question["i"],
                        "j": question["j"],
                        "holds": True,
                    },
                )
                assert status == 200
                assert applied["questions_asked"] == 1

            # The merged session list covers both shards.
            status, listed = await http(host, port, "GET", "/v1/sessions")
            assert status == 200
            assert sorted(listed["sessions"]) == sorted(sids)

            # Cluster stats: per-worker payloads plus fleet totals.
            status, stats = await http(host, port, "GET", "/v1/stats")
            assert status == 200
            assert stats["topology"]["role"] == "router"
            assert len(stats["workers"]) == 2
            shards = {worker["shard"] for worker in stats["workers"]}
            assert shards == {0, 1}
            assert stats["sessions"]["active"] == len(sids)
            # Everyone shares one instance: exactly one build fleet-wide.
            assert stats["store"]["builds"] == 1
            assert (
                stats["store"]["cold_hits"] + stats["store"]["cold_waited"]
                >= 1
            )

            # Unknown sessions surface the worker's own 404 envelope.
            status, error = await http(
                host, port, "GET", "/v1/sessions/nope/next"
            )
            assert status == 404
            assert error["error"]["code"] == "not_found"

        with_fleet(scenario, tmp_path)

    def test_legacy_unversioned_paths_still_route(self, tmp_path):
        async def scenario(host, port, service):
            assert await http(host, port, "GET", "/healthz") == (
                200,
                {"ok": True},
            )
            status, created = await http(
                host, port, "POST", "/sessions", SPEC
            )  # legacy bare-spec body
            assert status == 200
            sid = created["session_id"]
            status, nxt = await http(
                host, port, "GET", f"/sessions/{sid}/next"
            )
            assert status == 200 and "question" in nxt

        with_fleet(scenario, tmp_path)

    def test_router_rejects_bad_lengths_before_reading(self, tmp_path):
        async def scenario(host, port, service):
            status, body = await http(
                host, port, "POST", "/v1/sessions", content_length=-5
            )
            assert status == 400
            assert body["error"]["code"] == "bad_request"
            # The header alone: a router that waits for the body hangs.
            status, body = await asyncio.wait_for(
                http(
                    host, port, "POST", "/v1/sessions", content_length=2097152
                ),
                timeout=10,
            )
            assert status == 413
            assert body["error"]["code"] == "payload_too_large"
            assert body["error"]["detail"] == {
                "max_bytes": 1 << 20,
                "content_length": 2097152,
            }

        with_fleet(scenario, tmp_path)

    def test_client_chosen_session_id_is_respected(self, tmp_path):
        async def scenario(host, port, service):
            status, created = await http(
                host,
                port,
                "POST",
                "/v1/sessions",
                {"spec": SPEC, "session_id": "pinned"},
            )
            assert status == 200
            assert created["session_id"] == "pinned"
            status, snapshot = await http(
                host, port, "GET", "/v1/sessions/pinned"
            )
            assert status == 200

        with_fleet(scenario, tmp_path)

    def test_killed_worker_restarts_with_state(self, tmp_path):
        async def scenario(host, port, service):
            status, created = await http(
                host, port, "POST", "/v1/sessions", {"spec": SPEC}
            )
            sid = created["session_id"]
            status, nxt = await http(
                host, port, "GET", f"/v1/sessions/{sid}/next"
            )
            question = nxt["question"]
            await http(
                host,
                port,
                "POST",
                f"/v1/sessions/{sid}/answers",
                {"i": question["i"], "j": question["j"], "holds": True},
            )
            _, before = await http(host, port, "GET", f"/v1/sessions/{sid}")

            shard = shard_for(sid, service.spec.workers)
            service._procs[shard].terminate()

            deadline = time.monotonic() + 30.0
            after = None
            while time.monotonic() < deadline:
                status, payload = await http(
                    host, port, "GET", f"/v1/sessions/{sid}"
                )
                if status == 200:
                    after = payload
                    break
                await asyncio.sleep(0.05)
            assert service.restarts >= 1
            # The restarted worker replayed its shard log: identical state.
            assert after == before
            # It holds no copy of the router's listening socket (nor, by
            # the same token, of a client connection, whose client would
            # then wait for EOF as long as the worker lives).
            fds = Path(f"/proc/{service._procs[shard].pid}/fd")
            if fds.is_dir():
                listener = service._server.sockets[0].fileno()
                inode = f"socket:[{os.fstat(listener).st_ino}]"
                assert inode not in fd_links(fds)

        with_fleet(scenario, tmp_path)

    def test_fleet_results_match_single_process(self, tmp_path):
        # Two instances, sessions on both shards, noisy and perfect
        # answers: every question offered and every final state must
        # equal one in-process manager driven with the same answers.
        sids = ids_on_every_shard(2)
        specs = {
            sid: {**SPEC, "seed": 6 + index % 2}
            for index, sid in enumerate(sids)
        }

        def answer(index, i, j):
            return {
                "i": i,
                "j": j,
                "holds": (i + j + index) % 3 != 0,
                "accuracy": 1.0 if index in (0, 3) else 0.9,
            }

        single = SessionManager(
            builder=EngineSpec("grid", {"resolution": 256}).build()
        )
        expected_questions = {}
        expected_states = {}
        for index, sid in enumerate(sids):
            single.create_session(specs[sid], session_id=sid)
            asked = []
            for _ in range(3):
                question = single.next_question(sid)
                if question is None:
                    break
                asked.append([question.i, question.j])
                body = answer(index, question.i, question.j)
                single.submit_answer(
                    sid, body["i"], body["j"], body["holds"], body["accuracy"]
                )
            expected_questions[sid] = asked
            expected_states[sid] = json.loads(
                json.dumps(
                    SnapshotResponse.from_snapshot(
                        single.snapshot(sid)
                    ).to_payload()
                )
            )
        assert all(len(asked) == 3 for asked in expected_questions.values())

        async def scenario(host, port, service):
            for index, sid in enumerate(sids):
                status, _ = await http(
                    host,
                    port,
                    "POST",
                    "/v1/sessions",
                    {"spec": specs[sid], "session_id": sid},
                )
                assert status == 200
                asked = []
                for _ in range(3):
                    _, nxt = await http(
                        host, port, "GET", f"/v1/sessions/{sid}/next"
                    )
                    if "question" not in nxt:  # settled
                        break
                    i, j = nxt["question"]["i"], nxt["question"]["j"]
                    asked.append([i, j])
                    status, _ = await http(
                        host,
                        port,
                        "POST",
                        f"/v1/sessions/{sid}/answers",
                        answer(index, i, j),
                    )
                    assert status == 200
                assert asked == expected_questions[sid]
                _, state = await http(host, port, "GET", f"/v1/sessions/{sid}")
                assert state == expected_states[sid]

        with_fleet(scenario, tmp_path)

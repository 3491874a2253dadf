"""Typed schema tests for the versioned ``/v1`` wire protocol.

Every ``/v1`` endpoint gets a response-shape assertion, and every error
status the protocol defines (400, 404, 405, 409, 413) gets at least one
error-envelope case: ``{"error": {"code", "message", "detail"?}}`` with
the correct machine-readable code.
"""

import asyncio
import json

import pytest

from repro import __version__
from repro.api import InstanceSpec, all_registries
from repro.service.manager import SessionManager
from repro.service.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    AnswerRequest,
    CreateSessionRequest,
    ErrorEnvelope,
    ProtocolError,
)
from repro.service.server import ROUTES, start_server
from repro.tpo.builders import GridBuilder

SPEC = {
    "workload": "uniform",
    "n": 8,
    "k": 3,
    "seed": 5,
    "params": {"width": 0.3},
}


async def http(host, port, method, path, body=None, content_length=None):
    """One-request HTTP/1.1 client returning (status, headers, json)."""
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
    head, _, body_raw = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_raw)


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


#: Malformed answer bodies for an N=8 session, each with the field its
#: 400 message must name: nothing may be coerced (1.9 -> 1, "false" ->
#: True, true -> 1), wrapped (-1 -> 7) or left to fail as a 500 (99).
BAD_ANSWERS = [
    ({"i": 0, "j": 1.9, "holds": True}, "'j'"),
    ({"i": 0, "j": 1, "holds": "false"}, "'holds'"),
    ({"i": 0, "j": 1, "holds": True, "accuracy": 7.0}, "'accuracy'"),
    ({"i": 0, "j": 1, "holds": True, "accuracy": float("nan")}, "'accuracy'"),
    ({"i": True, "j": 2, "holds": True}, "'i'"),
    ({"i": 0, "j": 99, "holds": True}, "'j'"),
    ({"i": -1, "j": 2, "holds": True}, "'i'"),
    ({"i": 3, "j": 3, "holds": True}, "distinct"),
]


def assert_envelope(body, code):
    """The uniform v1 error shape with the expected machine code."""
    assert set(body) == {"error"}
    error = body["error"]
    assert error["code"] == code
    assert isinstance(error["message"], str) and error["message"]
    if "detail" in error:
        assert isinstance(error["detail"], dict)
    return error


class TestRequestModels:
    def test_create_session_request_parses(self):
        request = CreateSessionRequest.from_body(
            {"spec": SPEC, "session_id": "a"}
        )
        assert request.spec == InstanceSpec.from_dict(SPEC)
        assert request.session_id == "a"

    @pytest.mark.parametrize(
        "body",
        [
            [],
            {},
            {"spec": SPEC, "bogus": 1},
            {"spec": SPEC, "session_id": 7},
        ],
    )
    def test_create_session_request_rejects(self, body):
        with pytest.raises(ProtocolError):
            CreateSessionRequest.from_body(body)

    def test_answer_request_parses_and_defaults(self):
        request = AnswerRequest.from_body({"i": 1, "j": 2, "holds": True})
        assert (request.i, request.j, request.holds) == (1, 2, True)
        assert request.accuracy == 1.0

    @pytest.mark.parametrize(
        "body", [{"i": 0}, {"i": 0, "j": 1}, {"i": "x", "j": 1, "holds": 1}]
    )
    def test_answer_request_rejects(self, body):
        with pytest.raises(ProtocolError):
            AnswerRequest.from_body(body)

    def test_answer_request_rejects_unknown_fields_when_strict(self):
        # A misspelled "accuracy" must not silently apply a full-weight
        # (hard-pruning) answer on the strict /v1 surface.
        body = {"i": 0, "j": 1, "holds": True, "acuracy": 0.7}
        with pytest.raises(ProtocolError, match="acuracy"):
            AnswerRequest.from_body(body)
        lenient = AnswerRequest.from_body(body, strict=False)
        assert lenient.accuracy == 1.0  # legacy routes keep old behavior

    def test_error_envelope_shapes(self):
        envelope = ErrorEnvelope(404, "gone", detail={"x": 1})
        assert envelope.to_payload() == {
            "error": {"code": "not_found", "message": "gone", "detail": {"x": 1}}
        }
        assert envelope.to_legacy_payload() == {"error": "gone"}

    def test_every_error_status_has_a_code(self):
        assert set(ERROR_CODES) == {400, 404, 405, 409, 413, 500, 502, 503}


class TestTopologyModels:
    def test_topology_default_is_single_process(self):
        from repro.service.protocol import TopologyInfo

        assert TopologyInfo().to_payload() == {
            "role": "single",
            "workers": 1,
            "strategy": "blake2b",
        }

    def test_worker_topology_includes_shard(self):
        from repro.service.protocol import TopologyInfo

        payload = TopologyInfo(
            role="worker", workers=4, shard=2
        ).to_payload()
        assert payload["role"] == "worker"
        assert payload["shard"] == 2

    def test_stats_response_keeps_flat_keys_and_adds_store(self):
        from repro.service.protocol import StatsResponse

        manager_stats = {
            "sessions": {"active": 2, "closed": 1},
            "cache": {"hits": 3, "misses": 1, "hit_rate": 0.75},
            "rankings": {"computed": 5, "memo_hits": 0},
            "evaluations": 9,
            "contradictions": 0,
            "replay_skipped": 0,
            "next_batches": 2,
            "next_requests": 4,
        }
        payload = StatsResponse.from_manager_stats(manager_stats).to_payload()
        # Historical flat shape is intact…
        assert payload["sessions"] == manager_stats["sessions"]
        assert payload["cache"] == manager_stats["cache"]
        assert payload["next_batches"] == 2
        assert payload["next_requests"] == 4
        # …and the typed additions ride alongside.
        assert payload["store"] == manager_stats["cache"]
        assert payload["topology"]["role"] == "single"

    def test_cluster_stats_aggregates_workers(self):
        from repro.service.protocol import (
            ClusterStatsResponse,
            TopologyInfo,
        )

        def worker(shard, hot_hits, cold_hits, builds):
            return {
                "shard": shard,
                "sessions": {"active": 2},
                "next_batches": 1,
                "next_requests": 2,
                "cache": {
                    "hits": hot_hits,
                    "misses": 1,
                    "cold": {"bytes": 100},
                    "cold_hits": cold_hits,
                    "cold_waited": 0,
                    "builds": builds,
                },
            }

        payload = ClusterStatsResponse(
            topology=TopologyInfo(role="router", workers=2),
            workers=[worker(0, 3, 0, 1), worker(1, 2, 1, 0)],
        ).to_payload()
        assert payload["sessions"] == {"active": 4}
        assert payload["next_requests"] == 4
        store = payload["store"]
        assert store["hot_hits"] == 5
        assert store["builds"] == 1
        assert store["cold_hits"] == 1
        assert store["cold_hit_rate"] == 0.5
        assert store["bytes"] == 200
        assert [w["shard"] for w in payload["workers"]] == [0, 1]


class TestV1Endpoints:
    def test_healthz_schema(self):
        async def scenario(host, port, manager):
            status, _, body = await http(host, port, "GET", "/v1/healthz")
            assert (status, body) == (200, {"ok": True})

        with_server(scenario)

    def test_meta_enumerates_plugins_and_endpoints(self):
        async def scenario(host, port, manager):
            status, headers, body = await http(host, port, "GET", "/v1/meta")
            assert status == 200
            assert "deprecation" not in headers
            assert body["protocol"] == PROTOCOL_VERSION
            assert body["version"] == __version__
            assert set(body["plugins"]) == set(all_registries())
            assert body["plugins"]["measures"] == ["H", "Hw", "MPO", "ORA"]
            assert body["plugins"]["evals"] == [
                "calibration", "golden", "paper", "regret",
            ]
            assert "RPL010" in body["plugins"]["checks"]
            assert "memory" in body["plugins"]["stores"]
            listed = {(e["method"], e["path"]) for e in body["endpoints"]}
            assert ("GET", "/v1/meta") in listed
            assert ("POST", "/v1/sessions/{session_id}/answers") in listed
            assert len(listed) == sum(len(r.handlers) for r in ROUTES)

        with_server(scenario)

    def test_session_lifecycle_schemas(self):
        async def scenario(host, port, manager):
            status, _, created = await http(
                host, port, "POST", "/v1/sessions", {"spec": SPEC}
            )
            assert status == 200 and set(created) == {"session_id"}
            sid = created["session_id"]

            status, _, listing = await http(host, port, "GET", "/v1/sessions")
            assert status == 200 and listing == {"sessions": [sid]}

            status, _, nxt = await http(
                host, port, "GET", f"/v1/sessions/{sid}/next"
            )
            assert status == 200
            assert set(nxt) == {"session_id", "question"}
            assert set(nxt["question"]) == {"i", "j"}

            status, _, applied = await http(
                host,
                port,
                "POST",
                f"/v1/sessions/{sid}/answers",
                {**nxt["question"], "holds": True},
            )
            assert status == 200
            assert set(applied) == {
                "session_id",
                "questions_asked",
                "orderings",
                "settled",
            }
            assert applied["questions_asked"] == 1

            status, _, snapshot = await http(
                host, port, "GET", f"/v1/sessions/{sid}"
            )
            assert status == 200
            assert set(snapshot) == {
                "session_id",
                "status",
                "spec",
                "tpo_key",
                "snapshot",
                "questions_asked",
                "orderings",
                "settled",
                "top_k",
            }
            assert snapshot["spec"] == InstanceSpec.from_dict(SPEC).to_dict()

            status, _, closed = await http(
                host, port, "POST", f"/v1/sessions/{sid}/close"
            )
            assert status == 200
            assert closed == {"session_id": sid, "closed": True}

        with_server(scenario)

    def test_stats_includes_batcher_counters(self):
        async def scenario(host, port, manager):
            await http(host, port, "POST", "/v1/sessions", {"spec": SPEC})
            status, _, stats = await http(host, port, "GET", "/v1/stats")
            assert status == 200
            assert {"sessions", "cache", "rankings"} <= set(stats)
            assert stats["next_requests"] == 0

        with_server(scenario)

    def test_stats_keys_and_next_counters_are_pinned(self):
        async def scenario(host, port, manager):
            _, _, created = await http(
                host, port, "POST", "/v1/sessions", {"spec": SPEC}
            )
            for _ in range(3):
                status, _, _ = await http(
                    host,
                    port,
                    "GET",
                    f"/v1/sessions/{created['session_id']}/next",
                )
                assert status == 200
            status, _, stats = await http(host, port, "GET", "/v1/stats")
            assert status == 200
            assert set(stats) == {
                "sessions",
                "cache",
                "store",
                "rankings",
                "evaluations",
                "contradictions",
                "replay_skipped",
                "next_batches",
                "next_requests",
                "topology",
            }
            assert stats["next_batches"] == stats["next_requests"] == 3
            assert stats["rankings"] == {"computed": 1, "memo_hits": 2}

        with_server(scenario)


class TestV1ErrorEnvelopes:
    def test_400_bad_request_cases(self):
        async def scenario(host, port, manager):
            # Missing spec field.
            status, _, body = await http(
                host, port, "POST", "/v1/sessions", {"n": 4}
            )
            assert status == 400
            assert_envelope(body, "bad_request")
            # Unknown workload gets a suggestion in the message.
            status, _, body = await http(
                host,
                port,
                "POST",
                "/v1/sessions",
                {"spec": {**SPEC, "workload": "unifrm"}},
            )
            assert status == 400
            error = assert_envelope(body, "bad_request")
            assert "did you mean 'uniform'" in error["message"]
            # Bad generator params (TypeError deep inside the factory).
            status, _, body = await http(
                host,
                port,
                "POST",
                "/v1/sessions",
                {"spec": {**SPEC, "params": {"bogus": 1}}},
            )
            assert status == 400
            assert_envelope(body, "bad_request")
            # A negative Content-Length is malformed, not a 500.
            status, _, body = await http(
                host, port, "POST", "/v1/sessions", content_length=-5
            )
            assert status == 400
            assert_envelope(body, "bad_request")
            # Non-integer counts and seeds are refused, never truncated.
            for field, bad in (
                ("n", 10.7),
                ("k", 3.5),
                ("seed", 1.5),
                ("n", "10"),
                ("seed", True),
            ):
                status, _, body = await http(
                    host,
                    port,
                    "POST",
                    "/v1/sessions",
                    {"spec": {**SPEC, field: bad}},
                )
                assert status == 400, (field, bad)
                assert field in assert_envelope(body, "bad_request")["message"]
            assert manager.session_ids() == []
            # Missing answer fields.
            status, _, created = await http(
                host, port, "POST", "/v1/sessions", {"spec": SPEC}
            )
            sid = created["session_id"]
            status, _, body = await http(
                host, port, "POST", f"/v1/sessions/{sid}/answers", {"i": 0}
            )
            assert status == 400
            error = assert_envelope(body, "bad_request")
            assert "holds" in error["message"]
            # Malformed answer values are refused, never coerced or
            # applied, on the versioned and the legacy route alike.
            for probe, field in BAD_ANSWERS:
                for prefix in ("/v1", ""):
                    status, _, body = await http(
                        host,
                        port,
                        "POST",
                        f"{prefix}/sessions/{sid}/answers",
                        probe,
                    )
                    assert status == 400, (prefix, probe)
                    message = (
                        assert_envelope(body, "bad_request")["message"]
                        if prefix
                        else body["error"]
                    )
                    assert field in message, (prefix, probe, message)
            assert manager.questions_asked(sid) == 0

        with_server(scenario)

    def test_404_unknown_session_and_route(self):
        async def scenario(host, port, manager):
            status, _, body = await http(
                host, port, "GET", "/v1/sessions/ghost"
            )
            assert status == 404
            assert_envelope(body, "not_found")
            status, _, body = await http(host, port, "GET", "/v1/nope")
            assert status == 404
            assert_envelope(body, "not_found")

        with_server(scenario)

    def test_405_includes_allow_header_and_detail(self):
        async def scenario(host, port, manager):
            status, headers, body = await http(
                host, port, "DELETE", "/v1/sessions"
            )
            assert status == 405
            assert headers["allow"] == "GET, POST"
            error = assert_envelope(body, "method_not_allowed")
            assert error["detail"]["allow"] == ["GET", "POST"]
            status, headers, body = await http(
                host, port, "POST", "/v1/healthz"
            )
            assert status == 405
            assert headers["allow"] == "GET"
            assert_envelope(body, "method_not_allowed")

        with_server(scenario)

    def test_409_closed_session(self):
        async def scenario(host, port, manager):
            _, _, created = await http(
                host, port, "POST", "/v1/sessions", {"spec": SPEC}
            )
            sid = created["session_id"]
            await http(host, port, "POST", f"/v1/sessions/{sid}/close")
            status, _, body = await http(
                host, port, "GET", f"/v1/sessions/{sid}/next"
            )
            assert status == 409
            assert_envelope(body, "conflict")
            status, _, body = await http(
                host,
                port,
                "POST",
                f"/v1/sessions/{sid}/answers",
                {"i": 0, "j": 1, "holds": True},
            )
            assert status == 409
            assert_envelope(body, "conflict")

        with_server(scenario)

    def test_413_oversized_body(self):
        async def scenario(host, port, manager):
            # Claim a giant body; the server must refuse before reading it.
            status, _, body = await http(
                host,
                port,
                "POST",
                "/v1/sessions",
                {"spec": SPEC},
                content_length=(1 << 20) + 1,
            )
            assert status == 413
            error = assert_envelope(body, "payload_too_large")
            assert error["detail"]["max_bytes"] == 1 << 20

        with_server(scenario)


class TestLegacyAliases:
    def test_unversioned_routes_keep_flat_errors_and_warn(self):
        async def scenario(host, port, manager):
            status, headers, body = await http(
                host, port, "GET", "/sessions/ghost"
            )
            assert status == 404
            assert body == {"error": "no session 'ghost'"}
            assert headers.get("deprecation") == "true"

        with_server(scenario)

    def test_body_parse_errors_stay_flat_on_legacy_paths(self):
        """Errors raised while reading the body (bad JSON, oversized)
        must still render in the legacy flat shape for legacy paths."""

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
            head, _, body_raw = raw.partition(b"\r\n\r\n")
            assert b" 400 " in head.split(b"\r\n", 1)[0]
            body = json.loads(body_raw)
            assert body == {"error": "request body is not valid JSON"}
            assert b"Deprecation: true" in head
            # Oversized legacy body: flat 413.
            status, headers, body = await http(
                host,
                port,
                "POST",
                "/sessions",
                {"spec": SPEC},
                content_length=(1 << 20) + 1,
            )
            assert status == 413
            assert body == {"error": "request body too large"}

        with_server(scenario)

    def test_v1_answers_reject_unknown_fields_legacy_does_not(self):
        async def scenario(host, port, manager):
            _, _, created = await http(
                host, port, "POST", "/v1/sessions", {"spec": SPEC}
            )
            sid = created["session_id"]
            _, _, nxt = await http(
                host, port, "GET", f"/v1/sessions/{sid}/next"
            )
            answer = {**nxt["question"], "holds": True, "acuracy": 0.7}
            status, _, body = await http(
                host, port, "POST", f"/v1/sessions/{sid}/answers", answer
            )
            assert status == 400
            assert "acuracy" in assert_envelope(body, "bad_request")[
                "message"
            ]
            status, _, body = await http(
                host, port, "POST", f"/sessions/{sid}/answers", answer
            )
            assert status == 200 and body["questions_asked"] == 1

        with_server(scenario)

"""One pass of the ``serve-http`` workload against a real ``/v1`` server.

Run by ``run.py`` in a fresh process per pass; prints one JSON object.

The server is ``python -m repro serve --port 0 --log <tmp>`` with default
settings (1 worker, 64-entry TPO cache, resolution 1024); the traced pass
starts it through ``launcher.py`` instead.  Set-up starts a server,
creates one session for each of the 8 served instances and fetches its
first question, so every TPO build and initial ranking lands in set-up.
It is repeated on fresh servers and the last one serves the timed
window.

The window is a closed loop over one connection at a time with no think
time (the server answers ``Connection: close``, so each request opens its
own).  Session ``s`` uses instance ``s % 8``: ``POST /v1/sessions``, up
to 15 rounds of ``GET …/next`` and ``POST …/answers``, then
``GET /v1/sessions/<id>`` and ``POST …/close``.  Three sessions in four
answer from the ground truth at accuracy 1 (the prune path; equal states
hit the server's ranking memo).  Every fourth flips a seeded 25% of its
pairs at accuracy 0.9 (the reweight path; states diverge, so ``/next``
ranks for real).  Ground truth and flip tables are made in set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from calibrate import Speed
from mix import K, WIDTH, WORKLOADS, stratified_instances

WORKLOAD = WORKLOADS["serve-http"]
NOISY_EVERY = 3
FLIP_SHARE = 0.25
NOISY_ACCURACY = 0.9
INSTANCES = 16
#: Sessions here are short, so the speed kernel runs before every fourth.
SAMPLE_EVERY = 4
#: Event logs live here, inside the checkout, only while a pass runs.
SCRATCH = ".perfbench_tmp"


class Client:
    """A blocking HTTP/1.1 client: one connection per request, timed.

    ``own_s`` accumulates the client's own CPU time per request (connect,
    send, receive calls and parsing the response).
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.own_s = 0.0
        self.total_s = 0.0
        self.requests = 0
        self.failed = 0

    def call(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[float, Any]:
        """``(seconds, payload)``; payload is ``None`` on a non-2xx reply."""
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        start = time.perf_counter()
        start_cpu = time.thread_time()
        with socket.create_connection(("127.0.0.1", self.port)) as sock:
            sock.sendall(head + payload)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        header, _, raw = b"".join(chunks).partition(b"\r\n\r\n")
        status = int(header.split(b" ", 2)[1])
        reply = json.loads(raw) if 200 <= status < 300 else None
        end = time.perf_counter()
        self.own_s += time.thread_time() - start_cpu
        self.total_s += end - start
        self.requests += 1
        if reply is None:
            self.failed += 1
        return end - start, reply


def start_server(log_path: str, traced: bool, corrupt: Optional[int]) -> Tuple[subprocess.Popen, int]:
    flags = ["--port", "0", "--log", log_path]
    if traced:
        command = [sys.executable, os.path.join(os.path.dirname(__file__), "launcher.py")]
        if corrupt is not None:
            command += ["--corrupt-answer", str(corrupt)]
        command += flags
    else:
        command = [sys.executable, "-m", "repro", "serve", *flags]
    server = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=dict(os.environ)
    )
    for line in server.stdout or ():
        if "listening on" in line:
            port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
            return server, port
    stop_server(server)
    raise RuntimeError("server exited before listening")


def stop_server(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    if server.stdout is not None:
        server.stdout.close()


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM")


def setup_server(
    instances: List[Any], log_path: str, traced: bool, corrupt: Optional[int]
) -> Tuple[subprocess.Popen, Client, float]:
    """Start a server and open one session per instance with its first
    question; returns the server, a client and the set-up seconds."""
    began = time.perf_counter()
    server, port = start_server(log_path, traced, corrupt)
    client = Client(port)
    for spec in instances:
        _, created = client.call("POST", "/v1/sessions", {"spec": spec.to_dict()})
        if created is None:
            raise RuntimeError("set-up session was refused")
        client.call("GET", f"/v1/sessions/{created['session_id']}/next")
    return server, client, time.perf_counter() - began


def run_session(
    client: Client,
    index: int,
    spec: Any,
    truth_above: np.ndarray,
    flips: Optional[np.ndarray],
    timings: Dict[str, List[float]],
) -> Dict[str, Any]:
    """Drive one session; returns what the client sent and saw."""
    sent: List[List[Any]] = []
    record: Dict[str, Any] = {"index": index, "sent": sent, "snapshot": None}
    began = time.perf_counter()
    _, created = client.call("POST", "/v1/sessions", {"spec": spec.to_dict()})
    if created is None:
        return record
    base = f"/v1/sessions/{created['session_id']}"
    accuracy = 1.0 if flips is None else NOISY_ACCURACY
    for round_index in range(WORKLOAD.budget):
        elapsed, reply = client.call("GET", f"{base}/next")
        timings["next"].append(elapsed)
        if round_index == 0:
            timings["first"].append(time.perf_counter() - began)
        if reply is None or reply.get("question") is None:
            break
        i, j = reply["question"]["i"], reply["question"]["j"]
        holds = bool(truth_above[i, j])
        if flips is not None and flips[i, j]:
            holds = not holds
        elapsed, reply = client.call(
            "POST", f"{base}/answers",
            {"i": i, "j": j, "holds": holds, "accuracy": accuracy},
        )
        timings["answer"].append(elapsed)
        sent.append([i, j, holds, accuracy])
        if reply is None:
            break
    _, record["snapshot"] = client.call("GET", base)
    client.call("POST", f"{base}/close")
    timings["session"].append(time.perf_counter() - began)
    return record


def replay_top_k(spec: Any, answers: List[List[Any]]) -> List[int]:
    from repro.api import SessionSpec, replay_session

    return replay_session(
        SessionSpec(instance=spec), [tuple(answer) for answer in answers]
    ).top_k()


def check(
    records: List[Dict[str, Any]], instances: List[Any]
) -> Tuple[int, str]:
    """Sessions whose snapshot disagrees with the answers sent or with
    ``replay_session``; and a digest of every outcome."""
    keys = {
        (record["index"] % len(instances), json.dumps(record["sent"])): record["sent"]
        for record in records
    }
    # The replays are independent of each other and of the window.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        tops = pool.map(
            replay_top_k,
            [instances[index] for index, _ in keys],
            list(keys.values()),
            chunksize=4,
        )
        replays = dict(zip(keys, tops))
    failed = 0
    outcomes = []
    for record in records:
        instance = record["index"] % len(instances)
        snapshot = record["snapshot"]
        stored = None if snapshot is None else snapshot["snapshot"]["answers"]
        top_k = None if snapshot is None else snapshot["top_k"]
        if stored != record["sent"] or top_k != replays[(instance, json.dumps(record["sent"]))]:
            failed += 1
        outcomes.append({"instance": instance, "answers": stored, "top_k": top_k})
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    return failed, digest


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument(
        "--corrupt-answer", type=int, default=None,
        help="with --trace 1: the server stores this answer (0-based) flipped",
    )
    args = parser.parse_args(argv)
    # Client, server and the calibration kernel share one CPU: the host's
    # speed differs between the two vCPUs, and a kernel on the client's
    # CPU does not track a server on the other (unpinned, identical runs
    # differed by 30% in scaled throughput; pinned, by 2%).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    from repro.api import InstanceSpec, SessionSpec, prepare_session

    instances = [
        InstanceSpec(n=WORKLOAD.n, k=K, seed=seed, params={"width": WIDTH})
        for seed in stratified_instances(WORKLOAD, args.seed, INSTANCES)
    ]
    truths = []
    for spec in instances:
        truth = prepare_session(SessionSpec(instance=spec)).truth
        rank = np.array([truth.rank_of(t) for t in range(WORKLOAD.n)])
        truths.append(rank[:, None] < rank[None, :])
    count = -(-WORKLOAD.session_count(args.seconds) // INSTANCES) * INSTANCES
    flips = [
        np.random.default_rng([args.seed, index]).random((WORKLOAD.n,) * 2) < FLIP_SHARE
        if index % NOISY_EVERY == NOISY_EVERY - 1
        else None
        for index in range(count)
    ]

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=SCRATCH)
    setups: List[float] = []
    server: Optional[subprocess.Popen] = None
    try:
        for attempt in range(args.setups):
            if server is not None:
                stop_server(server)
            log_path = os.path.join(workdir, f"events{attempt}.jsonl")
            server, client, seconds = setup_server(
                instances, log_path, bool(args.trace), args.corrupt_answer
            )
            setup_speed = Speed()
            for _ in range(9):
                setup_speed.sample()
            setups.append(seconds * setup_speed.scale)
        _, stats_before = client.call("GET", "/v1/stats")
        trace_before = client.call("GET", "/v1/_trace")[1] if args.trace else None
        client.own_s, client.total_s, client.requests, client.failed = 0.0, 0.0, 0, 0
        timings: Dict[str, List[float]] = {"session": [], "first": [], "next": [], "answer": []}
        speed = Speed()
        records = []
        cpu_start = proc_cpu_s(server.pid)
        wall_start = time.perf_counter()
        for index in range(count):
            if index % SAMPLE_EVERY == 0:
                speed.sample()
            records.append(
                run_session(
                    client, index, instances[index % len(instances)],
                    truths[index % len(instances)], flips[index], timings,
                )
            )
        speed.sample()
        wall_s = time.perf_counter() - wall_start - speed.spent_s
        cpu_s = proc_cpu_s(server.pid) - cpu_start
        rss_mb = proc_hwm_mb(server.pid)
        requests, failed = client.requests, client.failed
        own_s, total_s = client.own_s, client.total_s
        trace_after = client.call("GET", "/v1/_trace")[1] if args.trace else None
        _, stats_after = client.call("GET", "/v1/stats")
    finally:
        if server is not None:
            stop_server(server)
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)

    # The replays run on any CPU; on the pinned one they took 3x longer.
    os.sched_setaffinity(0, cpus)
    mismatched, digest = check(records, instances)
    print(
        json.dumps(
            {
                "setups": setups,
                "scale": speed.scale,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "rss_mb": rss_mb,
                "sessions": count,
                "timings": timings,
                "attempted": requests,
                "failed": failed + mismatched,
                "digest": digest,
                "client_own_s": own_s,
                "client_total_s": total_s,
                "stats": [stats_before, stats_after],
                "trace": [trace_before, trace_after],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

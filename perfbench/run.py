"""Benchmark entry point.

    python3 perfbench/run.py --workload {coff-batch,t1-online,serve-http} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass of a workload runs in a fresh
process (``apiload.py`` or ``httpload.py``) with a one-thread BLAS pool.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes an
untraced and a traced pass over the same sessions and prints the
per-layer metrics, including the tracing overhead between the two.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from layers import IDLE, difference
from mix import percentile

HERE = Path(__file__).resolve().parent

#: A stuck pass fails the run instead of hanging it.
PASS_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("cpu_ms_per_session", "ms"),
    ("peak_rss_mb", "MB"),
    ("session_ms.p50", "ms"),
    ("session_ms.p90", "ms"),
    ("first_question_ms.p50", "ms"),
    ("first_question_ms.p90", "ms"),
    ("next_ms.p50", "ms"),
    ("next_ms.p90", "ms"),
    ("answer_ms.p50", "ms"),
    ("answer_ms.p90", "ms"),
]

#: Per-layer spans reported as self ms per session, with their call counts.
SPANS = [
    ("instance.materialize", False),
    ("tpo.build", True),
    ("tpo.to_space", False),
    ("questions.candidates", True),
    ("questions.rank_singles", True),
    ("questions.rank_extensions", True),
    ("questions.apply_answer", True),
    ("uncertainty.evaluate", True),
    ("rank.distance", True),
    ("crowd.ask", False),
    ("service.create", False),
    ("service.next_questions", False),
    ("service.submit_answer", False),
    ("service.flush_log", False),
    ("service.cache.get_space", False),
    ("http.server", False),
    ("http.transport", False),
    ("http.loop", False),
]

#: Service spans that enclose every server-side layer a request reaches.
SERVICE_ROOTS = [
    "service.create",
    "service.next_questions",
    "service.submit_answer",
    "service.snapshot",
    "service.close",
    "service.flush_log",
]

STATS_COUNTERS = [
    "service.cache.hit_rate",
    "service.rankings.memo_hit_rate",
    "service.rankings.computed",
    "service.batcher.requests_per_batch",
    "questions.evaluations",
]

PER_LAYER_UNITS = {
    "tpo.orderings": "count",
    "questions.candidates.pool": "count",
    "policy.select.ms": "ms",
    "service.next_questions.batch": "count",
    "service.flush_log.events": "count",
    "http.overhead.ms": "ms",
    "service.cache.hit_rate": "ratio",
    "service.rankings.memo_hit_rate": "ratio",
    "service.rankings.computed": "count",
    "service.batcher.requests_per_batch": "count",
    "questions.evaluations": "count",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}

#: Traced-run self-test: every layer that must run in the timed window
#: (a positive count or time), and the layers the workload bypasses by
#: design, which must read zero.
API_LAYERS = [
    "instance.materialize.ms",
    "tpo.build.calls",
    "tpo.to_space.ms",
    "tpo.orderings",
    "questions.candidates.calls",
    "questions.apply_answer.calls",
    "uncertainty.evaluate.calls",
    "policy.select.ms",
    "rank.distance.calls",
    "crowd.ask.ms",
]
EXPECT = {
    "coff-batch": {
        "zero": ["questions.rank_singles.calls"],
        "positive": API_LAYERS + ["questions.rank_extensions.calls"],
    },
    "t1-online": {
        "zero": ["questions.rank_extensions.calls"],
        "positive": API_LAYERS + ["questions.rank_singles.calls"],
    },
    "serve-http": {
        "zero": ["tpo.build.calls", "questions.rank_extensions.calls", "crowd.ask.ms"],
        "positive": [
            "instance.materialize.ms",
            "questions.candidates.calls",
            "questions.rank_singles.calls",
            "questions.apply_answer.calls",
            "uncertainty.evaluate.calls",
            "service.create.ms",
            "service.next_questions.ms",
            "service.submit_answer.ms",
            "service.flush_log.ms",
            "service.flush_log.events",
            "service.cache.get_space.ms",
            "http.server.ms",
            "http.transport.ms",
            "http.loop.ms",
        ],
    },
}


def per_layer_names() -> List[Tuple[str, str]]:
    names = []
    for span, counted in SPANS:
        names.append((f"{span}.ms", "ms"))
        if counted:
            names.append((f"{span}.calls", "count"))
    return names + list(PER_LAYER_UNITS.items())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    source = str(Path.cwd() / "src")
    env["PYTHONPATH"] = source + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else source
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONUNBUFFERED="1")
    return env


def run_pass(script: str, args: List[str]) -> Dict[str, Any]:
    """Run one pass in a fresh process; its last stdout line is JSON."""
    command = [sys.executable, str(HERE / script), *args]
    done = subprocess.run(
        command,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=PASS_TIMEOUT_S,
        check=False,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def api_pass(args: argparse.Namespace, trace: int, setup_only: bool = False) -> Dict[str, Any]:
    flags = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--launched", repr(time.time()),
    ]
    return run_pass("apiload.py", flags + (["--setup-only"] if setup_only else []))


def http_pass(args: argparse.Namespace, trace: int, setups: int) -> Dict[str, Any]:
    flags = [
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--setups", str(setups),
    ]
    return run_pass("httpload.py", flags)


def end_to_end(result: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    scale = result["scale"]
    sessions = result["sessions"]
    metrics = {
        "setup_s": statistics.median(setups),
        "sessions_per_s": sessions / (result["wall_s"] * scale),
        "cpu_ms_per_session": result["cpu_s"] * scale * 1e3 / sessions,
        "peak_rss_mb": result["rss_mb"],
    }
    for name, key in (
        ("session_ms", "session"),
        ("first_question_ms", "first"),
        ("next_ms", "next"),
        ("answer_ms", "answer"),
    ):
        for q in (50, 90):
            metrics[f"{name}.p{q}"] = percentile(result["timings"][key], q) * scale * 1e3
    return metrics


def window_trace(result: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    trace = result["trace"]
    if isinstance(trace, list):  # serve-http: server totals before and after
        before, after = trace
        return difference(after, before)
    return trace


def stats_counters(result: Dict[str, Any]) -> Dict[str, float]:
    """Window deltas of the ``GET /v1/stats`` counters (zero off the
    service)."""
    if "stats" not in result:
        return dict.fromkeys(STATS_COUNTERS, 0.0)
    before, after = result["stats"]

    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    memo, computed = delta("rankings", "memo_hits"), delta("rankings", "computed")
    batches = delta("next_batches")
    return {
        "service.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "service.rankings.memo_hit_rate": memo / (memo + computed) if memo + computed else 0.0,
        "service.rankings.computed": computed,
        "service.batcher.requests_per_batch": delta("next_requests") / batches if batches else 0.0,
        "questions.evaluations": delta("evaluations"),
    }


def per_layer(traced: Dict[str, Any], untraced: Dict[str, Any]) -> Dict[str, float]:
    trace = window_trace(traced)
    self_ns, total_ns = trace["self_ns"], trace["total_ns"]
    calls, counts = trace["calls"], trace["counts"]
    scale = traced["scale"]
    sessions = traced["sessions"]

    def ms(ns: float) -> float:
        return ns * 1e-6 * scale / sessions

    metrics: Dict[str, float] = {}
    for span, counted in SPANS:
        metrics[f"{span}.ms"] = ms(self_ns.get(span, 0))
        if counted:
            metrics[f"{span}.calls"] = calls.get(span, 0)
    metrics["tpo.orderings"] = counts.get("tpo.orderings", 0)
    candidates = calls.get("questions.candidates", 0)
    metrics["questions.candidates.pool"] = (
        counts.get("questions.candidates.pool", 0) / candidates if candidates else 0.0
    )
    metrics["policy.select.ms"] = ms(total_ns.get("policy.select", 0))
    next_calls = calls.get("service.next_questions", 0)
    metrics["service.next_questions.batch"] = (
        counts.get("service.next_questions.batch", 0) / next_calls if next_calls else 0.0
    )
    metrics["service.flush_log.events"] = counts.get("service.flush_log.events", 0)
    metrics.update(stats_counters(traced))
    if "client_total_s" in traced:
        served = sum(total_ns.get(name, 0) for name in SERVICE_ROOTS)
        client_ns = traced["client_total_s"] * 1e9
        metrics["http.overhead.ms"] = ms(client_ns - served)
        # Server layer spans only, over the time requests spend outside the
        # client (client-observed time minus the client's own CPU).  CPU
        # time, because client and server share one CPU, where a server
        # span's wall time can also hold the client's turns.
        outside_ns = client_ns - traced["client_own_s"] * 1e9
        explained = sum(
            value for key, value in trace["cpu_self_ns"].items() if key != IDLE
        )
        metrics["trace.coverage_pct"] = 100.0 * explained / outside_ns
    else:
        metrics["http.overhead.ms"] = 0.0
        explained = sum(value for key, value in self_ns.items() if key != "session")
        metrics["trace.coverage_pct"] = 100.0 * explained / (traced["wall_s"] * 1e9)
    metrics["trace.overhead_pct"] = 100.0 * (
        traced["wall_s"] * traced["scale"] / (untraced["wall_s"] * untraced["scale"]) - 1.0
    )
    return metrics


def wiring_problems(workload: str, metrics: Dict[str, float]) -> List[str]:
    expect = EXPECT[workload]
    problems = [f"{name} should be 0" for name in expect["zero"] if metrics[name] != 0]
    problems += [f"{name} should be > 0" for name in expect["positive"] if metrics[name] <= 0]
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("run from the root of a repro checkout (src/repro not found)", file=sys.stderr)
        return 2

    http = args.workload == "serve-http"
    if args.trace:
        untraced = http_pass(args, 0, 1) if http else api_pass(args, 0)
        traced = http_pass(args, 1, 1) if http else api_pass(args, 1)
        passes = [untraced, traced]
        values = per_layer(traced, untraced)
        units = dict(per_layer_names())
        problems = wiring_problems(args.workload, values)
        if untraced["digest"] != traced["digest"]:
            problems.append("traced and untraced outputs differ")
    else:
        if http:
            result = http_pass(args, 0, 3)
            setups = result["setups"]
        else:
            setups = [api_pass(args, 0, setup_only=True)["setup_s"] for _ in range(2)]
            result = api_pass(args, 0)
            setups.append(result["setup_s"])
        passes = [result]
        values = end_to_end(result, setups)
        units = dict(END_TO_END)
        problems = []
    for problem in problems:
        print(f"trace wiring: {problem}", file=sys.stderr)
    for index, result in enumerate(passes):
        print(f"digest {args.workload} pass {index}: {result['digest']}")
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

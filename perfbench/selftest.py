"""Self-test of the benchmark itself (about three minutes).

    python3 perfbench/selftest.py        # from the root of a checkout

1. A short traced run of each workload must pass ``run.py``'s wiring
   checks: every wrapper fires where its layer runs and reads zero where
   the workload bypasses the layer (``questions.rank_extensions.calls`` on
   ``t1-online``, ``tpo.build.calls`` in ``serve-http``'s window), and the
   layer self times must explain at least 90% of wall time (of
   client-observed request time on ``serve-http``).
2. ``serve-http`` against a server that stores one answer with ``holds``
   flipped must count that session as a failed operation, and the same
   run without the fault must count none.

Exits non-zero if any expectation fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import child_env

HERE = Path(__file__).resolve().parent
COVERAGE_FLOOR_PCT = 90.0


def last_json(command: list) -> dict:
    done = subprocess.run(
        [sys.executable, *command],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in ("coff-batch", "t1-online", "serve-http"):
        result = last_json(
            [str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "2", "--trace", "1"]
        )
        coverage = result["metrics"]["trace.coverage_pct"]["value"]
        print(f"{workload}: correct={result['correct']} coverage={coverage:.1f}%")
        if not result["correct"]:
            problems.append(f"{workload}: traced run not correct")
        if coverage < COVERAGE_FLOOR_PCT:
            problems.append(f"{workload}: coverage {coverage:.1f}% < 90%")
    for corrupt, expect_failed in ((None, False), (5, True)):
        flags = ["--seed", "1", "--seconds", "1", "--trace", "1", "--setups", "1"]
        if corrupt is not None:
            flags += ["--corrupt-answer", str(corrupt)]
        failed = last_json([str(HERE / "httpload.py"), *flags])["failed"]
        print(f"serve-http corrupt-answer={corrupt}: failed={failed}")
        if (failed > 0) != expect_failed:
            problems.append(f"corrupt-answer={corrupt}: failed={failed}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

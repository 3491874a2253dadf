"""One pass of an API workload (``coff-batch``, ``t1-online``).

Run by ``run.py`` in a fresh process per pass; prints one JSON object.
Set-up (imports and three warm-up sessions) is timed from the moment the
parent launched this process.  The session list is built after that
clock stops, since it is the benchmark's own work.  The timed window then
runs every session through ``repro.api`` and nothing else; outputs are
checked against ``replay_session`` after the window closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List

from calibrate import Speed
from mix import K, WIDTH, WORKLOADS, percentile, stratified_instances


def session_spec(workload: Any, instance_seed: int) -> Any:
    from repro.api import (
        BudgetSpec,
        InstanceSpec,
        MeasureSpec,
        PolicySpec,
        SessionSpec,
    )

    return SessionSpec(
        instance=InstanceSpec(
            n=workload.n, k=K, seed=instance_seed, params={"width": WIDTH}
        ),
        policy=PolicySpec(workload.policy),
        measure=MeasureSpec("H"),
        budget=BudgetSpec(workload.budget),
    )


def high_water_mb() -> float:
    """This process's resident-set high-water mark (``VmHWM``)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM")


def reset_high_water() -> None:
    """Restart ``VmHWM`` from the current resident set."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def run_one(spec: Any, timings: Dict[str, List[float]], recorder: Any) -> Any:
    """Run one session through ``repro.api``, timing its question picks and
    answer updates on this session's own policy and evaluator objects."""
    from repro.api import prepare_session

    start = time.perf_counter()
    prepared = prepare_session(spec)
    policy = spec.policy.build()
    first = []
    pick_name = "select" if hasattr(policy, "select") else "next_question"
    pick = getattr(policy, pick_name)
    apply_answer = prepared.session.evaluator.apply_answer

    def timed_pick(*args: Any, **kwargs: Any) -> Any:
        began = time.perf_counter()
        result = pick(*args, **kwargs)
        ended = time.perf_counter()
        timings["next"].append(ended - began)
        if not first:
            first.append(ended - start)
        return result

    def timed_apply(*args: Any, **kwargs: Any) -> Any:
        began = time.perf_counter()
        result = apply_answer(*args, **kwargs)
        timings["answer"].append(time.perf_counter() - began)
        return result

    setattr(policy, pick_name, timed_pick)
    prepared.session.evaluator.apply_answer = timed_apply
    if recorder is None:
        result = prepared.session.run(policy, spec.budget.questions)
    else:
        with recorder.span("session"):
            result = prepared.session.run(policy, spec.budget.questions)
    timings["session"].append(time.perf_counter() - start)
    timings["first"].append(first[0] if first else time.perf_counter() - start)
    return result


def outcome(spec: Any, result: Any) -> Dict[str, Any]:
    """What one session produced, in plain JSON-able form."""
    return {
        "instance": spec.instance.seed,
        "answers": [
            [a.question.i, a.question.j, bool(a.holds), float(a.accuracy)]
            for a in result.answers
        ],
        "top_k": [int(t) for t in result.final_space.most_probable_ordering()],
        "orderings": [result.orderings_initial, result.orderings_final],
    }


def check(spec: Any, produced: Dict[str, Any]) -> bool:
    """Whether a session's outcome matches an independent replay of its
    spec and answers, and every answer matches the ground truth."""
    from repro.api import prepare_session, replay_session
    from repro.questions.model import Question

    answers = [tuple(answer) for answer in produced["answers"]]
    replay = replay_session(spec, answers)
    truth = prepare_session(spec).truth
    return (
        replay.top_k() == produced["top_k"]
        and [replay.orderings[0], replay.orderings[-1]] == produced["orderings"]
        and len({(i, j) for i, j, _, _ in answers}) == len(answers)
        and len(answers) <= spec.budget.questions
        and all(truth.holds(Question(i, j)) == holds for i, j, holds, _ in answers)
    )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["coff-batch", "t1-online"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.api import run_session

    workload = WORKLOADS[args.workload]
    # Warm-up on fixed instances: lazy imports, registry loads and the
    # allocator's first growth happen here, not in the timed sessions.
    for instance_seed in range(3):
        run_session(session_spec(workload, instance_seed))
    setup_s = time.time() - args.launched
    setup_speed = Speed()
    for _ in range(9):
        setup_speed.sample()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * setup_speed.scale}))
        return 0

    count = workload.session_count(args.seconds)
    specs = [
        session_spec(workload, instance_seed)
        for instance_seed in stratified_instances(workload, args.seed, count)
    ]

    recorder = None
    if args.trace:
        from layers import Recorder, difference, install_api_layers

        recorder = Recorder()
        install_api_layers(recorder)
        before = recorder.snapshot()
    timings: Dict[str, List[float]] = {
        "session": [],
        "first": [],
        "next": [],
        "answer": [],
    }
    outcomes = []
    speed = Speed()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    high_water = []
    for spec in specs:
        speed.sample()
        reset_high_water()
        outcomes.append(outcome(spec, run_one(spec, timings, recorder)))
        high_water.append(high_water_mb())
    speed.sample()
    wall_s = time.perf_counter() - wall_start - speed.spent_s
    cpu_s = time.process_time() - cpu_start - speed.spent_cpu_s
    # The run's own maximum follows the seed's single largest instance
    # (21% spread between seeds on t1-online, against 4-7% for the p90).
    rss_mb = percentile(high_water, 90)
    trace = difference(recorder.snapshot(), before) if recorder else None

    # The replays are independent of each other and of the window.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        checks = list(pool.map(check, specs, outcomes, chunksize=4))
    digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
    print(
        json.dumps(
            {
                "setup_s": setup_s * setup_speed.scale,
                "scale": speed.scale,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "rss_mb": rss_mb,
                "sessions": len(specs),
                "timings": timings,
                "attempted": len(specs),
                "failed": checks.count(False),
                "digest": digest,
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Golden datasets: versioned, content-keyed recorded sessions.

A golden case freezes one fully-specified session (an
:class:`~repro.evals.specs.EvalSpec` whose BLAKE2b content key is pinned
next to it in the dataset file) together with every outcome the run
produced: the answer stream the simulated crowd emitted, the question
count, final uncertainty/distance, ordering-space sizes, and the
most-probable top-K.  Determinism is the repo's core contract — a spec
fully determines its run — so replays must match **bit-for-bit**, and
every comparison below is exact equality (floats survive the JSON
round-trip exactly; everything is cast to plain Python scalars before
recording).

Each case is replayed through three independent paths:

* the batch API (:func:`repro.api.run.run_session`) — fresh run, full
  outcome comparison;
* the sanctioned event-sourcing replay
  (:func:`repro.api.run.replay_session`) — recorded answers over a
  freshly built space;
* the service event-log path (:mod:`repro.evals.service_replay`) —
  create / submit / kill / resume through a
  :class:`~repro.service.manager.SessionManager`.

Recording is explicit and versioned: bump :data:`DATASET_VERSION`, run
:func:`record_dataset`, and commit the regenerated file together with
whatever change legitimately moved the outcomes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api.run import replay_session, run_session
from repro.api.specs import (
    BudgetSpec,
    CrowdSpec,
    EngineSpec,
    InstanceSpec,
    MeasureSpec,
    PolicySpec,
    SessionSpec,
)
from repro.evals.specs import EvalSpec
from repro.evals.suite import EvalSuite, check, section
from repro.experiments.grid import ExperimentGrid, GridCell

#: Bumped whenever the recorded cases change shape or membership.
DATASET_VERSION = 2


def dataset_path(version: int = DATASET_VERSION) -> Path:
    """Location of the committed golden dataset for ``version``."""
    return Path(__file__).parent / "data" / f"golden_v{version}.json"


def _case_label(spec: SessionSpec) -> str:
    """Human-oriented case name (presentation only, not identity)."""
    beam = spec.engine_spec.params.get("beam_epsilon")
    suffix = f"-beam{beam}" if beam else ""
    return (
        f"{spec.policy.name}-{spec.measure.name}-n{spec.instance.n}"
        f"k{spec.instance.k}-s{spec.instance.seed}{suffix}"
    )


def record_case(spec: SessionSpec) -> Dict[str, Any]:
    """Run ``spec`` once and freeze everything it produced.

    ``verify_questions`` is recorded true for policies whose question
    sequence the *service* path can reproduce — the interactive session
    picks min-residual questions, i.e. exactly ``T1-on``'s rule.
    """
    result = run_session(spec)
    eval_spec = EvalSpec(suite="golden", session=spec)
    expected = {
        "answers": [
            [int(a.question.i), int(a.question.j), bool(a.holds),
             float(a.accuracy)]
            for a in result.answers
        ],
        "questions_asked": int(result.questions_asked),
        "contradictions": int(result.contradictions),
        "initial_uncertainty": float(result.initial_uncertainty),
        "final_uncertainty": float(result.final_uncertainty),
        "distance_to_truth": float(result.distance_to_truth),
        "orderings_initial": int(result.orderings_initial),
        "orderings_final": int(result.orderings_final),
        "top_k": [int(t) for t in result.final_space.most_probable_ordering()],
        "crowd_cost": float(result.crowd_cost),
    }
    return {
        "label": _case_label(spec),
        "key": eval_spec.content_key(),
        "eval": eval_spec.to_dict(),
        "verify_questions": spec.policy.name == "T1-on",
        "expected": expected,
    }


def _reference_specs() -> List[SessionSpec]:
    """The sessions the committed dataset records (one per regime)."""

    def spec(policy: str, measure: str, *, n: int, k: int, seed: int,
             budget: int, accuracy: float = 1.0, engine: str = "grid",
             engine_params: Optional[Dict[str, Any]] = None,
             policy_params: Optional[Dict[str, Any]] = None) -> SessionSpec:
        crowd_model = "perfect" if accuracy >= 1.0 else "noisy"
        params: Dict[str, Any] = (
            {"resolution": 512} if engine == "grid" else {}
        )
        params.update(engine_params or {})
        return SessionSpec(
            instance=InstanceSpec(n=n, k=k, workload="jittered", seed=seed),
            policy=PolicySpec(policy, policy_params or {}),
            measure=MeasureSpec(measure),
            crowd=CrowdSpec(accuracy=accuracy, model=crowd_model),
            budget=BudgetSpec(questions=budget),
            engine=EngineSpec(engine, params),
        )

    return [
        spec("T1-on", "H", n=8, k=3, seed=11, budget=5),
        spec("T1-on", "Hw", n=9, k=4, seed=12, budget=6, accuracy=0.8),
        spec("T1-on", "ORA", n=10, k=4, seed=14, budget=6),
        spec("TB-off", "MPO", n=8, k=4, seed=13, budget=4),
        spec("T1-on", "H", n=12, k=5, seed=15, budget=6,
             engine_params={"beam_epsilon": 0.02}),
        # The MC engine under beam pruning: the sampled TPO must replay
        # bit-identically too (seeded sampler + pruned beam).
        spec("T1-on", "Hw", n=10, k=4, seed=16, budget=6, engine="mc",
             engine_params={"samples": 4000, "seed": 7,
                            "beam_epsilon": 0.02, "beam_width": 48}),
        # Set-extension selection (C-off, A*-off): pins the greedy and
        # best-first question sets priced by rank_set_extensions.
        spec("C-off", "H", n=10, k=4, seed=17, budget=6),
        spec("A*-off", "Hw", n=9, k=4, seed=18, budget=4),
        spec("C-off", "ORA", n=9, k=4, seed=19, budget=5),
        # U_H set extensions over many base patterns (the one-GEMM
        # pricing path), best-first sets under U_H, and incr's rounds
        # over a partial tree.
        spec("C-off", "H", n=12, k=5, seed=20, budget=8),
        spec("A*-off", "H", n=9, k=4, seed=21, budget=4),
        spec("incr", "H", n=10, k=4, seed=22, budget=6,
             policy_params={"round_size": 3}),
    ]


def record_dataset(path: Optional[Path] = None) -> Path:
    """(Re)record the reference cases and write the dataset file."""
    target = Path(path) if path is not None else dataset_path()
    payload = {
        "format": 1,
        "version": DATASET_VERSION,
        "cases": [record_case(spec) for spec in _reference_specs()],
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def load_dataset(path: Optional[Path] = None) -> Dict[str, Any]:
    """Load and *authenticate* the dataset: every case's pinned content
    key must match its spec, so silent drift in a recorded spec (manual
    edit, bad merge) fails loudly before anything is replayed."""
    source = Path(path) if path is not None else dataset_path()
    payload = json.loads(source.read_text(encoding="utf-8"))
    for case in payload.get("cases", []):
        actual = EvalSpec.from_dict(case["eval"]).content_key()
        if actual != case.get("key"):
            raise ValueError(
                f"golden case {case.get('label', '?')!r} key drift: "
                f"recorded {case.get('key')!r}, spec hashes to {actual!r}"
            )
    return payload


def _same(want: Any, got: Any) -> bool:
    """Exact equality, where a recorded NaN is matched only by NaN."""
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return bool(got == want)


def _compare(expected: Dict[str, Any], observed: Dict[str, Any]) -> List[str]:
    """Exact-equality field comparison; returns human-readable diffs."""
    mismatches = []
    for name, want in expected.items():
        if name not in observed:
            continue
        got = observed[name]
        if not _same(want, got):
            mismatches.append(f"{name}: expected {want!r}, got {got!r}")
    return mismatches


#: What a replay over the full ``T_K`` must rebuild from a recording that
#: never materialized it (``incr``, recorded with ``orderings_initial``
#: −1): pruning the full tree keeps the same orderings as the level-wise
#: build, but its masses may differ in the last ulp.
_LEVELWISE_REPLAYED = ("questions_asked", "orderings_final", "top_k")


def replayed_fields(expected: Dict[str, Any]) -> Dict[str, Any]:
    """The recorded fields the event-sourcing and service replays must
    reproduce exactly (all of them, unless the run was level-wise)."""
    if expected.get("orderings_initial", 0) >= 0:
        return expected
    return {
        name: expected[name] for name in _LEVELWISE_REPLAYED
        if name in expected
    }


def run_golden_api_cell(*, case: Dict[str, Any]) -> Dict[str, Any]:
    """Replay one golden case through the batch API and the
    event-sourcing replay; both must match the recording exactly."""
    spec = EvalSpec.from_dict(case["eval"])
    expected = case["expected"]
    result = run_session(spec.session)
    observed = {
        "answers": [
            [int(a.question.i), int(a.question.j), bool(a.holds),
             float(a.accuracy)]
            for a in result.answers
        ],
        "questions_asked": int(result.questions_asked),
        "contradictions": int(result.contradictions),
        "initial_uncertainty": float(result.initial_uncertainty),
        "final_uncertainty": float(result.final_uncertainty),
        "distance_to_truth": float(result.distance_to_truth),
        "orderings_initial": int(result.orderings_initial),
        "orderings_final": int(result.orderings_final),
        "top_k": [int(t) for t in result.final_space.most_probable_ordering()],
        "crowd_cost": float(result.crowd_cost),
    }
    mismatches = _compare(expected, observed)

    answers = [tuple(a) for a in expected["answers"]]
    replay = replay_session(spec.session, answers)
    replay_observed = {
        "initial_uncertainty": float(replay.uncertainties[0]),
        "final_uncertainty": float(replay.uncertainties[-1]),
        "orderings_initial": int(replay.orderings[0]),
        "orderings_final": int(replay.orderings[-1]),
        "top_k": replay.top_k(),
    }
    mismatches += [
        f"replay.{diff}"
        for diff in _compare(replayed_fields(expected), replay_observed)
    ]
    return {
        "path": "api",
        "label": case.get("label", ""),
        "key": case["key"],
        "passed": not mismatches,
        "mismatches": mismatches,
    }


@dataclass
class GoldenEval(EvalSuite):
    """Bit-identical replay of the committed golden dataset."""

    name: str = field(default="golden", init=False)
    #: Override to evaluate an alternative dataset file.
    path: Optional[str] = None

    def grid(self, fast: bool = True) -> ExperimentGrid:
        payload = load_dataset(self.path)
        cells: List[GridCell] = []
        for case in payload["cases"]:
            cells.append(
                GridCell(
                    experiment="eval-golden",
                    runner="repro.evals.golden:run_golden_api_cell",
                    params={"case": case},
                )
            )
            cells.append(
                GridCell(
                    experiment="eval-golden",
                    runner=(
                        "repro.evals.service_replay:run_golden_service_cell"
                    ),
                    params={"case": case},
                )
            )
        return ExperimentGrid("eval-golden", cells)

    def score(self, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
        failed = [r for r in rows if not r["passed"]]
        checks = [
            check("golden_replays", not failed, float(len(failed)), 0.0, "<=")
        ]
        metrics = {
            "cases": len({r["key"] for r in rows}),
            "replays": len(rows),
            "failed": [
                {
                    "path": r["path"],
                    "label": r["label"],
                    "mismatches": r["mismatches"],
                }
                for r in failed
            ],
        }
        return section(self.name, checks, metrics)


__all__ = [
    "DATASET_VERSION",
    "GoldenEval",
    "dataset_path",
    "load_dataset",
    "record_case",
    "record_dataset",
    "replayed_fields",
    "run_golden_api_cell",
]

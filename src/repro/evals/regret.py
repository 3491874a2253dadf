"""Policy-quality regret against the exhaustive oracle.

Calibration (sibling module) checks that residual estimates are honest;
this suite checks that *acting* on them is near-optimal.  On instances
small enough for the ``exhaustive`` policy to enumerate every B-subset
of questions, each policy's distance-to-truth trajectory is compared
point-wise against the oracle's: the cumulative regret
``sum_t (D_policy[t] - D_oracle[t])`` over the budget is the suite's
headline number, and informed policies must keep it below a documented
threshold (random is reported for contrast, never gated).

The beam half of the suite answers PR 8's open question — does anytime
beam pruning change *decisions*, not just values?  The same seeded
session runs under the exact engine and under beam engines at several
``beam_epsilon`` settings; final distance and uncertainty deltas must
stay within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List

from repro.api.run import run_session
from repro.evals.suite import EvalSuite, check, section
from repro.experiments.grid import ExperimentGrid, GridCell
from repro.experiments.harness import session_spec

#: Policies gated on cumulative regret (the informed ones).
INFORMED_POLICIES = ("T1-on", "TB-off", "C-off")

#: Mean cumulative regret ceiling for informed policies (distances are
#: normalized to [0, 1], summed over budget+1 trajectory points).
REGRET_THRESHOLD = 0.35

#: Mean final-step regret ceiling for informed policies.
FINAL_REGRET_THRESHOLD = 0.10

#: Max |final-distance delta| between beam and exact runs of the same
#: seeded session.
BEAM_DELTA_THRESHOLD = 0.15


def _pad(trajectory: List[float], length: int) -> List[float]:
    """Extend a trajectory to ``length`` points by repeating its last
    value (early-terminating policies stop asking once certain)."""
    if not trajectory:
        raise ValueError("trajectory must contain the initial distance")
    return trajectory + [trajectory[-1]] * (length - len(trajectory))


def cumulative_regret(
    policy_trajectory: List[float], oracle_trajectory: List[float]
) -> float:
    """Sum of per-step distance gaps, oracle-padded to a common length."""
    length = max(len(policy_trajectory), len(oracle_trajectory))
    policy_points = _pad(policy_trajectory, length)
    oracle_points = _pad(oracle_trajectory, length)
    return float(
        sum(p - o for p, o in zip(policy_points, oracle_points, strict=True))
    )


def run_regret_cell(
    *,
    policy: str,
    measure: str,
    accuracy: float,
    n: int,
    k: int,
    workload: str,
    seed: int,
    budget: int,
    resolution: int = 512,
) -> Dict[str, Any]:
    """One policy-vs-oracle comparison on one seeded instance.

    The oracle runs inside the cell (same instance seed, so identical
    ground truth and crowd stream) — recomputed per policy, which keeps
    cells self-contained and content-addressable at the price of a few
    redundant oracle runs on deliberately tiny instances.
    """
    spec_with = partial(
        session_spec,
        measure=measure,
        accuracy=accuracy,
        n=n,
        k=k,
        workload=workload,
        seed=seed,
        budget=budget,
        engine_params={"resolution": resolution},
    )
    result = run_session(spec_with(policy=policy), track_trajectory=True)
    oracle = run_session(
        spec_with(policy="exhaustive"), track_trajectory=True
    )
    regret = cumulative_regret(result.trajectory, oracle.trajectory)
    # Row kinds discriminate oracle-regret rows from beam-delta rows at
    # scoring time; a null sentinel would not survive the result store
    # (nulls restore as NaN).
    return {
        "kind": "regret",
        "policy": policy,
        "measure": measure,
        "seed": seed,
        "budget": budget,
        "cumulative_regret": regret,
        "final_regret": (
            result.distance_to_truth - oracle.distance_to_truth
        ),
        "policy_distance": result.distance_to_truth,
        "oracle_distance": oracle.distance_to_truth,
        "questions_asked": result.questions_asked,
    }


def run_beam_delta_cell(
    *,
    policy: str,
    measure: str,
    accuracy: float,
    n: int,
    k: int,
    workload: str,
    seed: int,
    budget: int,
    beam_epsilon: float,
    resolution: int = 512,
) -> Dict[str, Any]:
    """Beam-vs-exact policy-quality delta for one seeded session."""
    spec_with = partial(
        session_spec,
        policy=policy,
        measure=measure,
        accuracy=accuracy,
        n=n,
        k=k,
        workload=workload,
        seed=seed,
        budget=budget,
    )
    exact = run_session(spec_with(engine_params={"resolution": resolution}))
    beam = run_session(
        spec_with(
            engine_params={
                "resolution": resolution,
                "beam_epsilon": beam_epsilon,
            }
        )
    )
    return {
        "kind": "beam_delta",
        "policy": policy,
        "measure": measure,
        "seed": seed,
        "budget": budget,
        "beam_epsilon": beam_epsilon,
        "delta_distance": beam.distance_to_truth - exact.distance_to_truth,
        "delta_uncertainty": (
            beam.final_uncertainty - exact.final_uncertainty
        ),
        "exact_distance": exact.distance_to_truth,
        "beam_distance": beam.distance_to_truth,
        "beam_contradictions": beam.contradictions,
    }


@dataclass
class RegretEval(EvalSuite):
    """Cumulative regret vs oracle + beam-vs-exact quality deltas."""

    name: str = field(default="regret", init=False)

    def grid(self, fast: bool = True) -> ExperimentGrid:
        seeds = [1] if fast else [1, 2, 3]
        budget = 3 if fast else 4
        epsilons = [0.02] if fast else [0.01, 0.05]
        cells: List[GridCell] = []
        for policy in (*INFORMED_POLICIES, "random"):
            for seed in seeds:
                cells.append(
                    GridCell(
                        experiment="eval-regret",
                        runner="repro.evals.regret:run_regret_cell",
                        params={
                            "policy": policy,
                            "measure": "H",
                            "accuracy": 1.0,
                            "n": 8,
                            "k": 4,
                            "workload": "jittered",
                            "seed": seed,
                            "budget": budget,
                        },
                    )
                )
        for epsilon in epsilons:
            for seed in seeds:
                cells.append(
                    GridCell(
                        experiment="eval-regret",
                        runner="repro.evals.regret:run_beam_delta_cell",
                        params={
                            "policy": "T1-on",
                            "measure": "H",
                            "accuracy": 1.0,
                            "n": 12,
                            "k": 5,
                            "workload": "jittered",
                            "seed": seed,
                            "budget": 6,
                            "beam_epsilon": epsilon,
                        },
                    )
                )
        return ExperimentGrid("eval-regret", cells)

    def score(self, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
        regret_rows = [r for r in rows if r.get("kind") == "regret"]
        beam_rows = [r for r in rows if r.get("kind") == "beam_delta"]

        def mean(values: List[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        per_policy_regret = {}
        per_policy_final = {}
        for row in regret_rows:
            per_policy_regret.setdefault(row["policy"], []).append(
                row["cumulative_regret"]
            )
            per_policy_final.setdefault(row["policy"], []).append(
                row["final_regret"]
            )
        informed_regret = max(
            (
                mean(per_policy_regret[p])
                for p in INFORMED_POLICIES
                if p in per_policy_regret
            ),
            default=0.0,
        )
        informed_final = max(
            (
                mean(per_policy_final[p])
                for p in INFORMED_POLICIES
                if p in per_policy_final
            ),
            default=0.0,
        )
        beam_delta = max(
            (abs(r["delta_distance"]) for r in beam_rows), default=0.0
        )
        checks = [
            check(
                "cumulative_regret_informed",
                informed_regret <= REGRET_THRESHOLD,
                informed_regret,
                REGRET_THRESHOLD,
                "<=",
            ),
            check(
                "final_regret_informed",
                informed_final <= FINAL_REGRET_THRESHOLD,
                informed_final,
                FINAL_REGRET_THRESHOLD,
                "<=",
            ),
            check(
                "beam_distance_delta",
                beam_delta <= BEAM_DELTA_THRESHOLD,
                beam_delta,
                BEAM_DELTA_THRESHOLD,
                "<=",
            ),
        ]
        metrics = {
            "cumulative_regret_per_policy": {
                policy: mean(values)
                for policy, values in sorted(per_policy_regret.items())
            },
            "final_regret_per_policy": {
                policy: mean(values)
                for policy, values in sorted(per_policy_final.items())
            },
            "beam_delta_per_epsilon": {
                str(epsilon): mean(
                    [
                        abs(r["delta_distance"])
                        for r in beam_rows
                        if r["beam_epsilon"] == epsilon
                    ]
                )
                for epsilon in sorted(
                    {r["beam_epsilon"] for r in beam_rows}
                )
            },
            "oracle_distance_mean": mean(
                [r["oracle_distance"] for r in regret_rows]
            ),
        }
        return section(self.name, checks, metrics)


__all__ = [
    "BEAM_DELTA_THRESHOLD",
    "FINAL_REGRET_THRESHOLD",
    "INFORMED_POLICIES",
    "REGRET_THRESHOLD",
    "RegretEval",
    "cumulative_regret",
    "run_beam_delta_cell",
    "run_regret_cell",
]

"""The paper's claims as deterministic gates (``repro eval --suite paper``).

The suite's grid is every figure driver's grid in
:data:`repro.experiments.EXPERIMENTS`, concatenated; its checks are the
shapes the paper reports for them.  Quality claims compare mean
distances to the real ordering.  Cost claims compare mean residual
evaluations — the ``evaluations`` count each row carries — never CPU
or wall seconds, so two runs give identical check values on any
machine and under any load.  Every claim keeps the tolerance it was
first stated with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.evals.suite import EvalSuite, check, section
from repro.experiments.grid import ExperimentGrid

#: The proposed fast algorithms of Figure 1(a).
PROPOSED = ("T1-on", "TB-off", "C-off")


def _mean(rows: List[Dict[str, Any]], key: str, **match: Any) -> float:
    """Mean of ``key`` over the rows whose fields equal ``match``."""
    values = [
        row[key]
        for row in rows
        if all(row.get(name) == value for name, value in match.items())
    ]
    if not values:
        raise ValueError(f"no rows match {match}")
    return sum(values) / len(values)


def _gate(
    name: str, value: float, threshold: float, direction: str
) -> Dict[str, Any]:
    passed = value <= threshold if direction == "<=" else value >= threshold
    return check(name, passed, value, threshold, direction)


@dataclass
class PaperEval(EvalSuite):
    """Figure 1(a)/(b) and the §IV prose claims over the figure grids."""

    name: str = field(default="paper", init=False)

    def grid(self, fast: bool = True) -> ExperimentGrid:
        from repro.experiments import EXPERIMENTS

        return ExperimentGrid(
            "paper",
            [
                cell
                for module in EXPERIMENTS.values()
                for cell in module.grid(fast)
            ],
        )

    def score(self, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
        by: Dict[str, List[Dict[str, Any]]] = {}
        for row in rows:
            by.setdefault(row["experiment"], []).append(row)

        def budgets(name: str) -> Tuple[int, int]:
            values = sorted({row["budget"] for row in by[name]})
            return values[0], values[-1]

        def distance(name: str, **match: Any) -> float:
            return _mean(by[name], "distance", **match)

        def evaluations(name: str, **match: Any) -> float:
            return _mean(by[name], "evaluations", **match)

        low, top = budgets("FIG1A")
        fig1a_top = {
            policy: distance("FIG1A", policy=policy, budget=top)
            for policy in (*PROPOSED, "random")
        }
        fig1b = {
            policy: evaluations("FIG1B", policy=policy)
            for policy in ("C-off", "TB-off", "incr")
        }
        incr = {
            arm: evaluations("INCR", arm=arm)
            for arm in sorted({row["arm"] for row in by["INCR"]})
        }
        full_tree = incr.pop("T1-on (full tree)")
        astar = {
            policy: {
                "distance": distance("ASTAR", policy=policy),
                "evaluations": evaluations("ASTAR", policy=policy),
            }
            for policy in ("T1-on", "A*-off")
        }
        _, dist_top = budgets("DIST")
        dist_gap = {
            workload: distance(
                "DIST", workload=workload, policy="T1-on", budget=dist_top
            )
            - distance("DIST", workload=workload, policy="naive", budget=dist_top)
            for workload in sorted({row["workload"] for row in by["DIST"]})
        }
        meas = {
            measure: distance("MEAS", measure=measure)
            for measure in ("H", "Hw", "ORA", "MPO")
        }
        noise_low, noise_top = budgets("NOISE")
        noise_gain = {
            arm: distance("NOISE", arm=arm, budget=noise_top)
            - distance("NOISE", arm=arm, budget=noise_low)
            for arm in ("p=1", "p=0.9", "p=0.8")
        }
        scale_points = {
            (row["sweep"], row["engine"], row["n"], row["k"])
            for row in by["SCALE"]
        }
        _, trans_top = budgets("TRANS")
        trans_gap = {
            policy: distance("TRANS", arm=f"{policy}+closure", budget=trans_top)
            - distance("TRANS", arm=policy, budget=trans_top)
            for policy in ("T1-on", "naive")
        }

        checks = [
            # Figure 1(a): every proposed algorithm beats Random at the
            # top budget, and budget improves T1-on.
            _gate(
                "fig1a_proposed_beat_random",
                max(fig1a_top[p] - fig1a_top["random"] for p in PROPOSED),
                1e-9,
                "<=",
            ),
            _gate(
                "fig1a_t1on_improves_with_budget",
                fig1a_top["T1-on"]
                - distance("FIG1A", policy="T1-on", budget=low),
                1e-9,
                "<=",
            ),
            # Figure 1(b): C-off is the costliest, incr cheaper than it.
            _gate(
                "fig1b_coff_costlier_than_tboff",
                fig1b["C-off"] - fig1b["TB-off"],
                0.0,
                ">=",
            ),
            _gate(
                "fig1b_incr_cheaper_than_coff",
                fig1b["incr"] - fig1b["C-off"],
                0.0,
                "<=",
            ),
            # §III-D: incr at every round size is cheaper than the full tree.
            _gate(
                "incr_cheaper_than_full_tree",
                max(incr.values()) - full_tree,
                0.0,
                "<=",
            ),
            # §IV: T1-on nearly as good as A*, at a fraction of the cost.
            _gate(
                "astar_t1on_quality_near_astar",
                astar["T1-on"]["distance"] - astar["A*-off"]["distance"],
                0.1,
                "<=",
            ),
            _gate(
                "astar_t1on_cheaper_than_astar",
                astar["T1-on"]["evaluations"]
                - astar["A*-off"]["evaluations"],
                0.0,
                "<=",
            ),
            # §IV: T1-on works under every score-distribution family.
            _gate(
                "dist_t1on_vs_naive_every_family",
                max(dist_gap.values()),
                0.05,
                "<=",
            ),
            # §IV: a structure-aware measure does not lose to U_H.
            _gate(
                "meas_structural_vs_entropy",
                min(meas["Hw"], meas["ORA"], meas["MPO"]) - meas["H"],
                0.05,
                "<=",
            ),
            # §III-C: noisy answers still reduce the distance.
            _gate(
                "noise_answers_reduce_distance",
                max(noise_gain.values()),
                1e-9,
                "<=",
            ),
            _gate("scale_sweep_measured", len(scale_points), 1.0, ">="),
            # Extension: the transitive closure never hurts at equal paid
            # budget.
            _gate(
                "trans_closure_never_hurts",
                max(trans_gap.values()),
                0.02,
                "<=",
            ),
        ]
        metrics = {
            "fig1a_distance_at_top_budget": fig1a_top,
            "fig1b_evaluations": fig1b,
            "incr_evaluations": {**incr, "T1-on (full tree)": full_tree},
            "astar": astar,
            "dist_t1on_minus_naive": dist_gap,
            "meas_distance": meas,
            "noise_distance_change": noise_gain,
            "trans_closure_minus_plain": trans_gap,
        }
        return section(self.name, checks, metrics)


__all__ = ["PROPOSED", "PaperEval"]

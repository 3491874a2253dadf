"""Experiment harness: session-spec cells, result tables, figure text.

Every experiment is a grid of cells, and every cell is one
:class:`~repro.api.specs.SessionSpec` (in its dict form, so the cell
stays JSON-addressable) run by :func:`run_spec_cell` through
:func:`repro.api.run.prepare_session` — the same construction and seed
derivation the service and the eval suites use.  A repetition is an
instance seed, and every stream (scores, truth, crowd, policy) derives
from it, so within a repetition all policies and budgets face the same
instance with the same crowd and policy streams (common random numbers).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api.run import prepare_session
from repro.api.specs import (
    BudgetSpec,
    CrowdSpec,
    EngineSpec,
    InstanceSpec,
    MeasureSpec,
    PolicySpec,
    SessionSpec,
)
from repro.experiments.grid import GridCell

#: Instance seed of repetition 0; repetition ``r`` uses ``BASE_SEED + r``.
BASE_SEED = 2016

#: Grid engine the figure drivers build with unless a cell says otherwise.
DEFAULT_ENGINE_PARAMS = {"resolution": 800}


def session_spec(
    *,
    n: int,
    k: int,
    seed: int,
    budget: int,
    policy: str = "T1-on",
    workload: str = "uniform",
    params: Optional[Dict[str, Any]] = None,
    policy_params: Optional[Dict[str, Any]] = None,
    measure: str = "H",
    accuracy: float = 1.0,
    replication: int = 1,
    crowd_model: Optional[str] = None,
    engine: str = "grid",
    engine_params: Optional[Dict[str, Any]] = None,
) -> SessionSpec:
    """The one spec helper of the figure drivers and the eval suites.

    Unless ``crowd_model`` names one, the crowd model follows the
    accuracy: ``perfect`` at 1.0, ``noisy`` below it.
    """
    if crowd_model is None:
        crowd_model = "perfect" if accuracy >= 1.0 else "noisy"
    return SessionSpec(
        instance=InstanceSpec(
            n=n, k=k, workload=workload, seed=seed, params=params or {}
        ),
        policy=PolicySpec(policy, policy_params or {}),
        measure=MeasureSpec(measure),
        crowd=CrowdSpec(
            accuracy=accuracy,
            replication=replication,
            model=crowd_model,
        ),
        budget=BudgetSpec(questions=budget),
        engine=EngineSpec(engine, dict(engine_params or {})),
    )


def run_spec_cell(
    spec: Dict[str, Any], inference: bool = False
) -> Dict[str, Any]:
    """Picklable grid-cell runner: run one spec, return its flat row.

    ``inference`` turns on transitive answer inference for the session
    (the TRANS ablation).  ``evaluations`` is the session's residual
    evaluation count: the deterministic cost counter the paper's cost
    claims are gated on (``cpu`` is reported, never gated).
    """
    prepared = prepare_session(SessionSpec.from_dict(spec))
    prepared.session.use_transitive_inference = inference
    result = prepared.run()
    return {
        "policy": result.policy,
        "budget": result.budget,
        "seed": prepared.spec.instance.seed,
        "asked": result.questions_asked,
        "distance": result.distance_to_truth,
        "initial_distance": result.initial_distance,
        "uncertainty": result.final_uncertainty,
        "cpu": result.cpu_seconds,
        "build_cpu": result.timings.get("build", 0.0),
        "orderings": result.orderings_final,
        "orderings_initial": result.orderings_initial,
        "inferred": result.inferred_answers,
        "evaluations": prepared.session.evaluator.evaluations,
    }


def spec_cell(
    experiment: str,
    spec: SessionSpec,
    tags: Optional[Dict[str, Any]] = None,
    **runner_params: Any,
) -> GridCell:
    """One :func:`run_spec_cell` cell; rows are tagged with ``experiment``."""
    return GridCell(
        experiment=experiment,
        runner="repro.experiments.harness:run_spec_cell",
        params={"spec": spec.to_dict(), **runner_params},
        tags={"experiment": experiment, **(tags or {})},
    )


def spec_cells(
    experiment: str,
    policies: Mapping[str, Optional[Dict[str, Any]]],
    budgets: Sequence[int],
    reps: int,
    tags: Optional[Dict[str, Any]] = None,
    **instance: Any,
) -> List[GridCell]:
    """Declare the common ``policy × budget × repetition`` cell block.

    ``instance`` holds the remaining :func:`session_spec` fields;
    ``tags`` label every cell of the block (an arm name, say) without
    entering cell identity.
    """
    instance.setdefault("engine_params", DEFAULT_ENGINE_PARAMS)
    return [
        spec_cell(
            experiment,
            session_spec(
                policy=name,
                policy_params=policy_params,
                budget=budget,
                seed=BASE_SEED + rep,
                **instance,
            ),
            tags,
        )
        for name, policy_params in policies.items()
        for budget in budgets
        for rep in range(reps)
    ]


class ResultTable:
    """A flat collection of result records with aggregation & formatting."""

    def __init__(self, rows: Optional[List[Dict]] = None) -> None:
        self.rows: List[Dict] = list(rows) if rows else []

    def add(self, **record) -> None:
        """Append one record."""
        self.rows.append(record)

    # ------------------------------------------------------------------

    def aggregate(
        self, group_keys: Sequence[str], value_keys: Sequence[str]
    ) -> "ResultTable":
        """Mean/std over repetitions per group (NaN-aware)."""
        groups: Dict[Tuple, List[Dict]] = {}
        for row in self.rows:
            key = tuple(row.get(k) for k in group_keys)
            groups.setdefault(key, []).append(row)
        aggregated = ResultTable()
        for key, members in groups.items():
            record = dict(zip(group_keys, key, strict=True))
            record["reps"] = len(members)
            for value_key in value_keys:
                values = np.asarray(
                    [float(m.get(value_key, math.nan)) for m in members]
                )
                finite = values[np.isfinite(values)]
                record[value_key] = (
                    float(finite.mean()) if finite.size else math.nan
                )
                record[value_key + "_std"] = (
                    float(finite.std()) if finite.size > 1 else 0.0
                )
            aggregated.add(**record)
        return aggregated

    def pivot(
        self, series_key: str, x_key: str, value_key: str
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Series view: ``{series: [(x, value), …]}`` sorted by x."""
        series: Dict[str, List[Tuple[float, float]]] = {}
        for row in self.rows:
            series.setdefault(str(row[series_key]), []).append(
                (row[x_key], row[value_key])
            )
        for points in series.values():
            points.sort(key=lambda pair: pair[0])
        return series

    # ------------------------------------------------------------------

    def columns(self) -> List[str]:
        """Union of record keys, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def to_csv(self, path) -> None:
        """Write all records to CSV."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = self.columns()
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def format(self, columns: Optional[Sequence[str]] = None) -> str:
        """Aligned plain-text table (what the figure reports print)."""
        columns = list(columns) if columns else self.columns()

        def fmt(value) -> str:
            if isinstance(value, float):
                if math.isnan(value):
                    return "nan"
                return f"{value:.4g}"
            return str(value)

        body = [[fmt(row.get(c, "")) for c in columns] for row in self.rows]
        widths = [
            max(len(c), *(len(line[i]) for line in body)) if body else len(c)
            for i, c in enumerate(columns)
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(columns, widths, strict=True))
        rule = "  ".join("-" * w for w in widths)
        lines = [header, rule]
        for line in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(line, widths, strict=True)))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"ResultTable(rows={len(self.rows)})"


def format_series(
    series: Dict[str, List[Tuple[float, float]]],
    x_label: str = "B",
    value_format: str = "{:.4f}",
) -> str:
    """Print figure-style series: one row per algorithm, one column per x.

    This mirrors how the paper's figures are read: who wins at each budget.
    """
    xs = sorted({x for points in series.values() for x, _ in points})
    name_width = max(len(name) for name in series) if series else 4
    header = " " * (name_width + 2) + "  ".join(
        f"{x_label}={x:<8g}" for x in xs
    )
    lines = [header]
    for name in sorted(series):
        lookup = dict(series[name])
        cells = [
            value_format.format(lookup[x]) if x in lookup else "-"
            for x in xs
        ]
        lines.append(
            f"{name.ljust(name_width)}  " + "  ".join(c.ljust(10) for c in cells)
        )
    return "\n".join(lines)


__all__ = [
    "BASE_SEED",
    "ResultTable",
    "format_series",
    "run_spec_cell",
    "session_spec",
    "spec_cell",
    "spec_cells",
]

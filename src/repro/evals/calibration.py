"""Calibration of residual-uncertainty predictions (the fidelity gate).

The paper's question-selection machinery stands on one claim: the
*predicted* residual uncertainty :math:`R_q` (what
:meth:`ResidualEvaluator.single` computes before asking ``q``) tracks
the uncertainty actually *realized* once the crowd answers.  This suite
measures that claim directly.  Each cell runs one seeded session with a
:class:`CalibrationObserver` attached to the evaluator's committed-answer
hook, recording per answer the predicted fractional reduction
``(U_before - R_q) / U_before`` against the realized one
``(U_before - U_after) / U_before``, then summarises them as reliability
bins and an expected calibration error (ECE).

The second half of the suite checks PR 8's certified intervals: at every
state along the session (initial space + after each charged answer), the
measure's ``[lo, hi]`` must cover the *exact-space* value.  On exact
engines intervals are degenerate ``[v, v]`` so coverage is trivially
total; on beam engines the exact value is realized by replaying the
session's recorded answers through the paired exact engine (same grid
resolution, beam pruning stripped) via
:func:`repro.api.run.replay_session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.run import prepare_session, replay_session
from repro.evals.suite import EvalSuite, check, section
from repro.experiments.grid import ExperimentGrid, GridCell
from repro.experiments.harness import session_spec

#: Paper measures exercised by the calibration sweep.
MEASURE_NAMES = ("H", "Hw", "ORA", "MPO")

#: Pooled-ECE gate (documented in README "Evaluation & calibration").
#: Residual predictions are one-step *expectations* while realizations
#: are single draws, so perfect calibration is not attainable; the gate
#: catches systematic drift, not sampling noise.
ECE_THRESHOLD = 0.15

#: Certified intervals must cover realized values at every state.
NOMINAL_COVERAGE = 1.0

#: Float slack when testing membership in a certified interval.
COVERAGE_TOL = 1e-9

#: Engine params that turn beam pruning on; stripped to get the paired
#: exact engine for interval realization.
_BEAM_KEYS = ("beam_epsilon", "beam_width")


@dataclass
class CalibrationRecord:
    """One committed answer's prediction vs realization."""

    u_before: float
    u_after: float
    predicted_residual: float
    interval_before: Tuple[float, float]
    interval_after: Tuple[float, float]


class CalibrationObserver:
    """Records predicted vs realized uncertainty on the evaluator's
    committed-answer hook (:meth:`ResidualEvaluator.attach_observer`).

    The prediction is made from the *pre-answer* space — exactly the
    quantity policies rank questions by — so hypothetical scoring during
    selection never contaminates the record.
    """

    def __init__(self, evaluator: Any) -> None:
        self.evaluator = evaluator
        self.records: List[CalibrationRecord] = []

    def on_answer(
        self,
        space: Any,
        question: Any,
        holds: bool,
        accuracy: float,
        updated: Any,
    ) -> None:
        self.records.append(
            CalibrationRecord(
                u_before=self.evaluator.uncertainty(space),
                u_after=self.evaluator.uncertainty(updated),
                predicted_residual=self.evaluator.single(space, question),
                interval_before=self.evaluator.uncertainty_interval(space),
                interval_after=self.evaluator.uncertainty_interval(updated),
            )
        )


def fractional_reductions(
    records: Sequence[CalibrationRecord],
) -> Tuple[List[float], List[float]]:
    """Per-answer (predicted, realized) fractional reductions in [0, 1].

    Answers arriving on an already-certain space (``U_before == 0``)
    carry no signal and are skipped; reweighting can realize a small
    *increase*, which clips to 0 rather than going negative so the ECE
    bins stay on one scale.
    """
    predicted: List[float] = []
    realized: List[float] = []
    for record in records:
        if record.u_before <= 0.0:
            continue
        pred = (record.u_before - record.predicted_residual) / record.u_before
        real = (record.u_before - record.u_after) / record.u_before
        predicted.append(min(max(pred, 0.0), 1.0))
        realized.append(min(max(real, 0.0), 1.0))
    return predicted, realized


def reliability_bins(
    predicted: Sequence[float],
    realized: Sequence[float],
    bins: int = 10,
) -> List[List[float]]:
    """Equal-width bins over *predicted*: ``[count, sum_pred, sum_real]``.

    Sums (not means) so bins from many cells pool by element-wise
    addition — :meth:`CalibrationEval.score` merges per-cell bins this
    way before computing the suite-level ECE.
    """
    table = [[0.0, 0.0, 0.0] for _ in range(bins)]
    for pred, real in zip(predicted, realized, strict=True):
        index = min(int(pred * bins), bins - 1)
        table[index][0] += 1.0
        table[index][1] += pred
        table[index][2] += real
    return table


def expected_calibration_error(bin_table: Sequence[Sequence[float]]) -> float:
    """ECE over pooled reliability bins: count-weighted mean of
    ``|mean_pred - mean_real|`` per bin (0.0 when the table is empty)."""
    total = sum(row[0] for row in bin_table)
    if total <= 0:
        return 0.0
    ece = 0.0
    for count, sum_pred, sum_real in bin_table:
        if count > 0:
            ece += (count / total) * abs(sum_pred / count - sum_real / count)
    return ece


def merge_bins(tables: Sequence[Sequence[Sequence[float]]]) -> List[List[float]]:
    """Element-wise sum of same-width bin tables from many cells."""
    if not tables:
        return []
    width = len(tables[0])
    merged = [[0.0, 0.0, 0.0] for _ in range(width)]
    for table in tables:
        if len(table) != width:
            raise ValueError("cannot merge bin tables of different widths")
        for index, (count, sum_pred, sum_real) in enumerate(table):
            merged[index][0] += count
            merged[index][1] += sum_pred
            merged[index][2] += sum_real
    return merged


def interval_coverage(
    intervals: Sequence[Tuple[float, float]],
    exact_values: Sequence[float],
    tol: float = COVERAGE_TOL,
) -> float:
    """Fraction of states whose exact value lies inside the certified
    interval (1.0 for an empty state list — nothing to violate)."""
    if not intervals:
        return 1.0
    covered = sum(
        1
        for (lo, hi), value in zip(intervals, exact_values, strict=True)
        if lo - tol <= value <= hi + tol
    )
    return covered / len(intervals)


def run_calibration_cell(
    *,
    measure: str,
    crowd_model: str,
    accuracy: float,
    n: int,
    k: int,
    workload: str,
    seed: int,
    budget: int,
    policy: str = "T1-on",
    engine_params: Optional[Dict[str, Any]] = None,
    bins: int = 10,
) -> Dict[str, Any]:
    """Run one instrumented session and report its calibration row.

    The returned row is JSON-serializable (grid-store friendly): scalar
    diagnostics plus the poolable ``bins`` table.  For beam engines it
    also realizes exact values along the recorded answer trajectory and
    reports certified-interval ``coverage`` against them.
    """
    engine_params = dict(engine_params or {})
    beamed = any(engine_params.get(key) for key in _BEAM_KEYS)
    spec_with = partial(
        session_spec,
        n=n,
        k=k,
        workload=workload,
        seed=seed,
        policy=policy,
        budget=budget,
        measure=measure,
        accuracy=accuracy,
        crowd_model=crowd_model,
    )
    prepared = prepare_session(spec_with(engine_params=engine_params))
    evaluator = prepared.session.evaluator
    observer = CalibrationObserver(evaluator)
    evaluator.attach_observer(observer)
    try:
        result = prepared.run()
    finally:
        evaluator.detach_observer(observer)

    predicted, realized = fractional_reductions(observer.records)
    bin_table = reliability_bins(predicted, realized, bins=bins)

    # States along the trajectory: the initial space plus the space after
    # every committed answer.  Their certified intervals must bracket the
    # exact value at the same state.
    if observer.records:
        intervals = [observer.records[0].interval_before] + [
            record.interval_after for record in observer.records
        ]
    else:
        intervals = [evaluator.uncertainty_interval(result.final_space)]
    if beamed:
        exact_params = {
            key: value
            for key, value in engine_params.items()
            if key not in _BEAM_KEYS
        }
        exact_spec = spec_with(engine_params=exact_params)
        answer_tuples = [
            (a.question.i, a.question.j, a.holds, a.accuracy)
            for a in result.answers
        ]
        replay = replay_session(exact_spec, answer_tuples)
        exact_values = replay.uncertainties
    else:
        if observer.records:
            exact_values = [observer.records[0].u_before] + [
                record.u_after for record in observer.records
            ]
        else:
            exact_values = [evaluator.uncertainty(result.final_space)]
    coverage = interval_coverage(intervals, exact_values)

    return {
        "measure": measure,
        "crowd_model": crowd_model,
        "accuracy": accuracy,
        "seed": seed,
        "beamed": beamed,
        "answers": len(observer.records),
        "contradictions": result.contradictions,
        "bins": bin_table,
        "ece": expected_calibration_error(bin_table),
        "coverage": coverage,
        "coverage_states": len(intervals),
        "mean_predicted": (
            sum(predicted) / len(predicted) if predicted else 0.0
        ),
        "mean_realized": (
            sum(realized) / len(realized) if realized else 0.0
        ),
        "uncertainty_initial": result.initial_uncertainty,
        "uncertainty_final": result.final_uncertainty,
    }


@dataclass
class CalibrationEval(EvalSuite):
    """Reliability + certified-interval coverage across measures/crowds."""

    name: str = field(default="calibration", init=False)

    def grid(self, fast: bool = True) -> ExperimentGrid:
        seeds = [1] if fast else [1, 2, 3]
        crowds = [("perfect", 1.0), ("noisy", 0.8)]
        epsilons = [0.02] if fast else [0.01, 0.05]
        cells: List[GridCell] = []
        for measure in MEASURE_NAMES:
            for crowd_model, accuracy in crowds:
                for seed in seeds:
                    cells.append(
                        GridCell(
                            experiment="eval-calibration",
                            runner=(
                                "repro.evals.calibration:run_calibration_cell"
                            ),
                            params={
                                "measure": measure,
                                "crowd_model": crowd_model,
                                "accuracy": accuracy,
                                "n": 9,
                                "k": 4,
                                "workload": "jittered",
                                "seed": seed,
                                "budget": 8,
                                "engine_params": {"resolution": 512},
                            },
                        )
                    )
        # Beam interval-coverage cells: larger instance so pruning bites.
        for measure in ("H", "MPO"):
            for epsilon in epsilons:
                for seed in seeds:
                    cells.append(
                        GridCell(
                            experiment="eval-calibration",
                            runner=(
                                "repro.evals.calibration:run_calibration_cell"
                            ),
                            params={
                                "measure": measure,
                                "crowd_model": "perfect",
                                "accuracy": 1.0,
                                "n": 12,
                                "k": 5,
                                "workload": "jittered",
                                "seed": seed,
                                "budget": 8,
                                "engine_params": {
                                    "resolution": 512,
                                    "beam_epsilon": epsilon,
                                },
                            },
                        )
                    )
        return ExperimentGrid("eval-calibration", cells)

    def score(self, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
        exact_rows = [r for r in rows if not r["beamed"]]
        beam_rows = [r for r in rows if r["beamed"]]
        pooled = merge_bins([r["bins"] for r in exact_rows])
        pooled_ece = expected_calibration_error(pooled)
        exact_coverage = min(
            (r["coverage"] for r in exact_rows), default=1.0
        )
        # Certified bracketing only holds while beam and exact replays
        # apply identical updates; a swallowed contradiction forks the
        # trajectories, so those rows are surfaced but not gated.
        clean_beam = [r for r in beam_rows if r["contradictions"] == 0]
        beam_coverage = min(
            (r["coverage"] for r in clean_beam), default=1.0
        )
        checks = [
            check("ece_pooled", pooled_ece <= ECE_THRESHOLD,
                  pooled_ece, ECE_THRESHOLD, "<="),
            check("coverage_exact", exact_coverage >= NOMINAL_COVERAGE,
                  exact_coverage, NOMINAL_COVERAGE, ">="),
            check("coverage_beam", beam_coverage >= NOMINAL_COVERAGE,
                  beam_coverage, NOMINAL_COVERAGE, ">="),
        ]
        per_measure = {}
        for measure in MEASURE_NAMES:
            member_bins = [
                r["bins"] for r in exact_rows if r["measure"] == measure
            ]
            if member_bins:
                per_measure[measure] = expected_calibration_error(
                    merge_bins(member_bins)
                )
        metrics = {
            "ece_pooled": pooled_ece,
            "ece_per_measure": per_measure,
            "coverage_exact_min": exact_coverage,
            "coverage_beam_min": beam_coverage,
            "beam_rows_gated": len(clean_beam),
            "beam_rows_forked": len(beam_rows) - len(clean_beam),
            "answers_total": sum(r["answers"] for r in rows),
            "reliability_bins": pooled,
        }
        return section(self.name, checks, metrics)


__all__ = [
    "ECE_THRESHOLD",
    "NOMINAL_COVERAGE",
    "CalibrationEval",
    "CalibrationObserver",
    "CalibrationRecord",
    "expected_calibration_error",
    "fractional_reductions",
    "interval_coverage",
    "merge_bins",
    "reliability_bins",
    "run_calibration_cell",
]

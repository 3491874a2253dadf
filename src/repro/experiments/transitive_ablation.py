"""TRANS — ablation: transitive answer inference (library extension).

Not a paper artifact: the paper's model admits, but never evaluates,
answering questions *for free* when they are implied by the transitive
closure of earlier reliable answers (``a ≺ b`` and ``b ≺ c`` imply
``a ≺ c``).  This ablation runs identical sessions with and without the
closure and reports the distance at equal *paid* budgets plus the number
of free answers gained.

Expected shape: with inference on, the same paid budget reaches a lower
(or equal) distance, with savings growing with the budget; policies that
naturally ask transitively-related questions (Naive/Random) save the most.
"""

from __future__ import annotations

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import (
    DEFAULT_ENGINE_PARAMS,
    BASE_SEED,
    ResultTable,
    format_series,
    session_spec,
    spec_cell,
)

POLICIES = ["T1-on", "naive"]

#: Per profile: instance fields, repetitions, budgets.
FAST = ({"n": 12, "k": 6, "params": {"width": 0.26}}, 2, [5, 10, 15])
FULL = ({"n": 16, "k": 8, "params": {"width": 0.2}}, 4, [5, 10, 20, 30])


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the TRANS grid: paired closure-on/off cells per policy."""
    instance, reps, budgets = FAST if fast else FULL
    return ExperimentGrid(
        "TRANS",
        [
            spec_cell(
                "TRANS",
                session_spec(
                    policy=policy,
                    budget=budget,
                    seed=BASE_SEED + rep,
                    engine_params=DEFAULT_ENGINE_PARAMS,
                    **instance,
                ),
                {"arm": policy + ("+closure" if inference else "")},
                inference=inference,
            )
            for policy in POLICIES
            for budget in budgets
            for rep in range(reps)
            for inference in (False, True)
        ],
    )


def report(table: ResultTable) -> str:
    """Distance vs paid budget, with and without the closure."""
    aggregated = table.aggregate(["arm", "budget"], ["distance", "inferred"])
    series = aggregated.pivot("arm", "budget", "distance")
    lines = [
        "TRANS  transitive-inference ablation (distance vs paid budget)",
        format_series(series),
        "",
        "free answers gained (mean):",
        format_series(
            aggregated.pivot("arm", "budget", "inferred"),
            value_format="{:.2f}",
        ),
    ]
    return "\n".join(lines)

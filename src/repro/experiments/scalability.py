"""SCALE — engine and algorithm scalability in N and K.

Complements Figure 1(b): how TPO construction and one ``T1-on`` session
scale as the table grows (N) and the query deepens (K), per engine.

Expected shape: grid-engine build time grows with the number of orderings
(roughly exponential in K for fixed overlap, polynomial in N for fixed
tree size); ``incr`` is insensitive to K until its rounds force deeper
levels; the Monte Carlo engine's cost is dominated by the fixed sample
budget.
"""

from __future__ import annotations

from repro.experiments.grid import ExperimentGrid
from repro.experiments.harness import (
    BASE_SEED,
    ResultTable,
    session_spec,
    spec_cell,
)

FAST_GRID = {
    "n_sweep": [8, 12],
    "k_sweep": [3, 5],
    "engines": ["grid", "mc"],
    "budget": 5,
    "reps": 2,
}
FULL_GRID = {
    "n_sweep": [10, 15, 20, 25],
    "k_sweep": [4, 6, 8, 10],
    "engines": ["grid", "exact", "mc"],
    "budget": 10,
    "reps": 3,
}


def _engine_params(engine: str, seed: int) -> dict:
    if engine == "grid":
        return {"resolution": 600}
    if engine == "mc":
        return {"samples": 20000, "seed": seed}
    return {}


def grid(fast: bool = True) -> ExperimentGrid:
    """Declare the SCALE grid: sweep N (at mid K) and K (at mid N).

    The sweep label is a presentation tag, not part of cell identity, so
    the (mid N, mid K) point shared by both sweeps is computed once and
    reported under both labels.  Width shrinks with N to keep tree sizes
    comparable across the sweep.
    """
    spec = FAST_GRID if fast else FULL_GRID
    mid_k = spec["k_sweep"][len(spec["k_sweep"]) // 2]
    mid_n = spec["n_sweep"][len(spec["n_sweep"]) // 2]
    points = [("N", n, mid_k) for n in spec["n_sweep"]]
    points += [("K", mid_n, k) for k in spec["k_sweep"]]
    return ExperimentGrid(
        "SCALE",
        [
            spec_cell(
                "SCALE",
                session_spec(
                    n=n,
                    k=k,
                    seed=BASE_SEED + rep,
                    budget=spec["budget"],
                    params={"width": min(0.25, 3.0 / n)},
                    engine=engine,
                    engine_params=_engine_params(engine, BASE_SEED + rep),
                ),
                {"sweep": sweep, "engine": engine, "n": n, "k": k},
            )
            for engine in spec["engines"]
            for sweep, n, k in points
            for rep in range(spec["reps"])
        ],
    )


def report(table: ResultTable) -> str:
    """Build/session CPU and tree size per sweep point and engine."""
    aggregated = table.aggregate(
        ["sweep", "engine", "n", "k"],
        ["build_cpu", "cpu", "orderings_initial"],
    )
    aggregated.rows.sort(
        key=lambda r: (r["sweep"], r["engine"], r["n"], r["k"])
    )
    return "SCALE  engine scalability in N and K\n" + aggregated.format(
        ["sweep", "engine", "n", "k", "build_cpu", "cpu", "orderings_initial"]
    )

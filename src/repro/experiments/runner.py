"""Parallel, resumable execution of experiment grids.

``run_grid`` takes a declared :class:`~repro.experiments.grid.ExperimentGrid`
and executes its cells either in-process (``workers <= 1``) or fanned out
over a :class:`concurrent.futures.ProcessPoolExecutor`.  Reproducibility
does not depend on the execution mode: every cell derives its RNG streams
from its own parameters via :func:`repro.utils.rng.derive_seed` (process-
stable hashing), so a pool worker sees exactly the seeds the serial loop
would, and the assembled table is ordered by grid position, not completion
order.

With a :class:`~repro.experiments.store.ResultStore` attached, every
finished cell is durably appended as it completes; ``resume=True`` skips
cells the store already holds, which is how an interrupted fan-out run
picks up where it stopped.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.grid import ExperimentGrid, GridCell, execute_cell
from repro.experiments.harness import ResultTable
from repro.experiments.store import ResultStore
from repro.utils.timing import timed_wall

#: ``progress(done, total, cell)`` callback signature.
ProgressFn = Callable[[int, int, GridCell], None]


@dataclass
class GridRunReport:
    """What one ``run_grid`` invocation did.

    ``executed``/``skipped`` hold cell ids: *executed* cells were computed
    in this invocation, *skipped* ones were satisfied from the store
    (resume).  ``table`` always contains one row per grid cell, in grid
    order, whichever way the row was obtained.
    """

    grid_name: str
    table: ResultTable
    executed: List[str]
    skipped: List[str]
    workers: int
    wall_seconds: float = 0.0

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.grid_name}: {len(self.table)} rows, "
            f"executed {len(self.executed)}, skipped {len(self.skipped)}, "
            f"workers {self.workers}, {self.wall_seconds:.1f}s wall"
        )


def _extend_sys_path(paths: List[str]) -> None:
    """Pool-worker initializer: mirror the parent's import path.

    Under the ``spawn`` start method children do not inherit ``sys.path``
    mutations (e.g. a ``PYTHONPATH=src`` dev checkout added by the test
    harness), and cell runners are resolved by dotted import path.
    """
    for path in paths:
        if path not in sys.path:
            sys.path.append(path)


def _execute_serial(
    pending: List[GridCell],
    rows: Dict[str, Dict[str, Any]],
    store: Optional[ResultStore],
    progress: Optional[ProgressFn],
    done: int,
    total: int,
) -> None:
    for cell in pending:
        rows[cell.cell_id] = execute_cell(cell)
        if store is not None:
            store.append(cell.cell_id, cell.experiment, rows[cell.cell_id])
        done += 1
        if progress is not None:
            progress(done, total, cell)


def _execute_pool(
    pending: List[GridCell],
    rows: Dict[str, Dict[str, Any]],
    store: Optional[ResultStore],
    progress: Optional[ProgressFn],
    done: int,
    total: int,
    workers: int,
) -> None:
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_extend_sys_path,
        initargs=(list(sys.path),),
    ) as pool:
        futures = {pool.submit(execute_cell, cell): cell for cell in pending}
        try:
            # as_completed, not wait(): each cell must reach the store the
            # moment it finishes, or an interrupted run would lose every
            # in-flight result and resume would have nothing to skip.
            for future in as_completed(futures):
                cell = futures[future]
                row = future.result()  # re-raises worker failures
                rows[cell.cell_id] = row
                if store is not None:
                    store.append(cell.cell_id, cell.experiment, row)
                done += 1
                if progress is not None:
                    progress(done, total, cell)
        finally:
            # On a worker failure drop the queue instead of draining it;
            # everything already appended to the store stays resumable.
            for future in futures:
                future.cancel()


def run_grid(
    grid: ExperimentGrid,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> GridRunReport:
    """Execute ``grid`` and return its report (table + run statistics).

    Parameters
    ----------
    workers:
        ``<= 1`` runs serially in-process; ``>= 2`` fans cells out over
        that many pool workers.  Results are identical either way.
    store:
        Optional durable store; every finished cell is appended to it.
    resume:
        Skip cells whose id the store already holds (requires ``store``).
    progress:
        Optional ``progress(done, total, cell)`` callback, invoked after
        every executed cell.
    """
    if resume and store is None:
        raise ValueError("resume=True requires a result store")

    rows: Dict[str, Dict[str, Any]] = {}
    skipped: List[str] = []
    if resume:
        stored = store.load()
        for cell in grid:
            record = stored.get(cell.cell_id)
            if record is not None and cell.cell_id not in rows:
                rows[cell.cell_id] = record["row"]
                skipped.append(cell.cell_id)

    pending: List[GridCell] = []
    pending_ids = set(rows)
    for cell in grid:
        if cell.cell_id not in pending_ids:
            pending.append(cell)
            pending_ids.add(cell.cell_id)

    def execute_all() -> None:
        done, total = len(skipped), len(skipped) + len(pending)
        if workers >= 2 and len(pending) > 1:
            _execute_pool(pending, rows, store, progress, done, total, workers)
        else:
            _execute_serial(pending, rows, store, progress, done, total)

    _, wall_seconds = timed_wall(execute_all)

    table = ResultTable([{**rows[cell.cell_id], **cell.tags} for cell in grid])
    return GridRunReport(
        grid_name=grid.name,
        table=table,
        executed=[cell.cell_id for cell in pending],
        skipped=skipped,
        workers=max(workers, 1),
        wall_seconds=wall_seconds,
    )


__all__ = ["GridRunReport", "run_grid"]

"""Tests for the grid declaration, cell addressing, and parallel runner."""

import json
import math

import pytest

from repro.api.canonical import canonical_json
from repro.experiments import fig1a, scalability
from repro.experiments.grid import (
    ExperimentGrid,
    GridCell,
    execute_cell,
    resolve_runner,
)
from repro.experiments.harness import spec_cells
from repro.experiments.runner import run_grid
from repro.experiments.store import ResultStore

TINY_POLICIES = {"T1-on": None, "naive": None}
TINY_BUDGETS = [0, 2]


def tiny_grid() -> ExperimentGrid:
    return ExperimentGrid(
        "TINY",
        spec_cells(
            "TINY", TINY_POLICIES, TINY_BUDGETS, reps=1, n=6, k=3,
            params={"width": 0.3},
        ),
    )


def rows_match(a, b, ignore=("cpu", "build_cpu")) -> bool:
    """Cell-for-cell equality, NaN-aware, modulo measured timings."""
    if set(a) != set(b):
        return False
    for key in a:
        if key in ignore:
            continue
        left, right = a[key], b[key]
        if isinstance(left, float) and isinstance(right, float):
            if math.isnan(left) and math.isnan(right):
                continue
            if left != right:
                return False
        elif left != right:
            return False
    return True


class TestCellAddressing:
    def test_cell_id_ignores_param_insertion_order(self):
        a = GridCell("X", "m:f", {"alpha": 1, "beta": {"c": 2, "d": 3}})
        b = GridCell("X", "m:f", {"beta": {"d": 3, "c": 2}, "alpha": 1})
        assert a.cell_id == b.cell_id

    def test_cell_id_depends_on_every_identity_field(self):
        base = GridCell("X", "m:f", {"alpha": 1})
        assert base.cell_id != GridCell("Y", "m:f", {"alpha": 1}).cell_id
        assert base.cell_id != GridCell("X", "m:g", {"alpha": 1}).cell_id
        assert base.cell_id != GridCell("X", "m:f", {"alpha": 2}).cell_id

    def test_tags_do_not_enter_identity(self):
        a = GridCell("X", "m:f", {"alpha": 1}, tags={"arm": "left"})
        b = GridCell("X", "m:f", {"alpha": 1}, tags={"arm": "right"})
        assert a.cell_id == b.cell_id

    def test_canonical_json_is_key_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_resolve_runner_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            resolve_runner("no_colon_here")
        with pytest.raises(ValueError):
            resolve_runner("repro.experiments.harness:not_a_function")

    def test_execute_cell_runs_the_named_runner(self):
        cell = tiny_grid().cells[0]
        row = execute_cell(cell)
        assert row["policy"] == "T1-on"
        assert row["budget"] == 0


class TestGridFilter:
    def test_filter_by_policy_and_budget(self):
        grid = tiny_grid().filter(policies=["T1-on"], budgets=[2])
        assert len(grid) == 1
        spec = grid.cells[0].params["spec"]
        assert spec["policy"]["name"] == "T1-on"
        assert spec["budget"]["questions"] == 2

    def test_filter_keeps_cells_without_the_key(self):
        # A cell with no session spec has nothing to filter on; the
        # filter must not drop it.
        plain = GridCell("X", "m:f", {"alpha": 1})
        grid = ExperimentGrid("X", [plain, *tiny_grid().cells])
        kept = grid.filter(policies=["naive"], budgets=[0])
        assert kept.cells[0] is plain
        assert len(kept) == 2


class TestRunGrid:
    def test_serial_table_matches_legacy_loop_shape(self):
        report = run_grid(tiny_grid())
        assert len(report.table) == 4
        assert report.skipped == []
        assert len(report.executed) == 4
        assert {r["policy"] for r in report.table.rows} == {"T1-on", "naive"}
        assert {r["experiment"] for r in report.table.rows} == {"TINY"}

    def test_parallel_equals_serial_cell_for_cell(self):
        serial = run_grid(tiny_grid(), workers=0)
        parallel = run_grid(tiny_grid(), workers=2)
        assert len(serial.table) == len(parallel.table)
        for a, b in zip(serial.table.rows, parallel.table.rows, strict=True):
            assert rows_match(a, b), (a, b)

    def test_fig1a_parallel_equals_serial(self):
        # The acceptance-criterion grid: every policy (incl. incr with its
        # NaN initial metrics) through the pool, compared per cell.
        grid = fig1a.grid(fast=True).filter(budgets=[0, 5])
        serial = run_grid(grid, workers=0)
        parallel = run_grid(grid, workers=4)
        for a, b in zip(serial.table.rows, parallel.table.rows, strict=True):
            assert rows_match(a, b), (a, b)

    def test_resume_requires_store(self):
        with pytest.raises(ValueError):
            run_grid(tiny_grid(), resume=True)

    def test_shared_cells_execute_once_but_keep_their_tags(self):
        # The SCALE mid-point belongs to both sweeps: one execution, two
        # rows, each with its own sweep tag.
        grid = scalability.grid(fast=True)
        ids = [cell.cell_id for cell in grid]
        assert len(set(ids)) < len(ids)
        report = run_grid(grid)
        assert len(report.executed) == len(set(ids))
        assert len(report.table) == len(grid)
        assert {r["sweep"] for r in report.table.rows} == {"N", "K"}


class TestResumability:
    def test_store_populated_and_resume_skips_everything(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        first = run_grid(tiny_grid(), store=store)
        assert len(first.executed) == 4
        assert set(store.load()) == {cell.cell_id for cell in tiny_grid()}
        second = run_grid(tiny_grid(), store=store, resume=True)
        assert second.executed == []
        assert len(second.skipped) == 4
        for a, b in zip(first.table.rows, second.table.rows, strict=True):
            assert rows_match(a, b, ignore=())  # stored rows verbatim

    def test_interrupted_run_resumes_only_missing_cells(self, tmp_path):
        """Kill a run mid-flight (drop half the store), rerun, compare."""
        grid = tiny_grid()
        path = tmp_path / "results.jsonl"
        clean = run_grid(grid, store=ResultStore(path))

        # Simulate the crash: keep only the first half of the store.
        lines = path.read_text().splitlines()
        half = lines[: len(lines) // 2]
        path.write_text("".join(line + "\n" for line in half))
        surviving = {json.loads(line)["cell_id"] for line in half}

        resumed = run_grid(grid, store=ResultStore(path), resume=True)
        assert set(resumed.skipped) == surviving
        assert set(resumed.executed) == {c.cell_id for c in grid} - surviving
        # Merged results equal the clean run cell-for-cell.
        for a, b in zip(clean.table.rows, resumed.table.rows, strict=True):
            assert rows_match(a, b), (a, b)
        # And the store is whole again.
        assert set(ResultStore(path).load()) == {c.cell_id for c in grid}

    def test_resume_tolerates_a_torn_final_line(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "results.jsonl"
        run_grid(grid, store=ResultStore(path))
        # A run killed mid-write leaves a truncated last record.
        torn = path.read_text()[:-25]
        path.write_text(torn)
        resumed = run_grid(grid, store=ResultStore(path), resume=True)
        assert len(resumed.executed) == 1
        assert len(resumed.table) == len(grid)


class TestDriverGrids:
    def test_every_experiment_declares_a_grid(self):
        from repro.experiments import EXPERIMENTS

        for name, module in EXPERIMENTS.items():
            grid = module.grid(fast=True)
            assert len(grid) > 0
            for cell in grid:
                assert cell.experiment == name
                # Cell params must be JSON-round-trippable (store format).
                assert json.loads(canonical_json(cell.params)) == cell.params

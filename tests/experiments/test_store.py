"""Tests for the JSON-lines result store."""

import json
import math

from repro.experiments.store import ResultStore


class TestResultStore:
    def test_append_and_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "out.jsonl")
        store.append("abc", "FIG1A", {"policy": "T1-on", "distance": 0.5})
        store.append("def", "FIG1A", {"policy": "naive", "distance": 0.7})
        records = store.load()
        assert set(records) == {"abc", "def"}
        assert records["abc"]["experiment"] == "FIG1A"
        assert records["abc"]["row"]["distance"] == 0.5
        assert len(store) == 2

    def test_missing_file_loads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "nope.jsonl")
        assert store.load() == {}
        assert set(store.load()) == set()

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "out.jsonl")
        store.append("abc", "X", {"v": 1})
        store.append("abc", "X", {"v": 2})
        assert store.load()["abc"]["row"]["v"] == 2
        assert len(store) == 1

    def test_nan_rows_survive_the_roundtrip(self, tmp_path):
        # incr cells report NaN initial metrics; the store must keep them.
        store = ResultStore(tmp_path / "out.jsonl")
        store.append("abc", "X", {"initial_distance": float("nan")})
        value = store.load()["abc"]["row"]["initial_distance"]
        assert math.isnan(value)

    def test_unparsable_lines_are_skipped(self, tmp_path):
        path = tmp_path / "out.jsonl"
        store = ResultStore(path)
        store.append("abc", "X", {"v": 1})
        store.append("def", "X", {"v": 2})
        text = path.read_text()
        # Torn tail (killed mid-write) plus a stray garbage line.
        path.write_text("garbage\n" + text[:-10])
        records = store.load()
        assert set(records) == {"abc"}

    def test_creates_parent_directories(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "out.jsonl")
        store.append("abc", "X", {"v": 1})
        assert set(store.load()) == {"abc"}

    def test_lines_are_one_json_record_each(self, tmp_path):
        path = tmp_path / "out.jsonl"
        store = ResultStore(path)
        store.append("abc", "X", {"v": 1})
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {"cell_id": "abc", "experiment": "X", "row": {"v": 1}}


class TestDeduplication:
    """A resume that re-executes a torn cell appends a second line; merged
    reports must see exactly one row per cell (the freshest)."""

    def test_torn_cell_reexecution_yields_one_record(self, tmp_path):
        path = tmp_path / "out.jsonl"
        store = ResultStore(path)
        store.append("abc", "X", {"v": 1})
        store.append("def", "X", {"v": 2})
        # Kill mid-write: the def line is torn, so a resumed run recomputes
        # and re-appends that cell.
        path.write_text(path.read_text()[:-10])
        store.append("def", "X", {"v": 3})
        records = store.load()
        assert len(records) == 2
        assert records["def"]["row"]["v"] == 3

    def test_duplicate_cells_keep_last_through_run_grid(self, tmp_path):
        from repro.experiments.grid import ExperimentGrid, GridCell
        from repro.experiments.runner import run_grid

        cell = GridCell(
            experiment="X",
            runner="operator:length_hint",  # never executed (resume hit)
            params={"obj": []},
        )
        store = ResultStore(tmp_path / "out.jsonl")
        store.append(cell.cell_id, "X", {"v": "stale"})
        store.append(cell.cell_id, "X", {"v": "fresh"})
        report = run_grid(
            ExperimentGrid("X", [cell]), store=store, resume=True
        )
        assert len(report.table) == 1
        assert report.table.rows[0]["v"] == "fresh"
        assert report.skipped == [cell.cell_id]

    def test_compact_rewrites_one_line_per_cell(self, tmp_path):
        path = tmp_path / "out.jsonl"
        store = ResultStore(path)
        store.append("abc", "X", {"v": 1})
        store.append("abc", "X", {"v": 2})
        store.append("def", "X", {"v": float("nan")})
        path.write_text(path.read_text() + '{"torn...')
        removed = store.compact()
        assert removed == 2  # the duplicate and the torn line
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = store.load()
        assert records["abc"]["row"]["v"] == 2
        assert math.isnan(records["def"]["row"]["v"])
        # Compacting an already-compact store is a no-op.
        assert store.compact() == 0

    def test_compact_missing_file_is_noop(self, tmp_path):
        assert ResultStore(tmp_path / "nope.jsonl").compact() == 0

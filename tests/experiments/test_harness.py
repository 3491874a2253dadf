"""Tests for the experiment harness."""


import pytest

from repro.api.specs import SessionSpec
from repro.experiments.harness import (
    BASE_SEED,
    ResultTable,
    format_series,
    run_spec_cell,
    session_spec,
    spec_cells,
)


def tiny_spec(policy="T1-on", budget=2, seed=BASE_SEED, **fields):
    return session_spec(
        n=fields.pop("n", 7),
        k=fields.pop("k", 3),
        seed=seed,
        policy=policy,
        budget=budget,
        params={"width": 0.25},
        **fields,
    ).to_dict()


class TestSpecCells:
    def test_workload_is_rep_stable_and_policy_independent(self):
        cells = spec_cells(
            "X", {"T1-on": None, "naive": None}, [2], reps=2, n=6, k=3
        )
        seeds = [cell.params["spec"]["instance"]["seed"] for cell in cells]
        assert seeds == [BASE_SEED, BASE_SEED + 1] * 2
        instances = [cell.params["spec"]["instance"] for cell in cells]
        assert instances[0] == instances[2]  # same rep, other policy
        assert instances[0] != instances[1]  # other rep

    def test_truth_is_rep_stable(self):
        a = run_spec_cell(tiny_spec(budget=0))
        b = run_spec_cell(tiny_spec(budget=0))
        assert a == {**b, "cpu": a["cpu"], "build_cpu": a["build_cpu"]}

    def test_cells_are_spec_dicts_tagged_with_the_experiment(self):
        (cell,) = spec_cells("X", {"naive": None}, [3], reps=1, n=6, k=3)
        assert cell.runner == "repro.experiments.harness:run_spec_cell"
        spec = SessionSpec.from_dict(cell.params["spec"])
        assert spec.policy.name == "naive"
        assert spec.budget.questions == 3
        assert spec.engine_params == {"resolution": 800}
        assert cell.tags == {"experiment": "X"}

    def test_crowd_model_follows_accuracy(self):
        perfect = SessionSpec.from_dict(tiny_spec())
        noisy = SessionSpec.from_dict(tiny_spec(accuracy=0.8))
        assert perfect.crowd.model == "perfect"
        assert noisy.crowd.model == "noisy"


class TestRunCell:
    def test_produces_result(self):
        row = run_spec_cell(tiny_spec(budget=4))
        assert row["policy"] == "T1-on"
        assert row["asked"] <= 4
        assert row["evaluations"] > 0

    def test_policies_face_same_instance(self):
        a = run_spec_cell(tiny_spec("naive"))
        b = run_spec_cell(tiny_spec("T1-on"))
        # Common random numbers ⇒ identical initial instance and truth.
        assert a["initial_distance"] == pytest.approx(b["initial_distance"])
        assert a["orderings_initial"] == b["orderings_initial"]

    def test_noisy_config(self):
        from repro.api.run import run_session

        spec = tiny_spec(budget=3, n=6, accuracy=0.8)
        result = run_session(SessionSpec.from_dict(spec))
        assert result.answers[0].accuracy < 1.0
        assert run_spec_cell(spec)["asked"] == result.questions_asked

    def test_inference_flag_reaches_the_session(self):
        spec = tiny_spec("naive", budget=6, n=8, k=4)
        assert run_spec_cell(spec)["inferred"] == 0
        assert run_spec_cell(spec, inference=True)["inferred"] == 1


class TestResultTable:
    def test_aggregate_mean_and_std(self):
        table = ResultTable()
        table.add(policy="x", budget=5, distance=0.2)
        table.add(policy="x", budget=5, distance=0.4)
        table.add(policy="y", budget=5, distance=0.1)
        agg = table.aggregate(["policy", "budget"], ["distance"])
        rows = {r["policy"]: r for r in agg.rows}
        assert rows["x"]["distance"] == pytest.approx(0.3)
        assert rows["x"]["reps"] == 2
        assert rows["x"]["distance_std"] == pytest.approx(0.1)
        assert rows["y"]["distance_std"] == 0.0

    def test_aggregate_ignores_nan(self):
        table = ResultTable()
        table.add(policy="x", distance=float("nan"))
        table.add(policy="x", distance=0.5)
        agg = table.aggregate(["policy"], ["distance"])
        assert agg.rows[0]["distance"] == pytest.approx(0.5)

    def test_pivot_sorted_series(self):
        table = ResultTable()
        table.add(policy="a", budget=10, distance=0.1)
        table.add(policy="a", budget=5, distance=0.3)
        series = table.pivot("policy", "budget", "distance")
        assert series["a"] == [(5, 0.3), (10, 0.1)]

    def test_csv_roundtrip(self, tmp_path):
        table = ResultTable()
        table.add(policy="a", budget=1, distance=0.5)
        path = tmp_path / "out.csv"
        table.to_csv(path)
        text = path.read_text()
        assert "policy,budget,distance" in text
        assert "a,1,0.5" in text

    def test_format_alignment(self):
        table = ResultTable()
        table.add(policy="longname", value=1.23456)
        text = table.format()
        assert "policy" in text and "longname" in text

    def test_format_series_grid(self):
        series = {"algo": [(0, 0.5), (5, 0.25)]}
        text = format_series(series)
        assert "B=0" in text and "B=5" in text
        assert "0.2500" in text

    def test_add_result_projection(self):
        table = ResultTable()
        table.add(**run_spec_cell(tiny_spec("naive", n=6)))
        row = table.rows[0]
        assert row["policy"] == "naive"
        assert {"cpu", "distance", "evaluations", "inferred"} <= set(row)

"""Golden dataset: authentication, bit-identical replay, drift detection."""

import copy
import json

import pytest

from repro.evals.golden import (
    GoldenEval,
    dataset_path,
    load_dataset,
    record_case,
    run_golden_api_cell,
)
from repro.evals.specs import EvalSpec


@pytest.fixture(scope="module")
def dataset():
    return load_dataset()


def test_committed_dataset_loads_and_authenticates(dataset):
    assert dataset["version"] == 2
    assert len(dataset["cases"]) >= 4
    labels = [case["label"] for case in dataset["cases"]]
    assert len(set(labels)) == len(labels)


def test_dataset_spans_measures_policies_and_beam(dataset):
    sessions = [
        EvalSpec.from_dict(case["eval"]).session
        for case in dataset["cases"]
    ]
    assert len({spec.measure.name for spec in sessions}) >= 3
    assert len({spec.policy.name for spec in sessions}) >= 2
    assert any(
        spec.engine_spec.params.get("beam_epsilon") for spec in sessions
    )


def test_tampered_spec_fails_authentication(tmp_path, dataset):
    payload = copy.deepcopy(dataset)
    payload["cases"][0]["eval"]["session"]["instance"]["seed"] += 1
    target = tmp_path / "golden.json"
    target.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="key drift"):
        load_dataset(target)


def test_every_committed_case_replays_bit_identically(dataset):
    for case in dataset["cases"]:
        row = run_golden_api_cell(case=case)
        assert row["passed"], row["mismatches"]


def test_tampered_expectation_is_caught(dataset):
    case = copy.deepcopy(dataset["cases"][0])
    case["expected"]["final_uncertainty"] += 1e-9
    row = run_golden_api_cell(case=case)
    assert not row["passed"]
    assert any("final_uncertainty" in m for m in row["mismatches"])


def test_levelwise_incr_case_is_still_checked(dataset):
    """A recorded NaN is matched only by NaN, and the full-tree replay of
    an incr case still checks its final orderings."""
    case = copy.deepcopy(
        next(
            c for c in dataset["cases"]
            if c["expected"]["orderings_initial"] < 0
        )
    )
    case["expected"]["initial_uncertainty"] = 0.0
    case["expected"]["orderings_final"] += 1
    mismatches = run_golden_api_cell(case=case)["mismatches"]
    assert any(m.startswith("initial_uncertainty") for m in mismatches)
    assert any(m.startswith("orderings_final") for m in mismatches)
    assert any(m.startswith("replay.orderings_final") for m in mismatches)


def test_recording_is_reproducible(dataset):
    case = dataset["cases"][0]
    spec = EvalSpec.from_dict(case["eval"]).session
    fresh = record_case(spec)
    assert fresh["key"] == case["key"]
    assert fresh["expected"] == case["expected"]


def test_dataset_file_is_committed():
    assert dataset_path().is_file()


def test_grid_runs_every_case_through_both_paths(dataset):
    grid = GoldenEval().grid(fast=True)
    assert len(grid) == 2 * len(dataset["cases"])
    runners = {cell.runner for cell in grid}
    assert runners == {
        "repro.evals.golden:run_golden_api_cell",
        "repro.evals.service_replay:run_golden_service_cell",
    }


def test_score_collects_failures():
    rows = [
        {"path": "api", "label": "a", "key": "k1", "passed": True,
         "mismatches": []},
        {"path": "service", "label": "a", "key": "k1", "passed": False,
         "mismatches": ["final_uncertainty: expected 1, got 2"]},
    ]
    result = GoldenEval().score(rows)
    assert not result["passed"]
    assert result["metrics"]["failed"][0]["path"] == "service"

"""EVAL_report assembly: run_eval, persistence, baseline comparison."""

import copy

import pytest

from repro.evals.report import (
    DEFAULT_SUITES,
    compare_to_baseline,
    load_report,
    run_eval,
    summarize,
    write_report,
)


@pytest.fixture(scope="module")
def golden_report():
    return run_eval(suites=["golden"], fast=True)


def test_default_suites_cover_the_harness():
    assert DEFAULT_SUITES == ("calibration", "regret", "golden", "paper")


def test_run_eval_golden_suite_passes(golden_report):
    assert golden_report["passed"]
    assert golden_report["fast"]
    assert list(golden_report["suites"]) == ["golden"]
    suite = golden_report["suites"]["golden"]
    assert suite["passed"]
    assert suite["checks"]


def test_report_is_provenance_stamped(golden_report):
    assert golden_report["format"] == 1
    assert golden_report["git_sha"]
    assert golden_report["date"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_eval(suites=["nope"], fast=True)


def test_write_and_load_round_trip(tmp_path, golden_report):
    target = tmp_path / "EVAL_report.json"
    write_report(golden_report, target)
    assert load_report(target) == golden_report


def test_compare_to_baseline_flags_pass_to_fail_flips(golden_report):
    baseline = copy.deepcopy(golden_report)
    regressed = copy.deepcopy(golden_report)
    regressed["suites"]["golden"]["passed"] = False
    regressed["suites"]["golden"]["checks"][0]["passed"] = False
    regressed["passed"] = False

    assert compare_to_baseline(golden_report, baseline) == []
    regressions = compare_to_baseline(regressed, baseline)
    assert regressions
    assert any("golden" in line for line in regressions)


def test_missing_suite_counts_as_regression(golden_report):
    baseline = copy.deepcopy(golden_report)
    current = copy.deepcopy(golden_report)
    del current["suites"]["golden"]
    regressions = compare_to_baseline(current, baseline)
    assert any("not run" in line for line in regressions)


def test_missing_check_counts_as_regression(golden_report):
    """A gate that passed in the baseline and vanished (renamed or
    dropped) is reported, not silently skipped."""
    baseline = copy.deepcopy(golden_report)
    baseline["suites"]["golden"]["checks"].append(
        dict(baseline["suites"]["golden"]["checks"][0], name="gone")
    )
    regressions = compare_to_baseline(golden_report, baseline)
    assert regressions == ["check golden.gone: present in baseline, not run"]


def test_already_failing_baseline_is_not_a_regression(golden_report):
    baseline = copy.deepcopy(golden_report)
    baseline["suites"]["golden"]["passed"] = False
    current = copy.deepcopy(golden_report)
    current["suites"]["golden"]["passed"] = False
    assert compare_to_baseline(current, baseline) == []


def test_summarize_renders_every_suite_and_check(golden_report):
    text = summarize(golden_report)
    assert "golden" in text
    assert "overall" in text
    for chk in golden_report["suites"]["golden"]["checks"]:
        assert chk["name"] in text

"""Paper suite: the figure grids as cells, the paper's claims as gates."""

import copy

import pytest

from repro.api.catalog import EVALS
from repro.evals.paper import PaperEval
from repro.experiments import EXPERIMENTS, run_grid

CHECK_NAMES = [
    "fig1a_proposed_beat_random",
    "fig1a_t1on_improves_with_budget",
    "fig1b_coff_costlier_than_tboff",
    "fig1b_incr_cheaper_than_coff",
    "incr_cheaper_than_full_tree",
    "astar_t1on_quality_near_astar",
    "astar_t1on_cheaper_than_astar",
    "dist_t1on_vs_naive_every_family",
    "meas_structural_vs_entropy",
    "noise_answers_reduce_distance",
    "scale_sweep_measured",
    "trans_closure_never_hurts",
]


@pytest.fixture(scope="module")
def fast_rows():
    return run_grid(PaperEval().grid(fast=True)).table.rows


def _checks(section):
    return {c["name"]: c for c in section["checks"]}


def test_registered_as_an_eval_suite():
    assert isinstance(EVALS.create("paper"), PaperEval)


@pytest.mark.parametrize("fast", [True, False])
def test_grid_is_every_figure_grid(fast):
    grid = PaperEval().grid(fast=fast)
    expected = [
        cell.cell_id
        for module in EXPERIMENTS.values()
        for cell in module.grid(fast)
    ]
    assert [cell.cell_id for cell in grid] == expected
    assert {cell.tags["experiment"] for cell in grid} == set(EXPERIMENTS)


def test_fast_profile_passes_every_claim(fast_rows):
    section = PaperEval().score(fast_rows)
    assert [c["name"] for c in section["checks"]] == CHECK_NAMES
    failed = [c for c in section["checks"] if not c["passed"]]
    assert section["passed"], failed


def test_scoring_is_deterministic(fast_rows):
    first = PaperEval().score(fast_rows)
    second = PaperEval().score(copy.deepcopy(fast_rows))
    assert first == second


def test_no_gate_reads_seconds(fast_rows):
    """Cost claims are counts: scrambling every timing changes nothing."""
    scrambled = [
        {**row, "cpu": 1e6 * (i % 3), "build_cpu": -1.0}
        for i, row in enumerate(copy.deepcopy(fast_rows))
    ]
    assert PaperEval().score(scrambled) == PaperEval().score(fast_rows)


def test_cost_claim_flips_on_evaluation_counts(fast_rows):
    rows = copy.deepcopy(fast_rows)
    for row in rows:
        if row["experiment"] == "FIG1B" and row["policy"] == "C-off":
            row["evaluations"] = 0
    checks = _checks(PaperEval().score(rows))
    assert not checks["fig1b_coff_costlier_than_tboff"]["passed"]
    assert checks["fig1b_incr_cheaper_than_coff"]["passed"] is False


def test_quality_claim_flips_on_distances(fast_rows):
    rows = copy.deepcopy(fast_rows)
    for row in rows:
        if row["experiment"] == "FIG1A" and row["policy"] == "random":
            row["distance"] = 0.0
        if row["experiment"] == "FIG1A" and row["policy"] == "C-off":
            row["distance"] = 0.5
    section = PaperEval().score(rows)
    assert not _checks(section)["fig1a_proposed_beat_random"]["passed"]
    assert not section["passed"]

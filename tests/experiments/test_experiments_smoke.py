"""Smoke tests over the cheap experiment modules.

The expensive grids (FIG1A/FIG1B/MEAS/DIST) run whole in the paper eval
suite (``repro eval --suite paper``); here we run the sub-second ones end
to end so a broken experiment module fails the unit suite too.
"""

from repro.experiments import (
    EXPERIMENTS,
    astar_comparison,
    incr_ablation,
    noisy,
    run_grid,
    scalability,
)


def run(module):
    return run_grid(module.grid(fast=True)).table


class TestRegistry:
    def test_all_ids_registered(self):
        assert set(EXPERIMENTS) == {
            "FIG1A", "FIG1B", "MEAS", "ASTAR", "NOISE", "DIST", "INCR",
            "SCALE", "TRANS",
        }

    def test_modules_expose_grid_and_report(self):
        for module in EXPERIMENTS.values():
            assert callable(module.grid)
            assert callable(module.report)
            assert not hasattr(module, "run")
            assert not hasattr(module, "main")


class TestCheapExperiments:
    def test_astar_comparison(self):
        table = run(astar_comparison)
        assert len(table) == len(astar_comparison.POLICIES) * 2  # 2 reps
        text = astar_comparison.report(table)
        assert "A*-off" in text

    def test_incr_ablation(self):
        table = run(incr_ablation)
        arms = {row["arm"] for row in table.rows}
        assert "T1-on (full tree)" in arms
        assert any(arm.startswith("incr n=") for arm in arms)
        assert "INCR" in incr_ablation.report(table)

    def test_noise_arms(self):
        table = run(noisy)
        arms = {row["arm"] for row in table.rows}
        assert "p=1" in arms
        assert "p=0.8 x3 vote" in arms
        assert "NOISE" in noisy.report(table)

    def test_scalability_sweeps(self):
        table = run(scalability)
        sweeps = {row["sweep"] for row in table.rows}
        assert sweeps == {"N", "K"}
        for row in table.rows:
            assert row["build_cpu"] >= 0.0
            assert row["orderings_initial"] >= 1

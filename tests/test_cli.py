"""Tests for the command-line interface."""

import json

import pytest

from repro import __version__
from repro.api import all_registries
from repro.cli import main


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestList:
    def test_lists_every_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind, registry in all_registries().items():
            assert f"{kind} ({len(registry)})" in out
        assert "T1-on" in out
        assert "sensor_network" in out

    def test_kind_filter(self, capsys):
        assert main(["list", "--kind", "measures"]) == 0
        out = capsys.readouterr().out
        assert "measures (4): H, Hw, MPO, ORA" in out
        assert "policies" not in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == ["exact", "grid", "mc"]
        assert set(payload) == set(all_registries())

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["list", "--kind", "gadgets"])


class TestDemo:
    def test_demo_runs_and_prints_summary(self, capsys):
        code = main(
            ["demo", "--n", "8", "--k", "4", "--budget", "5", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "true top-4" in out
        assert "T1-on" in out
        assert "most probable top-4" in out

    def test_demo_other_policy(self, capsys):
        code = main(
            ["demo", "--policy", "naive", "--n", "8", "--k", "3",
             "--budget", "3"]
        )
        assert code == 0
        assert "naive" in capsys.readouterr().out

    def test_demo_noisy(self, capsys):
        code = main(
            ["demo", "--n", "7", "--k", "3", "--budget", "3",
             "--accuracy", "0.8"]
        )
        assert code == 0
        assert "accuracy=0.8" in capsys.readouterr().out

    def test_demo_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["demo", "--policy", "clairvoyant"])


class TestInspect:
    def test_inspect_prints_profile(self, capsys):
        code = main(["inspect", "--n", "8", "--k", "4", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overlap_fraction" in out
        assert "orderings:" in out
        assert "best questions to ask" in out

    def test_inspect_other_workload(self, capsys):
        code = main(["inspect", "--workload", "gaussian", "--n", "6",
                     "--k", "3"])
        assert code == 0


class TestExperiment:
    def test_unknown_experiment_id(self, capsys):
        code = main(["experiment", "NOPE"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_astar_fast(self, capsys):
        code = main(["experiment", "ASTAR"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ASTAR" in out
        assert "A*-off" in out

    def test_id_is_case_insensitive(self, capsys):
        code = main(["experiment", "astar"])
        assert code == 0


class TestRunGrid:
    """Grid runs (filters, store, resume, listing) on the one verb."""

    ARGS = ["experiment", "FIG1A", "--policies", "T1-on,naive",
            "--budgets", "0,5"]

    def test_runs_filtered_grid_serially(self, capsys):
        code = main(self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "FIG1A: 8 rows, executed 8, skipped 0, workers 1" in out
        assert "D(omega_r, T_K)" in out

    def test_store_and_resume_skip_completed_cells(self, capsys, tmp_path):
        store = str(tmp_path / "grid.jsonl")
        assert main(self.ARGS + ["--store", store]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--store", store, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "executed 0, skipped 8" in out

    def test_list_prints_cells_without_running(self, capsys):
        code = main(self.ARGS + ["--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FIG1A: 8 cells" in out
        assert '"policy":{"name":"T1-on"' in out
        assert "executed" not in out

    def test_resume_requires_store(self, capsys):
        code = main(["experiment", "FIG1A", "--resume"])
        assert code == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_unknown_id(self, capsys):
        code = main(["experiment", "FIG1A", "NOPE"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_budget_filter(self, capsys):
        code = main(["experiment", "FIG1A", "--budgets", "0,x"])
        assert code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_help_lists_the_experiment_ids(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        out = capsys.readouterr().out
        for name in ("FIG1A", "FIG1B", "SCALE", "TRANS"):
            assert name in out

    def test_run_grid_verb_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-grid", "FIG1A"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'run-grid'" in capsys.readouterr().err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


class TestServiceCommands:
    def test_serve_resume_requires_log(self, capsys):
        code = main(["serve", "--resume"])
        assert code == 2
        assert "--resume requires --log" in capsys.readouterr().err

    def test_serve_fleet_rejects_in_process_store(self, capsys):
        code = main(["serve", "--workers", "2", "--store", "memory"])
        assert code == 2
        assert "cross-process" in capsys.readouterr().err

    def test_serve_flags_build_a_serve_spec(self):
        from repro.cli import _build_parser, _serve_spec_from_args

        args = _build_parser().parse_args(
            ["serve", "--workers", "4", "--log", "/tmp/events.jsonl"]
        )
        spec = _serve_spec_from_args(args)
        assert spec.workers == 4
        # A fleet defaults to the shared disk tier, keyed off the log.
        assert spec.store.backend == "disk-npz"
        assert spec.store.path == "/tmp/events.jsonl.store"

        args = _build_parser().parse_args(["serve"])
        spec = _serve_spec_from_args(args)
        assert spec.workers == 1
        assert spec.store.backend == "none"  # single process unchanged


class TestEval:
    def test_eval_golden_suite_passes(self, capsys):
        code = main(["eval", "--suite", "golden"])
        assert code == 0
        out = capsys.readouterr().out
        assert "golden" in out
        assert "overall" in out
        assert "PASS" in out

    def test_eval_unknown_suite_rejected(self, capsys):
        code = main(["eval", "--suite", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown eval suites" in err
        assert "golden" in err  # lists what IS available

    def test_eval_resume_requires_store_dir(self, capsys):
        code = main(["eval", "--resume"])
        assert code == 2
        assert "--resume requires --store-dir" in capsys.readouterr().err

    def test_eval_writes_json_report(self, capsys, tmp_path):
        artifact = tmp_path / "EVAL_report.json"
        code = main(["eval", "--suite", "golden", "--json", str(artifact)])
        assert code == 0
        report = json.loads(artifact.read_text())
        assert report["passed"]
        assert report["suites"]["golden"]["passed"]

    def test_eval_baseline_comparison_is_clean(self, capsys, tmp_path):
        artifact = tmp_path / "EVAL_report.json"
        assert main(
            ["eval", "--suite", "golden", "--json", str(artifact)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["eval", "--suite", "golden", "--baseline", str(artifact)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "no regressions" in captured.out
        assert "REGRESSION" not in captured.err

    def test_eval_suite_filter_narrows_baseline_comparison(
        self, capsys, tmp_path
    ):
        """A --suite selection must not flag the deliberately skipped
        suites as 'present in baseline, not run' regressions."""
        artifact = tmp_path / "EVAL_report.json"
        assert main(["eval", "--json", str(artifact)]) == 0
        capsys.readouterr()
        code = main(
            ["eval", "--suite", "golden", "--baseline", str(artifact)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "no regressions" in captured.out
        assert "not run" not in captured.err

"""Tests for the consolidated report writer."""

from repro.experiments import astar_comparison, run_grid
from repro.experiments.report import run_report


class TestRunReport:
    def test_single_experiment_document(self, tmp_path):
        output = tmp_path / "report.md"
        csv_dir = tmp_path / "csv"
        grid_report = run_grid(astar_comparison.grid(fast=True))
        document = run_report(
            {"ASTAR": grid_report},
            fast=True,
            output=str(output),
            csv_dir=str(csv_dir),
        )
        assert "# Reproduction report" in document
        assert "## ASTAR" in document
        assert astar_comparison.report(grid_report.table) in document
        assert output.exists()
        assert (csv_dir / "astar.csv").exists()
        assert output.read_text() == document


class TestCliIntegration:
    def test_cli_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "out.md"
        code = main(
            ["experiment", "ASTAR", "--output", str(output)]
        )
        assert code == 0
        assert output.exists()
        assert "ASTAR" in output.read_text()
        assert "report written" in capsys.readouterr().out

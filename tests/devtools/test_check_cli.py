"""CLI contract of ``repro check`` on whole-program findings: exit codes,
formats, the graph dump artifact, and the baseline ratchet, driven by
the RPC fixtures (``test_lint_cli.py`` drives the RPL fixtures)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _build_parser
from repro.cli import main as repro_main
from repro.devtools.formats import JSON_FORMAT_VERSION

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "rpc103" / "bad"
OK = FIXTURES / "rpc103" / "ok"


def check_main(argv):
    return repro_main(["check", *argv])


def test_exit_zero_on_clean_tree(capsys):
    assert check_main(["--root", str(OK)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_exit_nonzero_on_violation_fixture(capsys):
    assert check_main(["--root", str(BAD)]) == 1
    out = capsys.readouterr().out
    assert "RPC103" in out
    assert "FAILED" in out


@pytest.mark.parametrize(
    "code", ["rpc101", "rpc102", "rpc103", "rpc104"]
)
def test_exit_codes_on_every_fixture_pair(code):
    assert check_main(["--root", str(FIXTURES / code / "bad")]) == 1
    assert check_main(["--root", str(FIXTURES / code / "ok")]) == 0


def test_repro_cli_check_verb(capsys):
    assert repro_main(["check", "--root", str(BAD)]) == 1
    assert "RPC103" in capsys.readouterr().out
    assert repro_main(["check", "--root", str(OK)]) == 0
    capsys.readouterr()


def test_json_format_schema(capsys):
    assert check_main(["--root", str(BAD), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["format_version"] == JSON_FORMAT_VERSION
    assert document["ok"] is False
    assert set(document["counts"]) == {
        "violations",
        "suppressed",
        "stale_baseline",
    }
    assert document["counts"]["violations"] == len(document["violations"])
    for violation in document["violations"]:
        assert set(violation) == {
            "rule",
            "path",
            "line",
            "col",
            "message",
            "line_text",
        }
        assert violation["rule"] == "RPC103"
    rule_rows = {rule["code"] for rule in document["rules"]}
    assert {"RPC101", "RPC102", "RPC103", "RPC104"} <= rule_rows


def test_github_format_annotations(capsys):
    assert check_main(["--root", str(BAD), "--format", "github"]) == 1
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("::error")]
    assert lines, out
    assert "file=src/repro/catalog.py" in lines[0]
    assert "title=RPC103" in lines[0]


def test_select_limits_checks(capsys):
    # The rpc103 bad tree only violates RPC103; selecting RPC101 passes.
    assert check_main(["--root", str(BAD), "--select", "RPC101"]) == 0
    capsys.readouterr()


def test_select_unknown_check_is_usage_error(capsys):
    assert check_main(["--root", str(BAD), "--select", "RPC999"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_missing_package_tree_is_usage_error(tmp_path, capsys):
    assert check_main(["--root", str(tmp_path)]) == 2
    assert "src/repro" in capsys.readouterr().err


def test_list_checks(capsys):
    assert check_main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for code in ("RPC101", "RPC102", "RPC103", "RPC104"):
        assert code in out


def test_graph_dump_artifact(tmp_path, capsys):
    dump = tmp_path / "artifacts" / "graph.json"
    assert (
        check_main(["--root", str(OK), "--graph-dump", str(dump)]) == 0
    )
    capsys.readouterr()
    document = json.loads(dump.read_text(encoding="utf-8"))
    assert document["format_version"] == 1
    assert document["counts"]["modules"] == 3
    assert "repro.catalog" in document["modules"]
    # The lazy registry edges are part of the artifact.
    texts = {ref["text"] for ref in document["lazy_refs"]}
    assert "repro.widgets:make_widget" in texts


def test_update_baseline_then_pass_then_stale(tmp_path, capsys):
    """The full ratchet lifecycle through the CLI."""
    baseline = tmp_path / "baseline.jsonl"
    # 1. New violations fail without a baseline.
    assert (
        check_main(["--root", str(BAD), "--baseline", str(baseline)]) == 1
    )
    # 2. --update-baseline records them (with TODO reasons to edit).
    assert (
        check_main(
            [
                "--root",
                str(BAD),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    assert "TODO reason" in capsys.readouterr().out
    # 3. Baselined violations now pass.
    assert (
        check_main(["--root", str(BAD), "--baseline", str(baseline)]) == 0
    )
    # 4. Pointing the same baseline at the fixed tree flags every entry
    #    as stale — the ratchet only turns one way.
    assert (
        check_main(["--root", str(OK), "--baseline", str(baseline)]) == 1
    )
    assert "stale" in capsys.readouterr().out


class TestSharedExitCodeConvention:
    """Per-file (RPL) and whole-program (RPC) findings share one exit-code
    convention (2 = usage, 1 = findings/gate failure, 0 = clean), the
    same as ``repro eval``."""

    def test_usage_error_is_2_for_both(self, capsys):
        assert check_main(["--select", "NOPE"]) == 2
        assert check_main(["--select", "RPL001,RPC999"]) == 2
        capsys.readouterr()

    def test_findings_are_1_for_both(self, capsys):
        assert check_main(["--root", str(FIXTURES / "rpl008" / "bad")]) == 1
        assert check_main(["--root", str(BAD)]) == 1
        capsys.readouterr()

    def test_clean_is_0_for_both(self, capsys):
        assert check_main(["--root", str(FIXTURES / "rpl008" / "ok")]) == 0
        assert check_main(["--root", str(OK)]) == 0
        capsys.readouterr()


def test_check_has_exactly_the_seven_options():
    args = vars(_build_parser().parse_args(["check"]))
    assert sorted(args) == [
        "baseline",
        "command",
        "fmt",
        "graph_dump",
        "list_checks",
        "root",
        "select",
        "update_baseline",
    ]


def test_building_the_parser_leaves_the_analyzer_unloaded():
    """Only the ``check`` verb loads the analyzer; every other command
    (``repro serve`` included) starts without it."""
    analyzer = [
        f"repro.devtools.{name}"
        for name in ("cli", "graph", "dataflow", "checks", "rules")
    ]
    code = (
        "import sys; from repro.cli import _build_parser; _build_parser(); "
        f"print(sorted(set({analyzer!r}) & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    ).stdout
    assert out.strip() == "[]"

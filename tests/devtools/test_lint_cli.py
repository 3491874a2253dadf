"""CLI contract of ``repro lint`` / ``python -m repro.devtools.lint``:
exit codes, the JSON schema, GitHub annotations, baseline flags."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.lint import LINT_RULES
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.formats import JSON_FORMAT_VERSION

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "rpl008" / "bad"
OK = FIXTURES / "rpl008" / "ok"


def test_exit_zero_on_clean_tree(capsys):
    assert lint_main(["--root", str(OK), "src"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_exit_nonzero_on_violation_fixture(capsys):
    assert lint_main(["--root", str(BAD), "src"]) == 1
    out = capsys.readouterr().out
    assert "RPL008" in out
    assert "FAILED" in out


@pytest.mark.parametrize(
    "code", [code.lower() for code in LINT_RULES.available()]
)
def test_exit_nonzero_on_every_violation_fixture(code):
    assert lint_main(["--root", str(FIXTURES / code / "bad"), "src"]) == 1
    assert lint_main(["--root", str(FIXTURES / code / "ok"), "src"]) == 0


def test_repro_cli_lint_verb(capsys):
    assert repro_main(["lint", "--root", str(BAD), "src"]) == 1
    assert "RPL008" in capsys.readouterr().out
    assert repro_main(["lint", "--root", str(OK), "src"]) == 0
    capsys.readouterr()


def test_json_format_schema(capsys):
    assert lint_main(["--root", str(BAD), "--format", "json", "src"]) == 1
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
            "severity",
        }
        assert violation["rule"] == "RPL008"
        assert violation["severity"] in ("error", "warning")
    rule_rows = {rule["code"]: rule for rule in document["rules"]}
    assert set(rule_rows) == set(LINT_RULES.available())
    for rule in rule_rows.values():
        assert rule["name"] and rule["rationale"]


def test_github_format_annotations(capsys):
    assert lint_main(["--root", str(BAD), "--format", "github", "src"]) == 1
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("::error")]
    assert lines, out
    assert "file=src/repro/ranking.py" in lines[0]
    assert "title=RPL008" in lines[0]
    assert ",line=" in lines[0]


def test_select_limits_rules(capsys):
    # The rpl008 bad tree only violates RPL008; selecting RPL001 passes.
    assert (
        lint_main(
            ["--root", str(BAD), "--select", "RPL001", "src"]
        )
        == 0
    )
    capsys.readouterr()


def test_select_unknown_rule_is_usage_error(capsys):
    assert lint_main(["--root", str(BAD), "--select", "RPL999", "src"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert len(LINT_RULES.available()) == 9
    for code in LINT_RULES.available():
        assert code in out


def test_update_baseline_then_pass_then_stale(tmp_path, capsys):
    """The full ratchet lifecycle through the CLI."""
    baseline = tmp_path / "baseline.jsonl"
    # 1. New violations fail without a baseline.
    assert (
        lint_main(["--root", str(BAD), "--baseline", str(baseline), "src"])
        == 1
    )
    # 2. --update-baseline records them (with TODO reasons to edit).
    assert (
        lint_main(
            [
                "--root",
                str(BAD),
                "--baseline",
                str(baseline),
                "--update-baseline",
                "src",
            ]
        )
        == 0
    )
    assert "TODO reason" in capsys.readouterr().out
    # 3. Baselined violations now pass.
    assert (
        lint_main(["--root", str(BAD), "--baseline", str(baseline), "src"])
        == 0
    )
    # 4. Pointing the same baseline at the fixed tree flags every entry
    #    as stale — the ratchet only turns one way.
    assert (
        lint_main(["--root", str(OK), "--baseline", str(baseline), "src"])
        == 1
    )
    assert "stale" in capsys.readouterr().out
    # 5. ... unless stale checking is explicitly waived.
    assert (
        lint_main(
            [
                "--root",
                str(OK),
                "--baseline",
                str(baseline),
                "--no-stale-check",
                "src",
            ]
        )
        == 0
    )

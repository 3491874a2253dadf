"""``repro check`` on per-file findings: exit codes, the JSON schema,
GitHub annotations and the baseline flags, driven by the RPL fixtures.

(``test_check_cli.py`` drives the same verb through the whole-program
RPC fixtures.)"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.catalog import CHECKS
from repro.cli import main as repro_main
from repro.devtools.formats import JSON_FORMAT_VERSION

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "rpl008" / "bad"
OK = FIXTURES / "rpl008" / "ok"


def check_main(argv):
    return repro_main(["check", *argv])


def test_exit_zero_on_clean_tree(capsys):
    assert check_main(["--root", str(OK)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_exit_nonzero_on_violation_fixture(capsys):
    assert check_main(["--root", str(BAD)]) == 1
    out = capsys.readouterr().out
    assert "RPL008" in out
    assert "FAILED" in out


@pytest.mark.parametrize(
    "code",
    sorted(
        path.name for path in FIXTURES.iterdir() if path.name.startswith("rpl")
    ),
)
def test_exit_nonzero_on_every_violation_fixture(code, capsys):
    """Every check runs by default, so each RPL fixture pair — the
    retired RPL004's included — fails and passes as a whole tree."""
    assert check_main(["--root", str(FIXTURES / code / "bad")]) == 1
    assert check_main(["--root", str(FIXTURES / code / "ok")]) == 0
    capsys.readouterr()


def test_repro_cli_lint_verb(capsys):
    """The old ``lint`` verb is gone: ``check`` reports the RPL findings."""
    with pytest.raises(SystemExit) as excinfo:
        repro_main(["lint"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err
    assert repro_main(["check", "--root", str(BAD)]) == 1
    assert "RPL008" in capsys.readouterr().out


def test_json_format_schema(capsys):
    assert check_main(["--root", str(BAD), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["format_version"] == JSON_FORMAT_VERSION == 2
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
        assert violation["rule"] == "RPL008"
    rule_rows = {rule["code"]: rule for rule in document["rules"]}
    assert set(rule_rows) == set(CHECKS.available())
    for rule in rule_rows.values():
        assert set(rule) == {"code", "name", "rationale"}
        assert rule["name"] and rule["rationale"]


def test_github_format_annotations(capsys):
    assert check_main(["--root", str(BAD), "--format", "github"]) == 1
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("::error")]
    assert lines, out
    assert "file=src/repro/ranking.py" in lines[0]
    assert "title=RPL008" in lines[0]
    assert ",line=" in lines[0]


def test_select_limits_rules(capsys):
    # The rpl008 bad tree only violates RPL008; selecting RPL001 passes.
    assert check_main(["--root", str(BAD), "--select", "RPL001"]) == 0
    assert check_main(["--root", str(BAD), "--select", "RPL008"]) == 1
    capsys.readouterr()


def test_select_unknown_rule_is_usage_error(capsys):
    assert check_main(["--root", str(BAD), "--select", "RPL004"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_list_rules(capsys):
    assert check_main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    assert len(CHECKS.available()) == 12
    for code in CHECKS.available():
        assert code in out


def test_update_baseline_then_pass_then_stale(tmp_path, capsys):
    """The full ratchet lifecycle on per-file findings."""
    baseline = tmp_path / "baseline.jsonl"
    run = ["--baseline", str(baseline)]
    # 1. New violations fail without a baseline.
    assert check_main(["--root", str(BAD), *run]) == 1
    # 2. --update-baseline records them (with TODO reasons to edit).
    assert check_main(["--root", str(BAD), *run, "--update-baseline"]) == 0
    assert "TODO reason" in capsys.readouterr().out
    # 3. Baselined violations now pass.
    assert check_main(["--root", str(BAD), *run]) == 0
    # 4. Pointing the same baseline at the fixed tree flags every entry
    #    as stale — the ratchet only turns one way.
    assert check_main(["--root", str(OK), *run]) == 1
    assert "stale" in capsys.readouterr().out

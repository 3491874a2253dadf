"""Fixture-based self-tests: every RPL rule has a passing and a failing
example tree.

Each ``tests/devtools/fixtures/<rule>/{ok,bad}`` directory is a mini repo
root mirroring the real ``src/repro`` layout, so the path scoping of
path-sensitive rules (RPL004 service-only, RPL005 hot-path files,
allowlisted digest/append sites) is exercised for real, not mocked.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import LINT_RULES, Checker

FIXTURES = Path(__file__).parent / "fixtures"
ALL_CODES = sorted(LINT_RULES.available())


def run_on(root: Path, code: str):
    checker = Checker([LINT_RULES.create(code)])
    return checker.check_paths(root, [Path("src")])


def test_every_rule_has_both_fixtures():
    assert ALL_CODES == [f"RPL{i:03d}" for i in range(1, 11) if i != 6]
    for code in ALL_CODES:
        tree = FIXTURES / code.lower()
        assert (tree / "ok" / "src").is_dir(), f"missing ok fixture for {code}"
        assert (tree / "bad" / "src").is_dir(), f"missing bad fixture for {code}"


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_fails(code):
    violations = run_on(FIXTURES / code.lower() / "bad", code)
    assert violations, f"{code} found nothing in its violation fixture"
    assert {v.rule for v in violations} == {code}
    for violation in violations:
        assert violation.line > 0
        assert violation.message
        assert violation.line_text


@pytest.mark.parametrize("code", ALL_CODES)
def test_ok_fixture_passes(code):
    violations = run_on(FIXTURES / code.lower() / "ok", code)
    assert violations == [], (
        f"{code} false positives: "
        + "; ".join(f"{v.path}:{v.line} {v.message}" for v in violations)
    )


@pytest.mark.parametrize("code", ALL_CODES)
def test_rules_are_documented(code):
    rule = LINT_RULES.create(code)
    assert rule.code == code
    assert rule.name
    assert rule.rationale
    assert (rule.__doc__ or "").strip(), f"{code} has no docstring"


def test_expected_bad_finding_counts():
    """Pin the per-fixture finding counts so rule regressions surface."""
    expected = {
        "RPL001": 4,  # import random, default_rng(), seed(), legacy rand()
        "RPL002": 2,  # hash() + hashlib import
        "RPL003": 2,  # object.__setattr__ + attribute store on spec
        "RPL004": 4,  # open, time.sleep, subprocess.run, sock.recv
        "RPL005": 4,  # empty/zeros/array/ones without dtype
        "RPL007": 1,  # raw append-mode open
        "RPL008": 3,  # weights=[], cache={}, options=dict()
        "RPL009": 3,  # GridBuilder + MonteCarloBuilder + dotted ExactBuilder
        "RPL010": 4,  # session import + default_rng + 2 direct constructions
    }
    actual = {
        code: len(run_on(FIXTURES / code.lower() / "bad", code))
        for code in ALL_CODES
    }
    assert actual == expected


def test_syntax_error_is_reported(tmp_path):
    target = tmp_path / "src" / "repro" / "broken.py"
    target.parent.mkdir(parents=True)
    target.write_text("def broken(:\n")
    violations = Checker().check_paths(tmp_path, [Path("src")])
    assert [v.rule for v in violations] == ["RPL000"]
    assert "does not parse" in violations[0].message


def test_non_first_party_paths_are_ignored(tmp_path):
    target = tmp_path / "scripts" / "tool.py"
    target.parent.mkdir(parents=True)
    target.write_text("import random\n\n\ndef f(x=[]):\n    return x\n")
    assert Checker().check_paths(tmp_path, [Path("scripts")]) == []


def test_numpy_alias_resolution(tmp_path):
    """`import numpy as anything` is tracked, not just the np idiom."""
    target = tmp_path / "src" / "repro" / "tpo" / "builders.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import numpy as nump\n\n\ndef f(n):\n    return nump.zeros(n)\n"
    )
    violations = Checker().check_paths(tmp_path, [Path("src")])
    assert [v.rule for v in violations] == ["RPL005"]


def test_repo_src_is_lint_clean_modulo_baseline():
    """The ratchet itself: the real src/ tree stays clean forever.

    Uses the committed baseline, so a deliberate, reason-annotated
    exception does not fail the suite — but any new violation does.
    """
    from repro.devtools.lint import apply_baseline, load_baseline

    root = Path(__file__).resolve().parents[2]
    violations = Checker().check_paths(root, [Path("src")])
    entries = load_baseline(root / "lint_baseline.jsonl")
    result = apply_baseline(violations, entries)
    assert result.new == [], "; ".join(
        f"{v.path}:{v.line} {v.rule} {v.message}" for v in result.new
    )
    assert result.stale == [], (
        "stale baseline entries: "
        + "; ".join(e.line_text for e in result.stale)
    )
    for entry in entries:
        assert entry.reason and "TODO" not in entry.reason, (
            f"baseline entry for {entry.path} needs a real reason"
        )

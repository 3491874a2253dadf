"""Fixture-based self-tests of the per-file RPL checks: every rule has a
passing and a failing example tree.

Each ``tests/devtools/fixtures/<rule>/{ok,bad}`` directory is a mini repo
root mirroring the real ``src/repro`` layout, so the path scoping of
path-sensitive rules (RPL005 hot-path files, allowlisted digest/append
sites) is exercised for real, not mocked.

A retired rule keeps its fixtures: they must still fail and pass under
the check that subsumes it (RPL004's direct blocking calls in service
coroutines are RPC101 findings, one per offending coroutine).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api.catalog import CHECKS
from repro.devtools.baseline import load_baseline
from repro.devtools.checks import FileCheck, analyze

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
#: Retired rule → the stricter check whose fixtures-run proves subsumption.
RETIRED = {"RPL004": "RPC101"}
RULE_CODES = [
    code
    for code in CHECKS.available()
    if isinstance(CHECKS.create(code), FileCheck)
]
ALL_CODES = sorted([*RULE_CODES, *RETIRED])


def run_on(root: Path, code: str):
    check = CHECKS.create(RETIRED.get(code, code))
    return analyze(root, [check])[1]


def test_every_rule_has_both_fixtures():
    assert RULE_CODES == [
        f"RPL{i:03d}" for i in range(1, 11) if i not in (4, 6)
    ]
    for code in ALL_CODES:
        tree = FIXTURES / code.lower()
        assert (tree / "ok" / "src").is_dir(), f"missing ok fixture for {code}"
        assert (tree / "bad" / "src").is_dir(), f"missing bad fixture for {code}"


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_fails(code):
    violations = run_on(FIXTURES / code.lower() / "bad", code)
    assert violations, f"{code} found nothing in its violation fixture"
    assert {v.rule for v in violations} == {RETIRED.get(code, code)}
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
    if code in RETIRED:
        # The subsuming check names the rule it retired.
        assert code not in CHECKS
        assert code in (CHECKS.get(RETIRED[code]).__doc__ or "")
        return
    rule = CHECKS.create(code)
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
        "RPL004": 2,  # under RPC101: handle_dump (open, sleep, subprocess)
        #               and handle_socket (sock.recv)
        "RPL005": 4,  # empty/zeros/array/ones without dtype
        "RPL007": 1,  # raw append-mode open
        "RPL008": 3,  # weights=[], cache={}, options=dict()
        "RPL009": 3,  # GridBuilder + MonteCarloBuilder + dotted ExactBuilder
        "RPL010": 6,  # eval: session import + default_rng + 2 direct
        #               constructions; driver: session import + construction
    }
    actual = {
        code: len(run_on(FIXTURES / code.lower() / "bad", code))
        for code in ALL_CODES
    }
    assert actual == expected


def test_retired_rpl004_findings_name_each_coroutine():
    violations = run_on(FIXTURES / "rpl004" / "bad", "RPL004")
    assert [v.message.split(":")[0] for v in violations] == [
        "async def handle_dump may block the event loop",
        "async def handle_socket may block the event loop",
    ]
    assert violations[1].message.endswith("-> .recv(...)")


def test_syntax_error_is_reported(tmp_path):
    """A file that does not parse fails the run as RPL000; it is never
    silently skipped, whatever checks are selected."""
    target = tmp_path / "src" / "repro" / "broken.py"
    target.parent.mkdir(parents=True)
    target.write_text("def broken(:\n")
    (tmp_path / "src" / "repro" / "fine.py").write_text("X = 1\n")
    graph, violations = analyze(tmp_path, [CHECKS.create("RPC103")])
    assert set(graph.modules) == {"repro.fine"}
    assert [v.rule for v in violations] == ["RPL000"]
    assert violations[0].path == "src/repro/broken.py"
    assert "does not parse" in violations[0].message


def test_non_first_party_paths_are_ignored(tmp_path):
    target = tmp_path / "scripts" / "tool.py"
    target.parent.mkdir(parents=True)
    target.write_text("import random\n\n\ndef f(x=[]):\n    return x\n")
    (tmp_path / "src" / "repro").mkdir(parents=True)
    checks = [CHECKS.create(code) for code in RULE_CODES]
    assert analyze(tmp_path, checks)[1] == []


def test_numpy_alias_resolution(tmp_path):
    """`import numpy as anything` is tracked, not just the np idiom."""
    target = tmp_path / "src" / "repro" / "tpo" / "builders.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import numpy as nump\n\n\ndef f(n):\n    return nump.zeros(n)\n"
    )
    checks = [CHECKS.create(code) for code in RULE_CODES]
    _, violations = analyze(tmp_path, checks)
    assert [v.rule for v in violations] == ["RPL005"]


def test_repo_src_is_lint_clean_modulo_baseline(repo_analysis):
    """The ratchet itself: the committed baseline is empty, and the real
    tree passes every per-file rule without it."""
    assert load_baseline(REPO_ROOT / "check_baseline.jsonl") == []
    violations = [v for v in repo_analysis[1] if v.rule in RULE_CODES]
    assert violations == [], "; ".join(
        f"{v.path}:{v.line} {v.rule} {v.message}" for v in violations
    )

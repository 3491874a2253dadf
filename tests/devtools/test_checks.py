"""Fixture-based self-tests: every whole-program RPC check has a passing
and a failing example tree, and the real tree passes every check.

Each ``tests/devtools/fixtures/rpc10x/{ok,bad}`` directory is a mini
repo root mirroring the real ``src/repro`` layout; the bad tree violates
exactly its check's invariant *interprocedurally* (no single file trips
a per-file RPL rule), the ok tree shows the sanctioned way to do the
same work.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.api.catalog import CHECKS
from repro.cli import main as repro_main
from repro.devtools.checks import FileCheck, FileContext, analyze

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
EVERY_CODE = CHECKS.available()
ALL_CODES = [
    code
    for code in EVERY_CODE
    if not isinstance(CHECKS.create(code), FileCheck)
]

#: Pinned finding counts per bad fixture — a check that silently loses
#: (or gains) coverage shows up as a count flip, not just "non-empty".
EXPECTED_BAD_COUNTS = {
    "RPC101": 2,  # async → sync → sync → open(); async → sync → .write_text
    "RPC102": 2,  # canonical_json and content_key both reach time.time
    "RPC103": 3,  # missing attr, missing module, unregistered literal
    "RPC104": 2,  # KeyError two frames down; RuntimeError past a filter
}


def run_on(root: Path, code: str):
    return analyze(root, [CHECKS.create(code)])[1]


def test_every_check_has_both_fixtures():
    assert ALL_CODES == ["RPC101", "RPC102", "RPC103", "RPC104"]
    for code in ALL_CODES:
        tree = FIXTURES / code.lower()
        assert (tree / "ok" / "src").is_dir(), f"missing ok fixture for {code}"
        assert (
            tree / "bad" / "src"
        ).is_dir(), f"missing bad fixture for {code}"


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
def test_expected_bad_finding_counts(code):
    violations = run_on(FIXTURES / code.lower() / "bad", code)
    assert len(violations) == EXPECTED_BAD_COUNTS[code]


@pytest.mark.parametrize("code", ALL_CODES)
def test_disabling_the_check_hides_its_findings(code):
    """Each bad tree is clean under every *other* check, per-file rules
    included — the findings exist if and only if the owning check runs,
    so disabling a check demonstrably flips its fixture from failing to
    passing."""
    others = [c for c in EVERY_CODE if c != code]
    _, violations = analyze(
        FIXTURES / code.lower() / "bad",
        [CHECKS.create(other) for other in others],
    )
    assert violations == [], (
        f"bad fixture for {code} is not isolated: "
        + "; ".join(f"{v.rule} {v.path}:{v.line}" for v in violations)
    )


@pytest.mark.parametrize("code", ALL_CODES)
def test_checks_are_documented(code):
    check = CHECKS.create(code)
    assert check.code == code
    assert check.name
    assert check.rationale
    assert (check.__doc__ or "").strip(), f"{code} has no docstring"


def test_witness_chains_are_readable():
    """RPC101's message prints the full call chain down to the primitive
    — a method call on a plain local (``path.write_text``) included."""
    export, manifest = run_on(FIXTURES / "rpc101" / "bad", "RPC101")
    assert (
        "repro.service.handlers:_handle_export"
        " -> repro.service.handlers:persist_rows"
        " -> repro.service.handlers:_write_row"
        " -> open(...)" in export.message
    )
    assert manifest.message.endswith(
        "repro.service.handlers:_handle_manifest"
        " -> repro.service.handlers:_write_manifest"
        " -> .write_text(...)"
    )


def test_rpc104_names_the_origin_frame():
    violations = run_on(FIXTURES / "rpc104" / "bad", "RPC104")
    by_message = "\n".join(v.message for v in violations)
    assert "raised in repro.service.handlers:_load_session" in by_message
    assert "raised in repro.service.handlers:_reset_engine" in by_message


def test_real_repo_is_clean(repo_analysis):
    """The committed tree satisfies every check (the one real RPC finding
    — TPOSizeError escaping the create handler as an opaque 500 — was
    fixed, not baselined)."""
    _, violations = repo_analysis
    assert violations == [], "\n".join(
        f"{v.rule} {v.path}:{v.line} {v.message}" for v in violations
    )


def test_one_run_parses_each_file_once(monkeypatch, capsys):
    """One ``repro check`` run over the real tree parses every package
    file exactly once; quoted annotations (``eval``-mode parses of a
    string constant) are not file parses."""
    real_parse = ast.parse
    file_parses = []

    def counting_parse(source, *args, **kwargs):
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "exec")
        if mode == "exec":
            file_parses.append(source)
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    assert repro_main(["check", "--root", str(REPO_ROOT)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out
    package_files = list((REPO_ROOT / "src" / "repro").rglob("*.py"))
    assert len(file_parses) == len(package_files)


def test_readme_table_lists_every_check_by_its_registered_name():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Static analysis\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (RP[LC]\d{3}) \| ([\w-]+) \|", section, re.M)
    assert len(rows) == len(dict(rows))
    assert dict(rows) == {
        code: CHECKS.create(code).name for code in EVERY_CODE
    }


#: A mini package with functions, a nested ``def``, ``try``, ``__init__``
#: attributes and a registration with a literal lookup.
WALKED_TREE = {
    "catalog.py": (
        "from repro.registry import Registry\n"
        "\n"
        "WIDGETS = Registry('widgets')\n"
        "WIDGETS.register('plain', 'repro.widgets:make_widget')\n"
        "\n"
        "\n"
        "def build(name):\n"
        "    try:\n"
        "        return WIDGETS.get('plain')\n"
        "    except KeyError:\n"
        "        raise ValueError(name)\n"
    ),
    "widgets.py": (
        "class Widget:\n"
        "    def __init__(self, size: int, owner: 'Widget' = None) -> None:\n"
        "        self.size = size\n"
        "        self.owner: Widget = owner\n"
        "\n"
        "    def grow(self, by=[]):\n"
        "        def step():\n"
        "            return self.size + 1\n"
        "\n"
        "        return step()\n"
        "\n"
        "\n"
        "def make_widget():\n"
        "    return Widget(1)\n"
    ),
}
#: Node types the parser shares between sites (``ast.Load()`` and the
#: operators): not per-site nodes, so not counted.
SHARED = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop)


def test_one_check_walks_each_node_once(tmp_path, monkeypatch):
    """One analysis yields each node at most three times — the index
    pass, once more inside an ``__init__``, and the one walk — and hands
    every node to the per-file checks exactly once."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    for name, source in WALKED_TREE.items():
        (package / name).write_text(source)
    real_children, real_visit = ast.iter_child_nodes, FileContext.visit
    yields, visits = Counter(), Counter()

    def counting_children(node):
        for child in real_children(node):
            if not isinstance(child, SHARED):
                yields[child] += 1
            yield child

    def counting_visit(ctx, node):
        visits[node] += 1
        real_visit(ctx, node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting_children)
    monkeypatch.setattr(FileContext, "visit", counting_visit)
    graph, violations = analyze(
        tmp_path, [CHECKS.create(code) for code in EVERY_CODE]
    )
    monkeypatch.undo()

    assert [v.rule for v in violations] == ["RPL008"]  # grow's ``by=[]``
    (ref,) = graph.lazy_refs
    assert (ref.registry, ref.plugin) == ("WIDGETS", "plain")
    assert [(look.registry, look.plugin) for look in graph.lookups] == [
        ("WIDGETS", "plain")
    ]
    assert yields and max(yields.values()) <= 3
    for module in graph.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, SHARED):
                assert visits[node] == 1, ast.dump(node)


@pytest.mark.parametrize(
    "code",
    [code for code in EVERY_CODE if isinstance(CHECKS.create(code), FileCheck)],
)
def test_rule_finds_nothing_outside_its_node_types(code):
    """``FileContext.visit`` hands a rule only the node types it declares;
    on every other node of its violation fixture the rule is silent."""
    check = CHECKS.create(code)
    assert check.node_types
    graph, violations = analyze(FIXTURES / code.lower() / "bad", [check])
    assert violations
    for module in graph.modules.values():
        ctx = FileContext(module, [check])
        for node in ast.walk(module.tree):
            if not isinstance(node, check.node_types):
                assert not list(check.visit_node(node, ctx)), ast.dump(node)

"""Renderer unit tests for :mod:`repro.devtools.formats` — the one
text/json/github implementation behind ``repro check``.

The CLI tests exercise the renderers end-to-end on well-behaved
fixtures; these tests pin the hostile-input corners: GitHub
workflow-command escaping (``%``, newlines, ``::`` in messages and
paths) and the JSON round-trip of the fingerprint fields.
"""

from __future__ import annotations

import json

from repro.devtools.baseline import BaselineEntry
from repro.devtools.findings import Violation
from repro.devtools.formats import (
    render,
    render_github,
    render_json,
    render_text,
)


def make_violation(**overrides):
    base = dict(
        rule="RPL001",
        path="src/repro/sampling.py",
        line=12,
        col=5,
        message="unseeded RNG",
        line_text="rng = np.random.default_rng()",
    )
    base.update(overrides)
    return Violation(**base)


class TestGithubEscaping:
    def test_percent_is_escaped_first(self):
        # A pre-escaped "%0A" in the message must survive as literal
        # text, not turn into a newline: % -> %25 must run first.
        out = render_github(
            [make_violation(message="100% of cases; literal %0A token")],
            [],
            [],
        )
        line = out.splitlines()[0]
        assert "100%25 of cases" in line
        assert "%250A" in line
        assert "%0A token" not in line

    def test_newlines_in_message_do_not_split_the_command(self):
        out = render_github(
            [make_violation(message="first line\nsecond line\rthird")],
            [],
            [],
        )
        command_lines = [
            line for line in out.splitlines() if line.startswith("::")
        ]
        assert len(command_lines) == 1
        assert "%0A" in command_lines[0]
        assert "%0D" in command_lines[0]

    def test_double_colon_in_message_stays_in_data_section(self):
        # "::" in the *data* section is safe and must not be mangled —
        # only the single separator after the properties delimits.
        out = render_github(
            [make_violation(message="qname is repro.api:canonical_json")],
            [],
            [],
        )
        line = out.splitlines()[0]
        properties, _, data = line.partition("::")[2].partition("::")
        assert "repro.api:canonical_json" in data
        assert "\n" not in data

    def test_colon_and_comma_in_path_are_property_escaped(self):
        # A hostile path cannot inject extra properties or terminate
        # the property section early.
        out = render_github(
            [make_violation(path="src/re,po:file.py")],
            [],
            [],
        )
        line = out.splitlines()[0]
        assert "file=src/re%2Cpo%3Afile.py" in line
        assert ",line=12" in line

    def test_stale_entries_render_as_errors(self):
        entry = BaselineEntry(
            rule="RPL002",
            path="src/repro/cache.py",
            line_text="key = str(payload)",
            reason="legacy cache key, tracked in ROADMAP",
        )
        out = render_github([], [], [entry])
        line = out.splitlines()[0]
        assert line.startswith("::error ")
        assert "RPL002 baseline" in line
        assert "stale baseline entry" in line


class TestJsonRoundTrip:
    def test_fingerprint_fields_round_trip(self):
        violations = [
            make_violation(rule="RPL001"),
            make_violation(rule="RPC101", line=40, line_text="async def f():"),
        ]
        document = json.loads(render_json(violations, [], [], []))
        assert document["format_version"] == 2
        for raw, violation in zip(document["violations"], violations):
            rebuilt = Violation(**raw)
            assert rebuilt == violation
            assert rebuilt.fingerprint == violation.fingerprint
            assert rebuilt.fingerprint == (
                violation.rule,
                violation.path,
                violation.line_text,
            )

    def test_suppressed_and_stale_sections_round_trip(self):
        suppressed = [make_violation(rule="RPL003")]
        stale = [
            BaselineEntry(
                rule="RPC101",
                path="src/repro/service/server.py",
                line_text="time.sleep(0.1)",
                reason="startup backoff, executor-hopped",
            )
        ]
        document = json.loads(render_json([], suppressed, stale, []))
        assert document["ok"] is False  # stale entries fail the gate
        assert Violation(**document["suppressed"][0]) == suppressed[0]
        assert BaselineEntry(**document["stale_baseline"][0]) == stale[0]
        assert document["counts"] == {
            "violations": 0,
            "suppressed": 1,
            "stale_baseline": 1,
        }


class TestRenderDispatch:
    def test_render_selects_the_right_backend(self):
        violation = make_violation()
        assert render("text", [violation], [], [], []) == render_text(
            [violation], [], []
        )
        assert render("github", [violation], [], [], []) == render_github(
            [violation], [], []
        )
        assert json.loads(render("json", [violation], [], [], []))

    def test_text_summary_line(self):
        out = render_text([make_violation()], [], [])
        assert out.splitlines()[-1] == (
            "FAILED: 1 violation(s), 0 baselined, 0 stale baseline entr(ies)"
        )
        assert render_text([], [], []).startswith("ok: ")

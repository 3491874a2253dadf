"""Shared fixtures of the ``repro check`` self-tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.graph import build_graph

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_graph():
    """The real repo's call graph, built (and every file parsed) once."""
    return build_graph(REPO_ROOT)

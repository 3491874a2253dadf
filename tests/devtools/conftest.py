"""Shared fixtures of the ``repro check`` self-tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api.catalog import CHECKS
from repro.devtools.checks import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_analysis():
    """The real repo's call graph and every check's findings, from one
    analysis run (every file parsed once)."""
    checks = [CHECKS.create(code) for code in CHECKS.available()]
    return analyze(REPO_ROOT, checks)


@pytest.fixture(scope="session")
def repo_graph(repo_analysis):
    return repo_analysis[0]

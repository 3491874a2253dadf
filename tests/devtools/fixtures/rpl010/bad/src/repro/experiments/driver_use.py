"""Fixture: a figure driver hand-building its session."""

from repro.core.session import UncertaintyReductionSession


def run_driver(distributions, k, crowd):
    return UncertaintyReductionSession(distributions, k, crowd)

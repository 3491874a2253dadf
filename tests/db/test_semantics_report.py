"""Tests for the row-key read-out on query results."""

import numpy as np
import pytest

from repro.db import UncertainTable, topk
from repro.distributions import Uniform


@pytest.fixture
def table():
    t = UncertainTable("cities")
    rng = np.random.default_rng(12)
    for name in ["milan", "rome", "turin", "naples", "genoa", "bari"]:
        c = rng.random()
        t.insert(name, score=Uniform(c, c + 0.4))
    return t


def test_ordering_keys_helper(table):
    result = topk(table, 2, attribute="score")
    keys = result.ordering_keys(result.space.paths[0])
    assert len(keys) == 2
    assert all(isinstance(k, str) for k in keys)

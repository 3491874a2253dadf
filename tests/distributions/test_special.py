"""The NumPy error function and its inverse behind ``TruncatedGaussian``."""

import math

import numpy as np
import pytest

from repro.distributions.gaussian import erf, erfinv

GRID = np.linspace(-7.0, 7.0, 200001)
# Open interval (−1, 1), dense near both ends and near zero.
INSIDE = np.concatenate(
    [
        np.linspace(-1.0, 1.0, 200001)[1:-1],
        1.0 - np.logspace(-16, -1, 400),
        -1.0 + np.logspace(-16, -1, 400),
        np.logspace(-300, -1, 200),
        -np.logspace(-300, -1, 200),
    ]
)


def test_erf_matches_libm():
    reference = np.array([math.erf(v) for v in GRID])
    assert np.max(np.abs(erf(GRID) - reference)) <= 5e-16


def test_erf_is_exactly_odd():
    assert np.array_equal(erf(-GRID), -erf(GRID))
    assert math.copysign(1.0, erf(-0.0)) == -1.0


def test_erf_limits_and_nan():
    out = erf(np.array([np.inf, -np.inf, np.nan, 0.0]))
    assert out[0] == 1.0 and out[1] == -1.0
    assert np.isnan(out[2]) and out[3] == 0.0


def test_erf_keeps_shape():
    x = GRID[:12].reshape(3, 4)
    assert erf(x).shape == (3, 4)
    assert np.array_equal(erf(x).ravel(), erf(x.ravel()))


def test_erfinv_round_trips():
    assert np.max(np.abs(erf(erfinv(INSIDE)) - INSIDE)) <= 1e-15


def test_erfinv_edges():
    out = erfinv(np.array([1.0, -1.0, 1.5, -2.0, np.nan, 0.0]))
    assert out[0] == np.inf and out[1] == -np.inf
    assert np.all(np.isnan(out[2:5])) and out[5] == 0.0


def test_match_scipy():
    special = pytest.importorskip("scipy.special")
    assert np.max(np.abs(erf(GRID) - special.erf(GRID))) <= 5e-16
    assert np.max(np.abs(special.erf(erfinv(INSIDE)) - INSIDE)) <= 1e-15
    # Away from ±1 the inverse is well conditioned, so the values agree too.
    central = INSIDE[np.abs(INSIDE) <= 0.9]
    assert np.max(np.abs(erfinv(central) - special.erfinv(central))) <= 1e-15

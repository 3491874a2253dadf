"""Uncertain score models.

Exports the :class:`ScoreDistribution` interface, the concrete distribution
family, the exact piecewise-polynomial algebra backing the exact TPO engine,
and pairwise helpers (overlap tests, ``Pr(X > Y)`` matrices).
"""

from repro.distributions.base import ScoreDistribution
from repro.distributions.gaussian import TruncatedGaussian
from repro.distributions.grid import Grid
from repro.distributions.histogram import Histogram
from repro.distributions.ops import (
    certain_order,
    expected_scores,
    joint_sample,
    overlap_matrix,
    prob_greater_matrix,
)
from repro.distributions.affine import AffineDistribution
from repro.distributions.mixture import Mixture
from repro.distributions.pareto import TruncatedPareto
from repro.distributions.piecewise import PiecewisePolynomial, product
from repro.distributions.point import PointMass
from repro.distributions.triangular import Triangular
from repro.distributions.uniform import Uniform

__all__ = [
    "ScoreDistribution",
    "Uniform",
    "Triangular",
    "TruncatedGaussian",
    "TruncatedPareto",
    "Histogram",
    "PointMass",
    "AffineDistribution",
    "Mixture",
    "PiecewisePolynomial",
    "product",
    "Grid",
    "prob_greater_matrix",
    "overlap_matrix",
    "certain_order",
    "joint_sample",
    "expected_scores",
]

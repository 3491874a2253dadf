"""Synthetic uncertain-score workload generators.

The paper's evaluation draws tuple scores from synthetic models whose one
knob — how much neighbouring pdfs overlap — controls the bushiness of the
tree of possible orderings.  Each generator returns a list of
:class:`~repro.distributions.base.ScoreDistribution`, one per tuple.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.api.catalog import WORKLOADS
from repro.distributions.base import ScoreDistribution
from repro.distributions.gaussian import TruncatedGaussian
from repro.distributions.pareto import TruncatedPareto
from repro.distributions.triangular import Triangular
from repro.distributions.uniform import Uniform
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive


def uniform_intervals(
    n: int,
    width: float = 0.3,
    span: float = 1.0,
    rng: SeedLike = None,
) -> List[ScoreDistribution]:
    """The paper's primary model: uniform pdfs of fixed ``width``.

    Interval centers are uniform over ``[0, span]``; larger ``width/span``
    ⇒ more overlap ⇒ more possible orderings.
    """
    check_positive("n", n)
    check_positive("width", width)
    check_positive("span", span)
    generator = ensure_rng(rng)
    centers = generator.random(n) * span
    return [Uniform(c, c + width) for c in centers]


def jittered_widths(
    n: int,
    width: float = 0.3,
    jitter: float = 0.5,
    span: float = 1.0,
    rng: SeedLike = None,
) -> List[ScoreDistribution]:
    """Uniform intervals with per-tuple width variation.

    Widths are uniform in ``width · [1−jitter, 1+jitter]`` — models data
    sources of varying precision (e.g. mixed sensor grades).
    """
    check_positive("n", n)
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must lie in [0, 1), got {jitter}")
    generator = ensure_rng(rng)
    centers = generator.random(n) * span
    factors = 1.0 + jitter * (2.0 * generator.random(n) - 1.0)
    return [Uniform(c, c + width * f) for c, f in zip(centers, factors, strict=True)]


def gaussian_scores(
    n: int,
    sigma: float = 0.1,
    span: float = 1.0,
    rng: SeedLike = None,
) -> List[ScoreDistribution]:
    """Truncated-Gaussian scores (the paper's non-uniform case)."""
    check_positive("n", n)
    check_positive("sigma", sigma)
    generator = ensure_rng(rng)
    means = generator.random(n) * span
    return [TruncatedGaussian(m, sigma) for m in means]


def triangular_scores(
    n: int,
    width: float = 0.3,
    span: float = 1.0,
    rng: SeedLike = None,
) -> List[ScoreDistribution]:
    """Triangular (unimodal, bounded) scores with random mode skew."""
    check_positive("n", n)
    check_positive("width", width)
    generator = ensure_rng(rng)
    lowers = generator.random(n) * span
    skews = generator.random(n)
    return [
        Triangular(lo, lo + s * width, lo + width)
        for lo, s in zip(lowers, skews, strict=True)
    ]


def pareto_scores(
    n: int,
    shape: float = 1.5,
    scale_span: float = 1.0,
    tail: float = 5.0,
    rng: SeedLike = None,
) -> List[ScoreDistribution]:
    """Heavy-tailed scores: a few dominant tuples, a nearly-tied bulk."""
    check_positive("n", n)
    generator = ensure_rng(rng)
    scales = 0.5 + generator.random(n) * scale_span
    return [TruncatedPareto(s, shape, s * tail) for s in scales]


def clustered_intervals(
    n: int,
    clusters: int = 3,
    cluster_spread: float = 0.05,
    width: float = 0.2,
    span: float = 1.0,
    rng: SeedLike = None,
) -> List[ScoreDistribution]:
    """Tuples bunched into score clusters — worst case for ordering
    certainty within a cluster, near-certainty across clusters.

    Stress-tests the selection policies: questions across clusters are
    wasted budget, and good policies must discover that.
    """
    check_positive("n", n)
    check_positive("clusters", clusters)
    generator = ensure_rng(rng)
    cluster_centers = np.linspace(0.0, span, clusters + 2)[1:-1]
    assignment = generator.integers(0, clusters, size=n)
    lowers = cluster_centers[assignment] + generator.normal(
        0.0, cluster_spread, size=n
    )
    return [Uniform(lo, lo + width) for lo in lowers]


def mixed_certainty(
    n: int,
    certain_fraction: float = 0.3,
    width: float = 0.3,
    span: float = 1.0,
    rng: SeedLike = None,
) -> List[ScoreDistribution]:
    """A mix of certain (point) and uncertain (interval) scores.

    Models a table where part of the data is verified — the machinery must
    handle atoms alongside continuous pdfs.
    """
    from repro.distributions.point import PointMass

    check_positive("n", n)
    generator = ensure_rng(rng)
    dists: List[ScoreDistribution] = []
    for _ in range(n):
        center = generator.random() * span
        if generator.random() < certain_fraction:
            dists.append(PointMass(center))
        else:
            dists.append(Uniform(center, center + width))
    return dists


#: The unified workload registry (alias of :data:`repro.api.WORKLOADS`):
#: iterates, tests membership, and indexes like the dict it replaced.
GENERATORS = WORKLOADS


__all__ = [
    "uniform_intervals",
    "jittered_widths",
    "gaussian_scores",
    "triangular_scores",
    "pareto_scores",
    "clustered_intervals",
    "mixed_certainty",
    "GENERATORS",
]

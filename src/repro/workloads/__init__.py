"""Workload generators."""

from repro.workloads.scenarios import (
    photo_contest,
    restaurant_guide,
    sensor_network,
)
from repro.workloads.synthetic import (
    GENERATORS,
    clustered_intervals,
    gaussian_scores,
    jittered_widths,
    mixed_certainty,
    pareto_scores,
    triangular_scores,
    uniform_intervals,
)

__all__ = [
    "uniform_intervals",
    "jittered_widths",
    "gaussian_scores",
    "triangular_scores",
    "pareto_scores",
    "clustered_intervals",
    "mixed_certainty",
    "GENERATORS",
    "sensor_network",
    "photo_contest",
    "restaurant_guide",
]

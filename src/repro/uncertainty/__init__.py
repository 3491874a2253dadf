"""TPO uncertainty measures."""

from repro.uncertainty.base import UncertaintyMeasure
from repro.uncertainty.entropy import (
    EntropyMeasure,
    WeightedEntropyMeasure,
    linear_level_weights,
    shannon_entropy,
)
from repro.uncertainty.representative import MPOUncertainty, ORAUncertainty

__all__ = [
    "UncertaintyMeasure",
    "EntropyMeasure",
    "WeightedEntropyMeasure",
    "ORAUncertainty",
    "MPOUncertainty",
    "shannon_entropy",
    "linear_level_weights",
]

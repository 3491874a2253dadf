"""Argument-validation helpers shared across the library.

All validators raise :class:`ValueError` with a message naming the offending
parameter, so call sites stay one-liners and errors never pass silently.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """Require ``value`` > 0 (or >= 0 when ``allow_zero``)."""
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``value`` in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_probability_vector(
    name: str, values: Sequence[float], tolerance: float = 1e-6
) -> np.ndarray:
    """Require a non-negative vector summing to 1 (within ``tolerance``)."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(array < -tolerance):
        raise ValueError(f"{name} must be non-negative, got min {array.min()!r}")
    total = float(array.sum())
    if abs(total - 1.0) > tolerance:
        raise ValueError(f"{name} must sum to 1 (within {tolerance}), got {total!r}")
    return np.clip(array, 0.0, None)


def check_int(name: str, value: object) -> int:
    """Require an ``int`` or NumPy integer, never a bool, float or str.

    Returns the plain ``int``; nothing is coerced, so ``10.7``, ``"10"``
    and ``True`` are rejected rather than read as counts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def check_cap(name: str, value: Optional[int]) -> Optional[int]:
    """Require ``None`` or an ``int`` >= 1 (a bool is not a count)."""
    if value is not None and not check_int(name, value) >= 1:
        raise ValueError(f"{name} must be None or an int >= 1, got {value!r}")
    return value


def check_index(name: str, value: int, size: int) -> int:
    """Require ``0 <= value < size``."""
    if not 0 <= value < size:
        raise ValueError(f"{name} must lie in [0, {size}), got {value!r}")
    return value


__all__ = [
    "check_positive",
    "check_fraction",
    "check_probability_vector",
    "check_int",
    "check_cap",
    "check_index",
]

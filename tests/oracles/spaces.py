"""Ordering-space fixtures built from explicit orderings."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.tpo.space import OrderingSpace


def space_from_orderings(
    orderings: Iterable[Sequence[int]],
    probabilities: Sequence[float],
    n_tuples: int,
) -> OrderingSpace:
    """An :class:`OrderingSpace` over the given orderings and masses."""
    paths = np.asarray(list(orderings), dtype=np.int32)
    if paths.ndim == 1:
        paths = paths.reshape(1, -1)
    return OrderingSpace(paths, np.asarray(probabilities, dtype=float), n_tuples)

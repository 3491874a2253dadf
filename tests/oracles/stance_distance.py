"""The stance-tensor result distance, kept as a bit-parity oracle.

Before the count form, :func:`repro.rank.kendall.topk_distance_profile`
built a ``(chunk, N, N)`` int8 stance tensor per block of paths and
summed the discordant and one-silent pairs over the upper triangle —
O(L·N²) although each path ranks only ``K ≪ N`` tuples.  This module
preserves that path, so the parity tests can assert that the count form
returns the same profile bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.rank.kendall import DEFAULT_PENALTY, _positions, max_topk_distance
from repro.tpo.space import OrderingSpace


def stance_tensor_profile(
    space: OrderingSpace,
    reference: Sequence[int],
    penalty: float = DEFAULT_PENALTY,
    normalized: bool = True,
    chunk: int = 4096,
) -> np.ndarray:
    """``K^(p)(ω, reference)`` for every path ω, over all ``N²`` pairs."""
    reference = list(reference)
    n = space.n_tuples
    depth = max(space.depth, len(reference), 1)
    pos_ref = _positions(reference, n, depth)
    present_ref = pos_ref < depth
    both_in_ref = present_ref[:, None] & present_ref[None, :]
    stance_ref = np.sign(pos_ref[None, :] - pos_ref[:, None]).astype(np.int8)
    pos = space.positions().astype(np.int64)
    profile = np.empty(space.size)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    for start in range(0, space.size, chunk):
        block = slice(start, min(start + chunk, space.size))
        pb = pos[block]
        present = pb < space.depth
        stance = np.sign(pb[:, None, :] - pb[:, :, None]).astype(np.int8)
        opposite = (stance * stance_ref[None, :, :]) < 0
        both_in_path = present[:, :, None] & present[:, None, :]
        one_silent = (stance == 0) & both_in_ref[None, :, :]
        one_silent |= (stance_ref[None, :, :] == 0) & both_in_path
        profile[block] = (
            (opposite & upper[None, :, :]).sum(axis=(1, 2)).astype(float)
            + penalty
            * (one_silent & upper[None, :, :]).sum(axis=(1, 2)).astype(float)
        )
    if not normalized:
        return profile
    worst = max_topk_distance(space.depth, len(reference), penalty)
    return profile / worst if worst > 0 else np.zeros_like(profile)

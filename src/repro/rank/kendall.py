"""Kendall-tau style distances between (top-K) rankings.

The paper's quality metric ``D(ω_r, T_K)`` and two of its uncertainty
measures (``U_ORA``, ``U_MPO``) are expected distances between orderings.
Full permutations use the classic Kendall tau; top-K *lists* (which may
rank different tuple sets) use the Fagin–Kumar–Sivakumar ``K^(p)`` distance
with a neutral penalty ``p`` for pairs whose relative order one list cannot
determine.

Stance convention (shared with :class:`~repro.tpo.space.OrderingSpace`):
for a pair ``(i, j)`` a list's *stance* is ``+1`` when it implies
``t_i ≺ t_j`` (i ranked higher), ``−1`` for the opposite, ``0`` when it is
silent (neither tuple in the list).  A pair costs 1 when the stances are
opposite, ``p`` when exactly one list is silent, and 0 otherwise.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tpo.space import OrderingSpace
from repro.utils.validation import check_fraction

#: Fagin's neutral penalty: an unknowable pair costs half a disagreement.
DEFAULT_PENALTY = 0.5


def kendall_tau(a: Sequence[int], b: Sequence[int], normalized: bool = True) -> float:
    """Kendall tau distance between two permutations of the same items.

    Counts discordant pairs; ``normalized=True`` divides by ``C(n, 2)``.
    """
    a = list(a)
    b = list(b)
    if sorted(a) != sorted(b):
        raise ValueError("kendall_tau requires permutations of the same items")
    n = len(a)
    if n < 2:
        return 0.0
    rank_b = {item: r for r, item in enumerate(b)}
    sequence = [rank_b[item] for item in a]
    discordant = _count_inversions(sequence)
    if not normalized:
        return float(discordant)
    return 2.0 * discordant / (n * (n - 1))


def _count_inversions(sequence: Sequence[int]) -> int:
    """Inversion count via merge sort, O(n log n)."""
    items = list(sequence)

    def sort(values):
        if len(values) <= 1:
            return values, 0
        mid = len(values) // 2
        left, inv_left = sort(values[:mid])
        right, inv_right = sort(values[mid:])
        merged = []
        inversions = inv_left + inv_right
        li = ri = 0
        while li < len(left) and ri < len(right):
            if left[li] <= right[ri]:
                merged.append(left[li])
                li += 1
            else:
                merged.append(right[ri])
                ri += 1
                inversions += len(left) - li
        merged.extend(left[li:])
        merged.extend(right[ri:])
        return merged, inversions

    return sort(items)[1]


def _positions(ranking: Sequence[int], n_tuples: int, depth: int) -> np.ndarray:
    """Position vector with sentinel ``depth`` for absent tuples."""
    pos = np.full(n_tuples, depth, dtype=np.int64)
    for r, item in enumerate(ranking):
        if not 0 <= item < n_tuples:
            raise ValueError(f"tuple index {item} outside universe of {n_tuples}")
        pos[item] = r
    return pos


def topk_kendall(
    a: Sequence[int],
    b: Sequence[int],
    n_tuples: Optional[int] = None,
    penalty: float = DEFAULT_PENALTY,
    normalized: bool = True,
) -> float:
    """Fagin ``K^(p)`` distance between two top-K lists.

    The lists may contain different tuples.  ``normalized=True`` divides by
    the distance between two disjoint lists of the same length — the worst
    case — yielding a value in [0, 1].
    """
    check_fraction("penalty", penalty)
    a = list(a)
    b = list(b)
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError("top-K lists must not repeat tuples")
    if n_tuples is None:
        n_tuples = max(a + b, default=-1) + 1
    depth = max(len(a), len(b), 1)
    pos_a = _positions(a, n_tuples, depth)
    pos_b = _positions(b, n_tuples, depth)
    present_a = pos_a < depth
    present_b = pos_b < depth
    stance_a = np.sign(pos_a[None, :] - pos_a[:, None])
    stance_b = np.sign(pos_b[None, :] - pos_b[:, None])
    opposite = (stance_a * stance_b) < 0
    # Fagin case 4: both tuples appear in exactly one of the lists; pairs
    # touching a tuple outside the union of the lists are NOT part of the
    # distance (they cost the bogus penalty otherwise).
    both_in_b = present_b[:, None] & present_b[None, :]
    both_in_a = present_a[:, None] & present_a[None, :]
    one_silent = ((stance_a == 0) & both_in_b) | ((stance_b == 0) & both_in_a)
    upper = np.triu(np.ones((n_tuples, n_tuples), dtype=bool), k=1)
    raw = float(np.sum(opposite & upper)) + penalty * float(
        np.sum(one_silent & upper)
    )
    if not normalized:
        return raw
    worst = max_topk_distance(len(a), len(b), penalty)
    return raw / worst if worst > 0 else 0.0


def max_topk_distance(
    len_a: int, len_b: int, penalty: float = DEFAULT_PENALTY
) -> float:
    """``K^(p)`` distance between two *disjoint* lists (the maximum).

    Cross pairs (one tuple per list) each cost 1; pairs internal to a
    single list cost ``penalty`` because the other list is silent on them.
    """
    cross = len_a * len_b
    silent = len_a * (len_a - 1) // 2 + len_b * (len_b - 1) // 2
    return float(cross) + penalty * float(silent)


def spearman_footrule(
    a: Sequence[int],
    b: Sequence[int],
    n_tuples: Optional[int] = None,
    normalized: bool = True,
) -> float:
    """Footrule distance for top-K lists (absent tuples at rank ``K``).

    A coarser metric than ``K^(p)``; provided for sanity cross-checks (it
    is within a factor 2 of Kendall on full permutations).
    """
    a = list(a)
    b = list(b)
    if n_tuples is None:
        n_tuples = max(a + b, default=-1) + 1
    depth = max(len(a), len(b), 1)
    pos_a = _positions(a, n_tuples, depth)
    pos_b = _positions(b, n_tuples, depth)
    touched = (pos_a < depth) | (pos_b < depth)
    raw = float(np.abs(pos_a - pos_b)[touched].sum())
    if not normalized:
        return raw
    worst = float(depth * (len(a) + len(b)))
    return raw / worst if worst > 0 else 0.0


# ----------------------------------------------------------------------
# Expected distances over an ordering space (vectorized)
# ----------------------------------------------------------------------


def stance_marginals(space: OrderingSpace) -> tuple:
    """Per-pair stance probabilities over the space.

    Returns three ``(N, N)`` arrays ``(P_plus, P_minus, P_zero)`` where
    ``P_plus[i, j] = Pr(ω implies t_i ≺ t_j)`` etc.  Basis for both the
    expected-distance computation and the ORA objective.  Delegates to
    :meth:`~repro.tpo.space.OrderingSpace.pairwise_order_masses`, so no
    ``(L, N, N)`` stance tensor is ever materialized.
    """
    less, _ = space.pairwise_order_masses()
    p_plus = less
    p_minus = less.T.copy()
    p_zero = np.clip(1.0 - p_plus - p_minus, 0.0, 1.0)
    np.fill_diagonal(p_plus, 0.0)
    np.fill_diagonal(p_minus, 0.0)
    np.fill_diagonal(p_zero, 0.0)
    return p_plus, p_minus, p_zero


def presence_pair_marginals(space: OrderingSpace) -> np.ndarray:
    """``(N, N)`` matrix of ``Pr(both t_i and t_j appear in ω)``.

    The penalty term of the ``K^(p)`` distance for pairs *outside* an
    aggregate list applies only when the ordering contains both tuples
    (otherwise the pair is outside the union of the two lists); this
    marginal weights that term in the ORA objective.
    """
    pos = space.positions()
    present = (pos < space.depth).astype(float)
    weighted = present * space.probabilities[:, None]
    both = weighted.T @ present
    np.fill_diagonal(both, 0.0)
    return both


def topk_distance_profile(
    space: OrderingSpace,
    reference: Sequence[int],
    penalty: float = DEFAULT_PENALTY,
    normalized: bool = True,
    chunk: int = 4096,
) -> np.ndarray:
    """``K^(p)(ω, reference)`` for every path ω — an ``(L,)`` vector.

    The expected distance of *any* reweighting of the space to a fixed
    reference is a dot product with this profile, which is what lets the
    batched ``U_MPO`` / ``U_ORA`` measures price many hypothetical
    posteriors against one reference without rebuilding spaces.

    Only pairs touching a tuple of the path or of the reference count, so
    each path's pairs are read off its ``K`` positions and the reference's
    ``r`` tuples in O(K·r + r²), never over all ``N²`` pairs.  With
    ``Q = positions()[:, reference]`` (absent tuples at the sentinel
    ``K``, below every ranked one):

    * a reference pair ``a < b`` is discordant when ``Q_a > Q_b`` and
      one-silent when both are absent from the path;
    * a path tuple outside the reference at position ``p`` is discordant
      with every reference tuple the path ranks below it or omits,
      ``#{a : Q_a > p}``;
    * two path tuples outside the reference are one-silent.

    Every other pair is concordant or outside the union of the lists.
    ``chunk`` bounds how many paths are counted at once.
    """
    check_fraction("penalty", penalty)
    reference = list(reference)
    if len(set(reference)) != len(reference):
        raise ValueError("top-K lists must not repeat tuples")
    n = space.n_tuples
    k = space.depth
    in_reference = _positions(reference, n, len(reference)) < len(reference)
    ref = np.asarray(reference, dtype=np.intp)
    first, second = np.triu_indices(ref.size, k=1)
    ranks = np.arange(k)
    positions = space.positions()
    profile = np.empty(space.size)
    for start in range(0, space.size, chunk):
        block = slice(start, min(start + chunk, space.size))
        q = positions[block, ref]
        outside = ~in_reference[space.paths[block]]
        absent = (q == k).sum(axis=1)  # reference tuples the path omits
        extra = outside.sum(axis=1)  # path tuples the reference omits
        below = (q[:, None, :] > ranks[None, :, None]).sum(axis=2)
        opposite = (q[:, first] > q[:, second]).sum(axis=1) + (
            below * outside
        ).sum(axis=1)
        one_silent = absent * (absent - 1) // 2 + extra * (extra - 1) // 2
        profile[block] = opposite.astype(float) + penalty * one_silent.astype(
            float
        )
    if not normalized:
        return profile
    worst = max_topk_distance(space.depth, len(reference), penalty)
    return profile / worst if worst > 0 else np.zeros_like(profile)


def expected_topk_distance(
    space: OrderingSpace,
    reference: Sequence[int],
    penalty: float = DEFAULT_PENALTY,
    normalized: bool = True,
    chunk: int = 4096,
) -> float:
    """``Σ_ω Pr(ω) · K^(p)(ω, reference)`` without materializing each pair.

    This is the paper's ``D(ω_r, T_K)`` when ``reference`` is the real
    ordering's top-K prefix, and the ``U_ORA`` / ``U_MPO`` uncertainty value
    when it is the aggregated / most probable ordering.
    """
    profile = topk_distance_profile(
        space, reference, penalty=penalty, normalized=normalized, chunk=chunk
    )
    return float(np.dot(space.probabilities, profile))


__all__ = [
    "DEFAULT_PENALTY",
    "kendall_tau",
    "topk_kendall",
    "max_topk_distance",
    "spearman_footrule",
    "stance_marginals",
    "presence_pair_marginals",
    "topk_distance_profile",
    "expected_topk_distance",
]

"""Structural invariants of a flat level-table TPO.

Tests call :func:`validate` on built, pruned and deserialized trees;
production code never needs it, so it is a test oracle rather than a
``TPOTree`` method.
"""

from __future__ import annotations

import numpy as np

from repro.tpo.tree import TPOTree


def validate(tree: TPOTree, tolerance: float = 1e-6) -> None:
    """Check structural invariants; raises :class:`AssertionError`.

    Invariants: every materialized level's mass is ~1; children masses
    never exceed their parent's (up to tolerance); parent indices are
    in range and non-decreasing; no tuple repeats along a path.
    """
    for depth in range(1, tree.built_depth + 1):
        mass = float(tree.levels[depth - 1].probs.sum())
        assert abs(mass - 1.0) <= tolerance, (
            f"level {depth} mass {mass} differs from 1"
        )
    for depth, level in enumerate(tree.levels, start=1):
        parent_width = tree.levels[depth - 2].width if depth > 1 else 1
        if level.width:
            assert 0 <= level.parent_idx.min(), "negative parent index"
            assert level.parent_idx.max() < parent_width, (
                f"level {depth} parent index out of range"
            )
            assert not np.any(np.diff(level.parent_idx) < 0), (
                f"level {depth} is not parent-major"
            )
        if depth > 1:
            child_sums = np.bincount(
                level.parent_idx,
                weights=level.probs,
                minlength=parent_width,
            )
            parents = tree.levels[depth - 2].probs
            assert np.all(child_sums <= parents + tolerance), (
                f"level {depth} children mass exceeds parents"
            )
        paths = tree.paths_at_depth(depth)
        ordered = np.sort(paths, axis=1)
        assert not np.any(ordered[:, 1:] == ordered[:, :-1]), (
            f"a depth-{depth} path repeats a tuple"
        )

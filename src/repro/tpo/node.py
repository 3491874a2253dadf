"""Node objects of the tree of possible orderings (TPO).

Following Soliman & Ilyas (ICDE'09), every non-root node holds one tuple
index, and the path from the root to a depth-``k`` node is a possible
top-``k`` prefix ranking; the node's probability is the probability that
this prefix *is* the top-``k`` ranking.

:class:`~repro.tpo.tree.TPOTree` stores its levels as structure-of-arrays
tables; nodes are materialized on demand as :class:`TPONodeView` objects
(``tree.root``, ``tree.leaves()``, ``tree.iter_nodes()``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # circular at runtime: tree.py imports this module
    from repro.tpo.tree import TPOTree

import numpy as np

#: Tuple index stored by the synthetic root node.
ROOT_TUPLE = -1


class TPONodeView:
    """Read-only node facade over a flat level-table tree.

    A view is just ``(tree, depth, index)`` — it materializes nothing and
    reads the level tables on every attribute access, so a view stays
    current across prunings of the tree that created it only as long as
    its ``(depth, index)`` coordinate still names the same node; callers
    should treat views as ephemeral (re-fetch after structural updates).

    Children are resolved with a binary search: levels are stored
    parent-major (``parent_idx`` is non-decreasing), so the children of
    node ``i`` at depth ``d`` are a contiguous slice of level ``d + 1``.

    ``state`` is always ``None``: builder payloads live in the engine
    cache as frontier-aligned arrays, not on nodes.
    """

    __slots__ = ("_tree", "_depth", "_index")

    def __init__(self, tree: "TPOTree", depth: int, index: int) -> None:
        self._tree = tree
        self._depth = depth
        self._index = index

    # ------------------------------------------------------------------

    @property
    def is_root(self) -> bool:
        """True for the synthetic depth-0 root."""
        return self._depth == 0

    @property
    def depth(self) -> int:
        """Number of tuples on the root-to-node path (root = 0)."""
        return self._depth

    @property
    def tuple_index(self) -> int:
        """Tuple this node ranks (``ROOT_TUPLE`` for the root)."""
        if self._depth == 0:
            return ROOT_TUPLE
        return int(self._tree.levels[self._depth - 1].tuple_ids[self._index])

    @property
    def probability(self) -> float:
        """Probability mass of the root-to-node prefix."""
        if self._depth == 0:
            return 1.0
        return float(self._tree.levels[self._depth - 1].probs[self._index])

    @property
    def state(self) -> None:
        """Always ``None``: engine payloads live in frontier arrays."""
        return None

    @property
    def parent(self) -> Optional["TPONodeView"]:
        """Parent view, or ``None`` for the root."""
        if self._depth == 0:
            return None
        if self._depth == 1:
            return TPONodeView(self._tree, 0, 0)
        parent_index = int(
            self._tree.levels[self._depth - 1].parent_idx[self._index]
        )
        return TPONodeView(self._tree, self._depth - 1, parent_index)

    @property
    def children(self) -> List["TPONodeView"]:
        """Child views (contiguous slice of the next level table)."""
        lo, hi = self._child_range()
        return [
            TPONodeView(self._tree, self._depth + 1, child)
            for child in range(lo, hi)
        ]

    @property
    def is_leaf(self) -> bool:
        """True when the node has no materialized children."""
        lo, hi = self._child_range()
        return lo == hi

    def _child_range(self) -> Tuple[int, int]:
        """``[lo, hi)`` slice of this node's children in the next level."""
        if self._depth >= self._tree.built_depth:
            return 0, 0
        parent_idx = self._tree.levels[self._depth].parent_idx
        lo, hi = np.searchsorted(
            parent_idx, [self._index, self._index + 1], side="left"
        )
        return int(lo), int(hi)

    def prefix(self) -> Tuple[int, ...]:
        """Tuple indices on the root-to-node path, best rank first."""
        if self._depth == 0:
            return ()
        return tuple(
            int(t) for t in self._tree.path_of(self._depth, self._index)
        )

    def iter_subtree(self) -> Iterator["TPONodeView"]:
        """Yield this view and all descendants (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:
        label = "root" if self.is_root else f"t{self.tuple_index}"
        return (
            f"TPONodeView({label}, p={self.probability:.4g}, "
            f"children={len(self.children)})"
        )


__all__ = ["TPONodeView", "ROOT_TUPLE"]

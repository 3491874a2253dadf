"""The retired pointer-chasing grid engine, kept as a parity oracle.

Before the flat level-table refactor, ``repro.tpo.builders.GridBuilder``
grew a tree of :class:`TPONode` objects: a Python loop over the frontier,
one ``TPONode`` allocation per child, and one exclude-one CDF-product
sweep per parent.  This module preserves that exact numeric path — same
recursion, same operation order, same ``min_probability`` policy — so the
engine cross-validation tests can assert that the flat batched path
reproduces these leaf probabilities to ≤ 1e-9.

It is intentionally *not* registered in ``repro.api.ENGINES`` and
returns its own minimal pointer tree.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from oracles.full_grid import _exclude_one_products, _upper_tail_rows

from repro.distributions.base import ScoreDistribution
from repro.distributions.grid import Grid
from repro.tpo.builders import TPOSizeError, _effective
from repro.tpo.space import OrderingSpace

#: Tuple index stored by the synthetic root node.
ROOT_TUPLE = -1


class TPONode:
    """One pointer-based node of a hand-built TPO.

    Attributes
    ----------
    tuple_index:
        Index of the tuple this node ranks (``ROOT_TUPLE`` for the root).
    probability:
        Probability that the root-to-node prefix equals the true prefix
        ranking of the underlying scores.
    children:
        Child nodes, each extending the prefix by one rank.
    state:
        Opaque builder payload (the prefix density ``h_k`` while
        :class:`ReferenceGridBuilder` extends the tree); dropped by
        :meth:`clear_state`.
    """

    __slots__ = ("tuple_index", "probability", "children", "parent", "state")

    def __init__(
        self,
        tuple_index: int,
        probability: float,
        parent: Optional["TPONode"] = None,
    ) -> None:
        self.tuple_index = tuple_index
        self.probability = probability
        self.children: List["TPONode"] = []
        self.parent = parent
        self.state: Any = None

    # ------------------------------------------------------------------

    @property
    def is_root(self) -> bool:
        """True for the synthetic root."""
        return self.tuple_index == ROOT_TUPLE

    @property
    def is_leaf(self) -> bool:
        """True when the node currently has no children."""
        return not self.children

    @property
    def depth(self) -> int:
        """Number of tuples on the root-to-node path (root = 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def prefix(self) -> Tuple[int, ...]:
        """Tuple indices on the root-to-node path, best rank first."""
        indices: List[int] = []
        node = self
        while node.parent is not None:
            indices.append(node.tuple_index)
            node = node.parent
        return tuple(reversed(indices))

    # ------------------------------------------------------------------

    def add_child(self, tuple_index: int, probability: float) -> "TPONode":
        """Append a child extending this prefix and return it."""
        child = TPONode(tuple_index, probability, parent=self)
        self.children.append(child)
        return child

    def remove_child(self, child: "TPONode") -> None:
        """Detach ``child`` from this node."""
        self.children.remove(child)
        child.parent = None

    def iter_subtree(self) -> Iterator["TPONode"]:
        """Yield this node and all descendants (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def clear_state(self, recursive: bool = True) -> None:
        """Drop builder payloads to free memory once building is done."""
        if recursive:
            for node in self.iter_subtree():
                node.state = None
        else:
            self.state = None

    def __repr__(self) -> str:
        label = "root" if self.is_root else f"t{self.tuple_index}"
        return f"TPONode({label}, p={self.probability:.4g}, children={len(self.children)})"


class PointerTPOTree:
    """Minimal pointer-based TPO: just enough to build and flatten."""

    def __init__(
        self, distributions: Sequence[ScoreDistribution], k: int
    ) -> None:
        self.distributions = list(distributions)
        self.k = min(k, len(self.distributions))
        self.root = TPONode(ROOT_TUPLE, 1.0)
        self.built_depth = 0

    @property
    def n_tuples(self) -> int:
        return len(self.distributions)

    @property
    def is_complete(self) -> bool:
        return self.built_depth >= self.k

    def nodes_at_depth(self, depth: int) -> List[TPONode]:
        current = [self.root]
        for _ in range(depth):
            current = [child for node in current for child in node.children]
        return current

    def leaves(self) -> List[TPONode]:
        return self.nodes_at_depth(self.built_depth)

    def renormalize(self) -> None:
        leaves = self.leaves()
        total = sum(leaf.probability for leaf in leaves)
        for leaf in leaves:
            leaf.probability /= total

    def to_space(self) -> OrderingSpace:
        leaves = self.leaves()
        paths = np.array([leaf.prefix() for leaf in leaves], dtype=np.int32)
        probs = np.array([leaf.probability for leaf in leaves], dtype=float)
        return OrderingSpace(paths, probs, self.n_tuples)


class ReferenceGridBuilder:
    """The pointer-era grid engine, verbatim numeric path.

    Matches the pre-refactor ``GridBuilder`` node for node: per-parent
    Python loop, per-child state arrays, identical integration and
    pruning.  See the module docstring for why it is preserved.
    """

    def __init__(
        self,
        resolution: int = 1024,
        min_probability: float = 1e-9,
        max_orderings: int = 200000,
    ) -> None:
        self.resolution = resolution
        self.min_probability = min_probability
        self.max_orderings = max_orderings

    def build(
        self, distributions: Sequence[ScoreDistribution], k: int
    ) -> PointerTPOTree:
        tree = PointerTPOTree(distributions, k)
        dists = [_effective(d) for d in tree.distributions]
        grid = Grid.for_distributions(dists, self.resolution)
        densities = np.stack([grid.density(d) for d in dists])
        cdfs = np.stack([grid.cdf(d) for d in dists])
        while not tree.is_complete:
            self._extend(tree, grid, densities, cdfs)
        tree.renormalize()
        return tree

    def _extend(
        self,
        tree: PointerTPOTree,
        grid: Grid,
        densities: np.ndarray,
        cdfs: np.ndarray,
    ) -> None:
        n = tree.n_tuples
        created = 0
        parents = tree.nodes_at_depth(tree.built_depth)
        for node in parents:
            prefix = node.prefix()
            remaining = [t for t in range(n) if t not in set(prefix)]
            if not remaining:
                continue
            if node.is_root:
                tail = np.ones(grid.cell_count)
            else:
                tail = _upper_tail_rows(node.state[None, :], grid)[0]
            stacked = cdfs[remaining]
            exclusive = _exclude_one_products(stacked)
            candidate_h = densities[remaining] * tail[None, :]
            probs = (candidate_h * exclusive) @ grid.widths
            for idx, t in enumerate(remaining):
                if probs[idx] > self.min_probability:
                    child = node.add_child(t, float(probs[idx]))
                    child.state = candidate_h[idx]
                    created += 1
            if created > self.max_orderings:
                raise TPOSizeError(
                    f"TPO level {tree.built_depth + 1} holds {created} "
                    f"orderings, above the limit of {self.max_orderings}"
                )
        for node in parents:
            node.state = None
        tree.built_depth += 1


__all__ = ["PointerTPOTree", "ReferenceGridBuilder", "TPONode"]

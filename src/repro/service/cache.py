"""Content-addressed, bounded LRU cache of built TPOs.

Building the tree of possible orderings is the dominant per-session cost,
and it depends only on the *instance* — the score distributions, the query
depth K, and the builder configuration.  Sessions are therefore keyed by a
BLAKE2b hash of the canonical-JSON instance description (the same
addressing scheme :mod:`repro.experiments.grid` uses for grid cells): any
number of concurrent sessions over hashed-equal instances share one build.

Cached values are *initial* :class:`~repro.tpo.space.OrderingSpace`
objects.  Spaces are immutable — every answer produces a new space — so
sharing one across sessions is safe; the ``(L, N)`` ``positions()``
matrix is computed eagerly on insert, so concurrent sessions over the
same instance share one copy instead of racing to build their own (and
``reweight``/``restrict`` now carry it into their derived spaces).  On
insert the built tree is round-tripped through :mod:`repro.tpo.serialize`
(``tree_to_dict`` / ``tree_from_dict``), which drops builder engine
caches and guarantees the cached state is exactly what a cold rebuild
from the serialized form would produce — the property the manager's
resume path relies on.  Since the flat level-table refactor the
round-trip is cheap: deserialization fills per-level arrays and
``to_space`` is a batch of gathers, not a leaf walk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Sequence

from repro.api.canonical import content_key
from repro.distributions.base import ScoreDistribution
from repro.tpo.space import OrderingSpace
from repro.tpo.serialize import tree_from_dict, tree_to_dict
from repro.tpo.tree import TPOTree


def instance_key(payload: Any) -> str:
    """Stable 32-hex-digit content address of a JSON-serializable payload.

    Same recipe as :attr:`repro.experiments.grid.GridCell.cell_id`
    (canonical JSON → BLAKE2b via :mod:`repro.api.canonical`), with a
    wider digest since service keys are long-lived and cross instance
    universes.
    """
    return content_key(payload, digest_size=16)


class TPOCache:
    """Bounded LRU of initial ordering spaces, keyed by instance hash.

    Parameters
    ----------
    capacity:
        Maximum number of cached instances; least-recently-used entries
        are evicted beyond it.  ``0`` is the well-defined **disabled**
        configuration: the cache is a pure pass-through — every lookup
        misses, :meth:`insert` is a no-op, and the eviction counter never
        moves (no insert-then-immediately-evict churn) — which is what
        ``repro serve --cache-capacity 0`` means.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, OrderingSpace]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this cache stores anything at all (capacity > 0)."""
        return self.capacity > 0

    def lookup(self, key: str) -> Optional[OrderingSpace]:
        """The cached space for ``key`` (counting a hit), or ``None``
        (counting a miss).  A disabled cache always misses."""
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        return None

    def insert(self, key: str, space: OrderingSpace) -> None:
        """Store ``space`` under ``key`` (evicting LRU entries beyond
        capacity).  No-op when the cache is disabled."""
        if not self.enabled:
            return
        # Warm the (L, N) positions matrix once, up front: every session
        # sharing this entry reads it on its first agreement query, and
        # derived spaces (reweight/restrict) inherit it.
        space.positions()
        self._entries[key] = space
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_space(
        self,
        key: str,
        distributions: Sequence[ScoreDistribution],
        build: Callable[[], TPOTree],
    ) -> OrderingSpace:
        """The initial space for ``key``, building (and caching) on miss.

        ``build`` must construct the TPO of the instance ``key`` names;
        ``distributions`` are needed to rebuild the tree from its
        serialized form (the dict stores only tuple indices).
        """
        entry = self.lookup(key)
        if entry is not None:
            return entry
        payload = tree_to_dict(build())
        space = tree_from_dict(payload, list(distributions)).to_space()
        space.positions()
        self.insert(key, space)
        return space

    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Counters for monitoring endpoints and benchmark artifacts."""
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"TPOCache(capacity={self.capacity}, entries={len(self)}, "
            f"hit_rate={self.hit_rate:.2f})"
        )


__all__ = ["TPOCache", "instance_key"]

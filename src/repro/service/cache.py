"""The TPO store: a content-addressed, bounded LRU over an optional cold tier.

Building the tree of possible orderings is the dominant per-session cost,
and it depends only on the *instance* — the score distributions, the query
depth K, and the builder configuration.  Sessions are therefore keyed by a
BLAKE2b hash of the canonical-JSON instance description (the same
addressing scheme :mod:`repro.experiments.grid` uses for grid cells): any
number of concurrent sessions over hashed-equal instances share one build.

:class:`TPOCache` is the one store every configuration builds — the
session manager's default, ``StoreSpec.build()`` and every fleet worker.
``get_space`` runs **hot → cold → build-and-publish**:

1. **hot** — deserialized initial
   :class:`~repro.tpo.space.OrderingSpace` objects in this process (LRU).
   Spaces are immutable — every answer produces a new space — so sharing
   one across sessions is safe; the ``(L, N)`` ``positions()`` matrix and
   the sessions' question-pool stance columns are computed eagerly, so
   concurrent sessions over the same instance share one copy (and
   ``reweight``/``restrict`` carry them into their derived spaces).
2. **cold** — a :class:`~repro.service.store.ColdTier` of npz level
   tables, shared across worker processes by the ``disk-npz`` backend.
3. **build** — construct the TPO, publish it to the cold tier, and serve
   the copy re-read from the stored bytes.  Without a configured backend
   the tier stores nothing, but the tree still round-trips through the
   same npz bytes: that drops builder engine caches and guarantees the
   cached state is exactly what a cold rebuild would produce — the
   property the manager's resume path relies on.

Cold misses are single-flighted across processes when the backend
supports it: exactly one worker builds, the rest wait for the artifact
(up to ``build_wait`` seconds) instead of duplicating the build.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Sequence

from repro.api.canonical import content_key
from repro.distributions.base import ScoreDistribution
from repro.questions.candidates import QuestionPool
from repro.service.store import ColdTier
from repro.tpo.space import OrderingSpace
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
    """Bounded LRU of initial ordering spaces over an optional cold tier.

    Parameters
    ----------
    capacity:
        Maximum number of hot entries; least-recently-used entries are
        evicted beyond it.  ``0`` is the well-defined **disabled**
        configuration: the hot tier is a pure pass-through — every lookup
        misses, :meth:`insert` is a no-op, and the eviction counter never
        moves (no insert-then-immediately-evict churn) — which is what
        ``repro serve --cache-capacity 0`` means.
    cold:
        The cross-process tier consulted on hot misses (default: the
        base :class:`~repro.service.store.ColdTier`, which stores
        nothing).
    build_wait:
        How long to wait for another process's build of the same key
        before building locally.
    """

    def __init__(
        self,
        capacity: int = 64,
        cold: Optional[ColdTier] = None,
        build_wait: float = 30.0,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.cold = cold if cold is not None else ColdTier()
        self.build_wait = float(build_wait)
        self._entries: "OrderedDict[str, OrderingSpace]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.builds = 0
        self.cold_hits = 0
        self.cold_waited = 0

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether the hot tier stores anything at all (capacity > 0)."""
        return self.capacity > 0

    def lookup(self, key: str) -> Optional[OrderingSpace]:
        """The hot space for ``key`` (counting a hit), or ``None``
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
        """The initial space for ``key`` (hot → cold → build-and-publish).

        ``build`` must construct the TPO of the instance ``key`` names;
        ``distributions`` are needed to rebuild the tree from its
        serialized form (the payload stores only tuple indices).
        """
        space = self.lookup(key)
        if space is not None:
            return space
        # One cold lookup, counted once: here, as the builder, or by the wait.
        tree = self.cold.peek(key, distributions)
        if tree is not None:
            self.cold.tally(tree)
            self.cold_hits += 1
        else:
            tree = self._build_or_wait(key, distributions, build)
        space = tree.to_space()
        # Sessions over this entry share its positions and pool stances.
        QuestionPool(space.present_tuples(), distributions).live(space)
        self.insert(key, space)
        return space

    def _build_or_wait(
        self,
        key: str,
        distributions: Sequence[ScoreDistribution],
        build: Callable[[], TPOTree],
    ) -> TPOTree:
        if self.cold.begin_build(key):
            self.cold.tally(None)
        else:
            waited = self.cold.wait_for(
                key, distributions, timeout=self.build_wait
            )
            if waited is not None:
                self.cold_waited += 1
                return waited
            # The elected builder died or overran the wait: fall through
            # and build locally (taking the lock is best-effort now).
            if not self.cold.begin_build(key):
                self.builds += 1
                return self.cold.put(key, build())
        try:
            self.builds += 1
            return self.cold.put(key, build())
        finally:
            self.cold.end_build(key)

    # ------------------------------------------------------------------

    @property
    def cold_hit_rate(self) -> float:
        """Fraction of cold-tier consults that avoided a local build."""
        shared = self.cold_hits + self.cold_waited
        consults = shared + self.builds
        return shared / consults if consults else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without building (either tier;
        0.0 before any lookup)."""
        lookups = self.hits + self.misses
        served = self.hits + self.cold_hits + self.cold_waited
        return served / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """Counters for ``/v1/stats`` and benchmark artifacts.

        The hot-tier counters are flat; ``cold`` nests the cold tier's
        own :meth:`~repro.service.store.ColdTier.stats`.
        """
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "builds": self.builds,
            "cold_hits": self.cold_hits,
            "cold_waited": self.cold_waited,
            "cold_hit_rate": self.cold_hit_rate,
            "cold": self.cold.stats(),
        }

    def clear(self) -> None:
        """Drop the hot entries (counters and the shared cold tier are
        kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"TPOCache(capacity={self.capacity}, entries={len(self)}, "
            f"cold={self.cold!r}, hit_rate={self.hit_rate:.2f})"
        )


__all__ = ["TPOCache", "instance_key"]

"""Cold tiers: content-addressed binary TPO storage behind the TPO cache.

The multi-worker runtime (:mod:`repro.service.sharding`) runs one
:class:`~repro.service.manager.SessionManager` per worker process, each
with its own :class:`~repro.service.cache.TPOCache` of deserialized
spaces.  A TPO built by *any* worker should be paid for once per fleet,
not once per process — that is the cold tier's job.

A **cold tier** (:class:`ColdTier`) maps the BLAKE2b instance keys of
:func:`repro.service.cache.instance_key` to the binary level-table
serialization of :mod:`repro.tpo.serialize` (``tree_to_npz`` /
``tree_from_npz``).  Two backends ship, registered in the ``STORES``
registry of :mod:`repro.api.catalog`:

``memory``
    An in-process dict of npz byte strings.  Not shared across
    processes; useful for single-worker deployments and tests, and as
    the reference implementation of the tier contract.
``disk-npz``
    One atomic (tmp+rename, fsynced) ``<key>.npz`` file per instance in
    a shared directory.  Torn or corrupt files are treated as misses and
    deleted rather than poisoning the fleet — the same discipline the
    event log applies to torn JSONL tails.  Cross-process single-flight:
    a ``<key>.lock`` file (``O_CREAT | O_EXCL``) elects one builder; the
    losers poll for the winner's artifact instead of burning CPU on a
    duplicate build.

The base class is itself the ``none`` tier a cache uses when no backend
is configured: it holds nothing, and ``put`` only round-trips the tree
through the npz bytes a real tier would store.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.distributions.base import ScoreDistribution
from repro.tpo.serialize import (
    TPOSerializationError,
    tree_from_npz,
    tree_from_npz_bytes,
    tree_to_npz,
    tree_to_npz_bytes,
)
from repro.tpo.tree import TPOTree

PathLike = Union[str, Path]


class ColdTier:
    """Cross-process content-addressed TPO storage (base: stores nothing).

    Subclasses override :meth:`_load` / :meth:`_store` and the
    bookkeeping; the base class provides uniform hit/miss/torn accounting
    and the (optional) single-flight build-lock hooks.  ``get`` returns a
    rebuilt :class:`TPOTree` or ``None``; ``put`` persists a tree and
    returns it *as re-read from the stored payload*, which is what keeps
    the "cached state equals a cold rebuild" invariant the manager's
    resume path relies on.
    """

    #: Registry name of the backend (overridden per subclass).
    name = "none"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.torn = 0
        self.puts = 0

    # -- backend primitives -------------------------------------------

    def _load(
        self, key: str, distributions: Sequence[ScoreDistribution]
    ) -> Optional[TPOTree]:
        return None

    def _store(self, key: str, tree: TPOTree) -> TPOTree:
        return tree_from_npz_bytes(tree_to_npz_bytes(tree), tree.distributions)

    def _discard_damaged(self, key: str) -> None:
        """Drop a payload that failed to decode (best-effort)."""

    # -- tier interface ------------------------------------------------

    def peek(
        self, key: str, distributions: Sequence[ScoreDistribution]
    ) -> Optional[TPOTree]:
        """One uncounted look: a damaged payload (torn mid-copy,
        truncated by a crash) is discarded, bumps ``torn`` and reads as
        ``None``."""
        try:
            return self._load(key, distributions)
        except TPOSerializationError:
            self.torn += 1
            self._discard_damaged(key)
            return None

    def tally(self, tree: Optional[TPOTree]) -> Optional[TPOTree]:
        """Count one lookup as a hit or a miss and pass its result on."""
        if tree is None:
            self.misses += 1
        else:
            self.hits += 1
        return tree

    def get(
        self, key: str, distributions: Sequence[ScoreDistribution]
    ) -> Optional[TPOTree]:
        """The stored tree for ``key``, or ``None`` on miss (a damaged
        payload counts as a miss and as ``torn``)."""
        return self.tally(self.peek(key, distributions))

    def put(self, key: str, tree: TPOTree) -> TPOTree:
        """Persist ``tree`` under ``key``; returns the stored round-trip."""
        self.puts += 1
        return self._store(key, tree)

    # -- single-flight build coordination ------------------------------

    def begin_build(self, key: str) -> bool:
        """Try to become the one builder for ``key``.

        ``True`` means this caller holds the build lock and must call
        :meth:`end_build` when done; ``False`` means another process is
        already building — poll :meth:`wait_for`.  The default tier has
        no cross-process contention, so everyone "wins".
        """
        return True

    def end_build(self, key: str) -> None:
        """Release the build lock taken by :meth:`begin_build`."""

    def wait_for(
        self,
        key: str,
        distributions: Sequence[ScoreDistribution],
        timeout: float,
    ) -> Optional[TPOTree]:
        """Wait up to ``timeout`` seconds for another builder's artifact.

        A tier that polls counts the whole wait as one lookup — one hit
        or one miss, however many polls it took.
        """
        return None

    # -- bookkeeping ---------------------------------------------------

    def entry_count(self) -> int:
        """How many instances the tier currently holds."""
        return 0

    def stored_bytes(self) -> int:
        """Total serialized payload size currently held, in bytes."""
        return 0

    def stats(self) -> Dict[str, Any]:
        """Counters for ``/v1/stats`` and the benchmark artifacts."""
        lookups = self.hits + self.misses
        return {
            "backend": self.name,
            "entries": self.entry_count(),
            "bytes": self.stored_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "torn": self.torn,
            "puts": self.puts,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={self.entry_count()}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class MemoryColdTier(ColdTier):
    """In-process cold tier: a dict of npz byte payloads.

    Goes through the same binary serialization as the disk backend so
    behavior (and round-trip guarantees) are identical — it just cannot
    cross a process boundary.
    """

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._payloads: Dict[str, bytes] = {}
        #: ``/v1/stats`` snapshots the payloads on the event loop while
        #: the server's service thread may be publishing one.
        self._payloads_lock = threading.Lock()

    def _load(
        self, key: str, distributions: Sequence[ScoreDistribution]
    ) -> Optional[TPOTree]:
        payload = self._payloads.get(key)
        if payload is None:
            return None
        return tree_from_npz_bytes(payload, distributions)

    def _store(self, key: str, tree: TPOTree) -> TPOTree:
        payload = tree_to_npz_bytes(tree)
        with self._payloads_lock:
            self._payloads[key] = payload
        return tree_from_npz_bytes(payload, tree.distributions)

    def _discard_damaged(self, key: str) -> None:
        with self._payloads_lock:
            self._payloads.pop(key, None)

    def entry_count(self) -> int:
        return len(self._payloads)

    def stored_bytes(self) -> int:
        with self._payloads_lock:
            payloads = list(self._payloads.values())
        return sum(len(payload) for payload in payloads)


def _check_key(key: str) -> str:
    """Reject keys that could escape the store directory or collide."""
    if not key or not all(ch.isalnum() or ch in "-_" for ch in key):
        raise ValueError(f"invalid store key {key!r}")
    return key


class DiskNpzColdTier(ColdTier):
    """Shared-directory cold tier of atomic npz files.

    Parameters
    ----------
    path:
        Directory holding one ``<key>.npz`` per instance (created on
        first write).  Point every worker of a fleet at the same
        directory.
    lock_timeout:
        How long :meth:`wait_for` polls for another process's build
        before giving up and building locally anyway.
    """

    name = "disk-npz"

    def __init__(
        self,
        path: PathLike,
        lock_timeout: float = 30.0,
        poll_interval: float = 0.02,
    ) -> None:
        super().__init__()
        self.root = Path(path)
        self.lock_timeout = float(lock_timeout)
        self.poll_interval = float(poll_interval)

    def _file(self, key: str) -> Path:
        return self.root / f"{_check_key(key)}.npz"

    def _lock(self, key: str) -> Path:
        return self.root / f"{_check_key(key)}.lock"

    def _load(
        self, key: str, distributions: Sequence[ScoreDistribution]
    ) -> Optional[TPOTree]:
        path = self._file(key)
        if not path.exists():
            return None
        return tree_from_npz(path, distributions)

    def _store(self, key: str, tree: TPOTree) -> TPOTree:
        path = tree_to_npz(tree, self._file(key))
        return tree_from_npz(path, tree.distributions)

    def _discard_damaged(self, key: str) -> None:
        try:
            self._file(key).unlink()
        except OSError:
            pass

    # -- single flight -------------------------------------------------

    def begin_build(self, key: str) -> bool:
        self.root.mkdir(parents=True, exist_ok=True)
        lock = self._lock(key)
        try:
            descriptor = os.open(
                lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            try:
                # A lock older than the timeout is a crashed builder:
                # steal it rather than stalling the fleet forever.
                age = time.time() - lock.stat().st_mtime
                if age > self.lock_timeout:
                    lock.unlink()
                    return self.begin_build(key)
            except OSError:
                pass
            return False
        os.write(descriptor, str(os.getpid()).encode("ascii"))
        os.close(descriptor)
        return True

    def end_build(self, key: str) -> None:
        try:
            self._lock(key).unlink()
        except OSError:
            pass

    def wait_for(
        self,
        key: str,
        distributions: Sequence[ScoreDistribution],
        timeout: float,
    ) -> Optional[TPOTree]:
        deadline = time.monotonic() + timeout
        tree = None
        while time.monotonic() < deadline:
            tree = self.peek(key, distributions)
            if tree is not None:
                break
            if not self._lock(key).exists():
                # The builder released (or died) without producing the
                # artifact; one more look, then let the caller build.
                tree = self.peek(key, distributions)
                break
            time.sleep(self.poll_interval)
        return self.tally(tree)

    # -- bookkeeping ---------------------------------------------------

    def _files(self) -> list:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.npz"))

    def entry_count(self) -> int:
        return len(self._files())

    def stored_bytes(self) -> int:
        total = 0
        for path in self._files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total


__all__ = ["ColdTier", "MemoryColdTier", "DiskNpzColdTier"]

"""Shared fixtures of the service tests."""

from __future__ import annotations

import threading

import pytest


class SnapshotInterleaver:
    """Forces the interleaving behind a cross-thread dict race.

    :meth:`install` swaps ``owner.<attr>`` for a dict whose first
    ``items()``/``values()`` iteration pauses after one entry, runs
    ``insert`` on another thread, and waits (up to ``wait`` seconds) for
    it to finish before resuming.  Unguarded, the insert lands
    mid-iteration and the copy raises "dictionary changed size during
    iteration"; guarded, the insert blocks until the snapshot is done.
    """

    def __init__(self) -> None:
        self.threads: list = []

    def install(self, owner, attr, insert, wait: float = 0.5) -> None:
        threads = self.threads

        class Interleaving(dict):
            fired = False

            def _interleave(self, view):
                iterator = iter(view)
                if Interleaving.fired:
                    yield from iterator
                    return
                Interleaving.fired = True
                yield next(iterator)
                done = threading.Event()
                thread = threading.Thread(
                    target=lambda: (insert(), done.set())
                )
                threads.append(thread)
                thread.start()
                done.wait(wait)
                yield from iterator

            def items(self):
                return self._interleave(dict.items(self))

            def values(self):
                return self._interleave(dict.values(self))

        setattr(owner, attr, Interleaving(getattr(owner, attr)))

    def join(self) -> None:
        for thread in self.threads:
            thread.join(10)


@pytest.fixture
def interleaver():
    interleaver = SnapshotInterleaver()
    yield interleaver
    interleaver.join()

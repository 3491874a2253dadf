"""Lightweight CPU-time measurement used by the experiment harness.

The paper's Figure 1(b) reports CPU seconds per algorithm; we measure
``time.process_time`` (CPU, not wall clock) so that the reported numbers are
insensitive to machine load, mirroring what the authors report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class Stopwatch:
    """Accumulates named time spans (CPU clock by default).

    Example::

        watch = Stopwatch()
        with watch.span("select"):
            policy.select(...)
        watch.total("select")  # seconds

    Pass ``clock=time.perf_counter`` for wall-clock spans — what the grid
    runner reports for fan-out runs, where per-process CPU time says
    nothing about elapsed time.
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    clock: Callable[[], float] = time.process_time

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager measuring one time span under ``name``."""
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        """Total CPU seconds accumulated under ``name`` (0.0 if unused)."""
        return self.totals.get(name, 0.0)

    def reset(self) -> None:
        """Drop all accumulated spans."""
        self.totals.clear()
        self.counts.clear()


def timed(fn: Callable[..., T], *args: Any, **kwargs: Any) -> Tuple[T, float]:
    """Run ``fn`` and return ``(result, cpu_seconds)``."""
    start = time.process_time()
    result = fn(*args, **kwargs)
    return result, time.process_time() - start


def timed_wall(
    fn: Callable[..., T], *args: Any, **kwargs: Any
) -> Tuple[T, float]:
    """Run ``fn`` and return ``(result, wall_seconds)``.

    Wall clock, not CPU: the right metric for multi-process work, where the
    parent's CPU clock never ticks while pool workers do the computing.
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


__all__ = ["Stopwatch", "timed", "timed_wall"]

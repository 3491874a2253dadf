"""Outside-in layer tracing: wrap each layer's public functions from here.

Nothing in ``src/`` is edited.  :class:`Recorder` replaces a function or
method, where its callers look it up, with a wrapper that records a span:
wall and thread CPU time, calls, and the part of both covered by nested
spans.  A layer's self time is its span time minus that covered part, so
the self times of all layers add up to the time the spans cover.

Spans nest on a per-thread stack, because the server's event-log flush
runs on an executor thread.  A coroutine function's span covers only the
steps in which its coroutine runs: each step is a span of its own inside
the event-loop callback that resumes it, so spans stay strictly nested
and the time a coroutine spends suspended belongs to whatever the loop
runs meanwhile (the next-question batcher's drain, another connection).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, Optional


#: The server's wait for I/O: a span, but not a layer's work.
IDLE = "http.idle"


class Recorder:
    """Span and counter totals, keyed by layer name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.cpu_self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        # [child wall, child CPU, start wall, start CPU]
        frame = [0, 0, time.perf_counter_ns(), time.thread_time_ns()]
        self._stack().append(frame)
        return frame

    def _exit(self, name: str, frame: list, call: bool = True) -> None:
        elapsed = time.perf_counter_ns() - frame[2]
        cpu = time.thread_time_ns() - frame[3]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
            stack[-1][1] += cpu
        with self._lock:
            self.self_ns[name] += elapsed - frame[0]
            self.total_ns[name] += elapsed
            self.cpu_self_ns[name] += cpu - frame[1]
            self.calls[name] += call

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a ``name`` span around a block."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(
        self,
        func: Callable,
        name: str,
        counter: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
    ) -> Callable:
        """``func`` recording a ``name`` span per call.

        ``counter(args, result)`` returns counter increments to add after
        each call (e.g. the size of a candidate pool).
        """
        if asyncio.iscoroutinefunction(func):

            @functools.wraps(func)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                result = await _Steps(self, name, func(*args, **kwargs))
                if counter is not None:
                    for key, value in counter(args, result).items():
                        self.count(key, value)
                return result

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.count(key, value)
            return result

        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        counter: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a span
        wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, counter))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copy of every total, for differencing two points in time."""
        with self._lock:
            return {
                "self_ns": dict(self.self_ns),
                "total_ns": dict(self.total_ns),
                "cpu_self_ns": dict(self.cpu_self_ns),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


class _Steps:
    """Awaitable driving a coroutine with one span per step, counted as
    one call."""

    def __init__(self, recorder: Recorder, name: str, coro: Any) -> None:
        self.recorder, self.name, self.coro = recorder, name, coro

    def __await__(self) -> Any:
        recorder, name, coro = self.recorder, self.name, self.coro
        value: Any = None
        error: Optional[BaseException] = None
        first = True
        while True:
            frame = recorder._enter()
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                recorder._exit(name, frame, first)
                return stop.value
            except BaseException:
                recorder._exit(name, frame, first)
                raise
            recorder._exit(name, frame, first)
            first = False
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # cancellation, thrown into the coroutine
                value, error = None, exc


def difference(after: Dict, before: Dict) -> Dict[str, Dict[str, float]]:
    """Per-key ``after - before`` of two :meth:`Recorder.snapshot` results."""
    return {
        section: {
            key: value - before.get(section, {}).get(key, 0)
            for key, value in values.items()
        }
        for section, values in after.items()
    }


def install_api_layers(recorder: Recorder) -> None:
    """Wrap the layers a :func:`repro.api.run.run_session` call goes through.

    ``repro.core.session`` imports ``relevant_questions`` and
    ``expected_topk_distance`` by name, so those are wrapped in that
    module's namespace, where the session looks them up.
    """
    import repro.core.session as core_session
    from repro.api.specs import CrowdSpec, InstanceSpec
    from repro.core.policies.conditional import ConditionalPolicy
    from repro.core.policies.top1 import Top1OnlinePolicy
    from repro.crowd.oracle import GroundTruth
    from repro.crowd.simulator import SimulatedCrowd
    from repro.questions.residual import ResidualEvaluator
    from repro.tpo.builders import TPOBuilder
    from repro.tpo.tree import TPOTree
    from repro.uncertainty.entropy import EntropyMeasure

    recorder.patch(InstanceSpec, "materialize", "instance.materialize")
    recorder.patch(TPOBuilder, "build", "tpo.build")
    recorder.patch(
        TPOTree,
        "to_space",
        "tpo.to_space",
        counter=lambda args, space: {"tpo.orderings": space.size},
    )
    recorder.patch(
        core_session,
        "relevant_questions",
        "questions.candidates",
        counter=lambda args, pool: {"questions.candidates.pool": len(pool)},
    )
    recorder.patch(
        ResidualEvaluator, "rank_singles_batch", "questions.rank_singles"
    )
    recorder.patch(
        ResidualEvaluator, "rank_set_extensions", "questions.rank_extensions"
    )
    recorder.patch(ResidualEvaluator, "apply_answer", "questions.apply_answer")
    for method in (
        "__call__",
        "evaluate_batch",
        "evaluate_restrictions",
        "evaluate_interval",
    ):
        recorder.patch(EntropyMeasure, method, "uncertainty.evaluate")
    recorder.patch(ConditionalPolicy, "select", "policy.select")
    recorder.patch(Top1OnlinePolicy, "next_question", "policy.select")
    recorder.patch(core_session, "expected_topk_distance", "rank.distance")
    recorder.patch(SimulatedCrowd, "ask", "crowd.ask")
    recorder.patch(GroundTruth, "sample", "crowd.truth")
    recorder.patch(CrowdSpec, "build", "crowd.build")


def install_service_layers(recorder: Recorder) -> None:
    """Wrap the service layers from outside: HTTP handling, the session
    manager, the TPO cache and the event-log flush, plus the layers the
    manager calls into (``InteractiveSession.candidates`` reaches
    ``relevant_questions`` through the same ``repro.core.session`` binding
    the batch session uses)."""
    import selectors
    from asyncio.base_events import BaseEventLoop
    from asyncio.selector_events import (
        BaseSelectorEventLoop,
        _SelectorSocketTransport,
    )
    from asyncio.streams import StreamReaderProtocol

    import repro.service.server as server
    from repro.service.cache import TPOCache
    from repro.service.manager import SessionManager

    install_api_layers(recorder)
    # One turn of the event loop, holding every callback it runs: what no
    # inner span claims is the loop's own work.  The wait for I/O inside
    # it is a span of its own, which explains nothing.
    recorder.patch(BaseEventLoop, "_run_once", "http.loop")
    recorder.patch(selectors.DefaultSelector, "select", IDLE)
    recorder.patch(server, "_handle_connection", "http.server")
    # asyncio's own accept and socket callbacks, which run before the
    # handler starts and after it returns.
    recorder.patch(BaseSelectorEventLoop, "_accept_connection", "http.transport")
    recorder.patch(StreamReaderProtocol, "connection_made", "http.transport")
    for method in ("__init__", "_read_ready", "_call_connection_lost"):
        recorder.patch(_SelectorSocketTransport, method, "http.transport")
    recorder.patch(SessionManager, "create_session", "service.create")
    recorder.patch(
        SessionManager,
        "next_questions",
        "service.next_questions",
        counter=lambda args, result: {"service.next_questions.batch": len(result)},
    )
    recorder.patch(SessionManager, "submit_answer", "service.submit_answer")
    recorder.patch(SessionManager, "snapshot", "service.snapshot")
    recorder.patch(SessionManager, "close_session", "service.close")
    # The handler awaits the flush on the loop thread; the write itself
    # runs on the log executor thread, in a span of the same layer.
    recorder.patch(server.Context, "flush_log", "service.flush_log")
    recorder.patch(
        SessionManager,
        "flush_log",
        "service.flush_log",
        counter=lambda args, written: {"service.flush_log.events": written},
    )
    recorder.patch(TPOCache, "get_space", "service.cache.get_space")

"""Span tracer: records the engine's own execution as Chrome trace events.

A *span* is a named, tagged wall-clock interval — ``structure_build``,
``duration_fill``, ``replay``, ``dse.sweep`` — opened with the
:meth:`SpanTracer.span` context manager. Spans are thread-safe and
nestable (nesting depth is tracked per thread and recorded on each
span, so flame-graph viewers reconstruct the stack without B/E event
pairing).

Completed spans export to Chrome Trace Event Format JSON via
:meth:`SpanTracer.chrome_trace`, viewable in ``chrome://tracing`` or
https://ui.perfetto.dev. Engine spans use a fixed synthetic pid
(:data:`ENGINE_PID`) with one tid per OS thread, so they sit alongside
the simulated device timeline (pids >= 1000, see
:mod:`repro.obs.export`) in a single combined trace.

The span buffer is a bounded ring (:data:`DEFAULT_MAX_SPANS`): a
long-lived daemon with tracing enabled drops its *oldest* spans rather
than growing without limit, and counts the drops through
:attr:`SpanTracer.on_drop` (wired to the ``obs.spans.dropped``
registry counter by :mod:`repro.obs`).

Spans recorded while a request context is bound
(:func:`repro.obs.context.bind_trace`) are tagged with the request's
``trace_id`` automatically, so one served request is greppable across
every span it touched on that thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator
from contextlib import contextmanager

from repro.obs.context import current_trace_id

#: Synthetic process id for the engine's own spans in exported traces.
#: Simulated devices use pids >= SIM_PID_OFFSET (repro.obs.export), so
#: the two timelines never collide in one trace file.
ENGINE_PID = 1

#: Spans retained by a tracer before the oldest are dropped. Sized so
#: a busy daemon holds minutes of serving spans in a few tens of MB,
#: never unbounded.
DEFAULT_MAX_SPANS = 65536


_MICROS = 1_000_000.0


@dataclass(frozen=True)
class Span:
    """One completed span: a named interval on one thread."""

    name: str
    category: str
    start_s: float  # seconds since the tracer epoch
    duration_s: float
    thread: int  # dense per-tracer thread index (trace tid)
    depth: int  # nesting depth on that thread (0 = top level)
    tags: dict[str, Any] = field(default_factory=dict)


class _ThreadState(threading.local):
    """Per-thread nesting depth and dense thread index."""

    def __init__(self) -> None:
        self.depth = 0
        self.index: int | None = None


class SpanTracer:
    """Thread-safe recorder of nested, tagged wall-clock spans.

    Args:
        max_spans: Ring capacity; once full, each new span evicts the
            oldest and bumps :attr:`dropped` (and :attr:`on_drop`, when
            set).
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self._lock = threading.Lock()
        self.max_spans = max(1, int(max_spans))
        self._spans: deque[Span] = deque(maxlen=self.max_spans)
        self._dropped = 0
        self._epoch = time.perf_counter()
        self._local = _ThreadState()
        self._thread_ids = itertools.count()
        self._thread_names: dict[int, str] = {}
        #: Called with the number of spans evicted (always 1) each time
        #: the ring overflows; :mod:`repro.obs` points this at the
        #: ``obs.spans.dropped`` counter.
        self.on_drop: Callable[[int], None] | None = None

    def _thread_index(self) -> int:
        index = self._local.index
        if index is None:
            with self._lock:
                index = next(self._thread_ids)
                self._thread_names[index] = threading.current_thread().name
            self._local.index = index
        return index

    @contextmanager
    def span(self, name: str, category: str = "engine",
             **tags: Any) -> Iterator[dict[str, Any]]:
        """Record the enclosed block as a span named ``name``.

        Yields the (mutable) tags dict so the block can attach results
        discovered mid-flight::

            with tracer.span("structure_build", plan=str(plan)) as tags:
                ...
                tags["tasks"] = structure.num_tasks
        """
        index = self._thread_index()
        depth = self._local.depth
        self._local.depth = depth + 1
        if "trace_id" not in tags:
            trace_id = current_trace_id()
            if trace_id is not None:
                tags["trace_id"] = trace_id
        start = time.perf_counter()
        try:
            yield tags
        finally:
            duration = time.perf_counter() - start
            self._local.depth = depth
            completed = Span(name=name, category=category,
                             start_s=start - self._epoch,
                             duration_s=duration, thread=index,
                             depth=depth, tags=tags)
            with self._lock:
                overflow = len(self._spans) == self.max_spans
                if overflow:
                    self._dropped += 1
                self._spans.append(completed)
            if overflow and self.on_drop is not None:
                self.on_drop(1)

    @property
    def spans(self) -> list[Span]:
        """Completed spans, in completion order."""
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring since the last :meth:`reset`."""
        with self._lock:
            return self._dropped

    def reset(self) -> None:
        """Drop recorded spans and restart the epoch."""
        with self._lock:
            self._spans.clear()
            self._dropped = 0
            self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> list[dict[str, Any]]:
        """Chrome Trace Event Format events for every completed span.

        Returns "X" (complete) events plus "M" (metadata) events naming
        the engine process and its threads. Timestamps are microseconds
        from the tracer epoch.
        """
        with self._lock:
            spans = list(self._spans)
            thread_names = dict(self._thread_names)
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": ENGINE_PID, "tid": 0,
            "args": {"name": "repro engine"},
        }]
        for index in sorted(thread_names):
            events.append({
                "name": "thread_name", "ph": "M", "pid": ENGINE_PID,
                "tid": index,
                "args": {"name": thread_names[index]},
            })
        for span in spans:
            args: dict[str, Any] = {"depth": span.depth}
            args.update(span.tags)
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_s * _MICROS,
                "dur": span.duration_s * _MICROS,
                "pid": ENGINE_PID,
                "tid": span.thread,
                "args": args,
            })
        return events


class NullSpan:
    """No-op context manager returned when observability is disabled.

    A single module-level instance is reused for every call, so a
    disabled ``obs.span(...)`` costs one function call and one
    attribute load — no allocation, no clock read.
    """

    __slots__ = ()

    def __enter__(self) -> dict[str, Any]:
        return {}

    def __exit__(self, *exc_info: Any) -> None:
        return None


NULL_SPAN = NullSpan()

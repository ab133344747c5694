"""Per-layer attribution for the traced benchmark run.

Nothing under ``src/`` is instrumented. :func:`installed` wraps the
public entry point of every layer for the length of a ``with`` block —
the module attribute a caller looks up, or the class method — and puts
the originals back on exit. Each wrapped call is a span. A layer's self
time is its spans' duration minus the time their child spans cover; a
benchmark op is the root span, and its own self time is the share no
layer explains. Spans stay in memory and are written as one Chrome trace
when the run ends.

The tracer keeps a single span stack, so it may only trace code that
runs on one thread (the in-process workloads).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from common import ROOT

#: Chrome-trace events kept per run (the aggregates cover every span).
MAX_EVENTS = 20_000


class LayerTracer:
    """Span stack with per-layer self time and counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_s = 0.0
        self.unaccounted_s = 0.0
        self.events: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list[float]] = []

    def _close(self, name: str, start: float, elapsed: float) -> float:
        """Pop one span; returns the time its children covered."""
        covered = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        if len(self.events) < MAX_EVENTS:
            self.events.append((name, start, elapsed, len(self._stack)))
        else:
            self.dropped += 1
        return covered

    def wrap(self, layer: str, fn, count=None):
        """``fn`` recorded as a span of ``layer``. ``count(counts, args,
        result, before)`` adds work counts, where ``before`` is what
        ``count.before(args)`` returned ahead of the call."""
        before_fn = getattr(count, "before", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = before_fn(args) if before_fn is not None else None
            self._stack.append([0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = self._close(layer, start, elapsed)
                self.self_s[layer] += elapsed - covered
            if count is not None:
                count(self.counts, args, result, before)
            return result
        return wrapper

    def op(self, name: str, fn, *args):
        """Run one benchmark op as a root span; returns (result, seconds)."""
        self._stack.append([0.0])
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            covered = self._close(name, start, elapsed)
        self.op_s += elapsed
        self.unaccounted_s += elapsed - covered
        return result, elapsed

    def chrome_trace(self, metadata: dict) -> dict:
        """The recorded spans as a Chrome Trace Event Format payload."""
        origin = min((event[1] for event in self.events), default=0.0)
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": (start - origin) * 1e6, "dur": elapsed * 1e6,
                   "pid": 1, "tid": 0, "args": {"depth": depth}}
                  for name, start, elapsed, depth in self.events]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(metadata, dropped_events=self.dropped)}


def run_op(tracer: LayerTracer | None, name: str, fn, *args):
    """``fn(*args)`` timed on the host; a root span when tracing."""
    if tracer is not None:
        return tracer.op(name, fn, *args)
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _count_profiled(counts, args, result, before):
    counts["profiling.operators_profiled"] += before


_count_profiled.before = lambda args: int(args[1] not in args[0])


def _count_collective(counts, args, result, before):
    counts["network.collective_calls"] += 1


def _count_tasks(counts, args, result, before):
    counts["graph.tasks_built"] += result.num_tasks


def _count_batch(counts, args, result, before):
    columns = args[1].shape[1]
    counts["sim.batch_columns"] += columns
    counts["sim.batch_tasks"] += args[0].num_tasks * columns


def _count_infeasible(counts, args, result, before):
    counts["dse.plans_infeasible"] += sum(not p.feasible for p in result)


def _targets():
    """(owner, attribute, layer, count) for every wrapped entry point.

    Module functions are wrapped where their callers look them up:
    ``repro.sim.estimator`` binds the memory checks and both replay
    engines at import, and the explorer imports ``structure_affinity``
    from ``repro.graph.builder`` on each sweep.
    """
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.graph import builder
    from repro.profiling.lookup import OperatorToTaskTable
    from repro.profiling.nccl import NcclModel
    from repro.sim import estimator

    return [
        (estimator, "check_memory", "memory.check", None),
        (estimator, "check_inference_memory", "memory.check", None),
        (OperatorToTaskTable, "duration_of", "profiling.lookup", None),
        (OperatorToTaskTable, "tasks_for", "profiling.lookup",
         _count_profiled),
        (NcclModel, "time", "network.collective", _count_collective),
        (builder.GraphBuilder, "__init__", "graph.builder_init", None),
        (builder.GraphBuilder, "compile", "graph.structure_build",
         _count_tasks),
        (builder.GraphBuilder, "fill_durations", "graph.duration_fill", None),
        (estimator, "simulate_retimed", "sim.replay", None),
        (estimator, "simulate_retimed_batch", "sim.replay_batch",
         _count_batch),
        (estimator.VTrain, "predict", "sim.predict", None),
        (estimator.VTrain, "predict_prepared", "sim.predict", None),
        (estimator.VTrain, "predict_inference", "sim.predict", None),
        (builder, "structure_affinity", "dse.affinity", None),
        (DesignSpaceExplorer, "evaluate_batch", "dse.evaluate_batch",
         _count_infeasible),
    ]


@contextlib.contextmanager
def installed(tracer: LayerTracer):
    """Route every layer entry point through ``tracer`` inside the block."""
    saved = []
    try:
        for owner, attr, layer, count in _targets():
            original = (vars(owner)[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_trace(path: Path, payload: dict) -> None:
    """Write a Chrome trace and validate it against the repo's schema."""
    from repro.obs.schema import validate

    schema = json.loads((ROOT / "schemas" / "chrome_trace.schema.json")
                        .read_text(encoding="utf-8"))
    validate(payload, schema)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")

"""Chrome-trace export of simulated timelines, and combined trace files.

:func:`simulation_trace_events` converts a
:class:`~repro.sim.results.SimulationResult` recorded with
``record_timeline=True`` into Chrome Trace Event Format: each simulated
device becomes a process (pid = :data:`SIM_PID_OFFSET` + device), each
stream a thread, each task kind a category. The exact float
``start``/``finish`` seconds of every event ride along in ``args`` —
microsecond ``ts``/``dur`` fields are lossy under IEEE-754 round-trip,
and tests assert the export reproduces ``SimulationResult.events``
bit-for-bit via :func:`events_from_trace`.

:func:`combined_trace` merges a simulated timeline with the engine's
own spans (:mod:`repro.obs.tracer`, pid :data:`~repro.obs.tracer.ENGINE_PID`)
into one ``{"traceEvents": [...]}`` payload openable in
``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import SimulationError
from repro.sim.results import SimulationResult, TimelineEvent

#: Simulated device ``d`` exports as pid ``SIM_PID_OFFSET + d``, keeping
#: the simulated cluster visually separate from the engine's own spans
#: (pid 1) in a combined trace.
SIM_PID_OFFSET = 1000

_MICROS = 1_000_000.0


def _stream_tids(events: list[TimelineEvent]) -> dict[str, int]:
    """Stable stream-name -> tid mapping (sorted for determinism)."""
    return {stream: tid for tid, stream
            in enumerate(sorted({e.stream for e in events}))}


def simulation_trace_events(result: SimulationResult
                            ) -> list[dict[str, Any]]:
    """Chrome trace events for a recorded simulated timeline.

    Devices map to pids, streams to tids, kinds to categories. Raises
    :class:`~repro.errors.SimulationError` when the result has no
    recorded events (predict with ``record_timeline=True`` first).
    """
    if result.events is None:
        raise SimulationError(
            "trace export needs a recorded timeline: pass "
            "record_timeline=True to VTrain.predict or simulate_retimed")
    events = result.events
    tids = _stream_tids(events)
    devices = sorted({e.device for e in events})

    trace: list[dict[str, Any]] = []
    for device in devices:
        pid = SIM_PID_OFFSET + device
        trace.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"device {device}"},
        })
        for stream, tid in tids.items():
            trace.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": stream},
            })
    for event in events:
        trace.append({
            "name": event.label,
            "cat": event.kind,
            "ph": "X",
            "ts": event.start * _MICROS,
            "dur": event.duration * _MICROS,
            "pid": SIM_PID_OFFSET + event.device,
            "tid": tids[event.stream],
            "args": {
                "task_id": event.task_id,
                "stream": event.stream,
                # Exact values: ts/dur above are scaled and not
                # guaranteed to invert bit-for-bit.
                "start_s": event.start,
                "finish_s": event.finish,
            },
        })
    return trace


def events_from_trace(trace_events: list[dict[str, Any]]
                      ) -> list[TimelineEvent]:
    """Inverse of :func:`simulation_trace_events`.

    Rebuilds :class:`TimelineEvent` objects from the exported "X"
    events in the simulated-device pid range, using the exact
    ``start_s``/``finish_s`` carried in ``args``. Engine spans and
    metadata events are ignored.
    """
    events = []
    for entry in trace_events:
        if entry.get("ph") != "X" or entry.get("pid", 0) < SIM_PID_OFFSET:
            continue
        args = entry["args"]
        events.append(TimelineEvent(
            task_id=args["task_id"],
            device=entry["pid"] - SIM_PID_OFFSET,
            stream=args["stream"],
            kind=entry["cat"],
            label=entry["name"],
            start=args["start_s"],
            finish=args["finish_s"],
        ))
    return events


def combined_trace(result: SimulationResult | None = None,
                   engine_events: list[dict[str, Any]] | None = None,
                   metadata: dict[str, Any] | None = None
                   ) -> dict[str, Any]:
    """One Chrome-trace payload holding timeline and/or engine spans.

    Either part may be omitted; ``metadata`` lands in the payload's
    ``otherData`` (Perfetto shows it in trace info).
    """
    events: list[dict[str, Any]] = []
    if engine_events:
        events.extend(engine_events)
    if result is not None:
        events.extend(simulation_trace_events(result))
    payload: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["otherData"] = metadata
    return payload


def write_trace(path: str | Path, payload: dict[str, Any]) -> Path:
    """Write a trace payload as JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=False) + "\n",
                    encoding="utf-8")
    return path


def load_trace(path: str | Path) -> dict[str, Any]:
    """Read back a trace file written by :func:`write_trace`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))

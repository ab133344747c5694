"""Timeline analysis: where does an iteration's time go?

The raw Algorithm-1 result gives one number (iteration time) plus busy
counters. This module turns a *recorded* timeline into the quantities
practitioners actually reason about when reading Figure 10/11-style
results:

* per-device pipeline bubble (idle compute time);
* exposed vs. overlapped communication (how much of the DP All-Reduce
  actually hid under backward compute — the Figure 5 story, measured);
* a per-stage utilization profile (first/last stages carry the
  embedding/LM-head extras, interior stages idle in the bubble);
* the critical device (the stage that sets the iteration time).

All functions take a :class:`~repro.sim.results.SimulationResult` with
a recorded timeline: ``VTrain.predict(..., record_timeline=True)``'s
``simulation``, or ``simulate_retimed(..., record_timeline=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.graph.structure import (COMPUTE_STREAM, KIND_COMPUTE,
                                   KIND_DP_COMM, KIND_PP_COMM, KIND_TP_COMM,
                                   KIND_WEIGHT_UPDATE)
from repro.sim.results import SimulationResult, TimelineEvent

COMPUTE_KINDS = (KIND_COMPUTE, KIND_WEIGHT_UPDATE)


def _require_events(result: SimulationResult) -> list[TimelineEvent]:
    if result.events is None:
        raise SimulationError(
            "timeline analysis needs a recorded timeline: pass "
            "record_timeline=True to VTrain.predict or simulate_retimed")
    return result.events


@dataclass(frozen=True)
class DeviceProfile:
    """Time accounting for one logical device (pipeline stage).

    All fields are in seconds over one iteration.
    """

    device: int
    compute_busy: float
    tp_comm: float
    dp_comm_total: float
    dp_comm_exposed: float
    pp_comm_total: float
    idle: float

    @property
    def compute_utilization(self) -> float:
        """Fraction of the iteration this stage spent computing."""
        total = self.compute_busy + self.tp_comm + self.idle
        if total <= 0:
            return 0.0
        return self.compute_busy / total


def _merge_intervals(intervals: list[tuple[float, float]]
                     ) -> list[tuple[float, float]]:
    """Union of possibly-overlapping [start, finish) intervals."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, finish in intervals[1:]:
        last_start, last_finish = merged[-1]
        if start <= last_finish:
            merged[-1] = (last_start, max(last_finish, finish))
        else:
            merged.append((start, finish))
    return merged


def _interval_overlap(a: list[tuple[float, float]],
                      b: list[tuple[float, float]]) -> float:
    """Total length of the intersection of two merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def device_profiles(result: SimulationResult) -> dict[int, DeviceProfile]:
    """Per-device time accounting from a recorded timeline."""
    events = _require_events(result)
    horizon = result.iteration_time

    by_device: dict[int, list[TimelineEvent]] = {}
    for event in events:
        by_device.setdefault(event.device, []).append(event)

    profiles: dict[int, DeviceProfile] = {}
    for device, device_events in sorted(by_device.items()):
        compute = sum(e.duration for e in device_events
                      if e.kind in COMPUTE_KINDS)
        tp = sum(e.duration for e in device_events if e.kind == KIND_TP_COMM)
        dp_total = sum(e.duration for e in device_events
                       if e.kind == KIND_DP_COMM)
        pp_total = sum(e.duration for e in device_events
                       if e.kind == KIND_PP_COMM)
        busy_windows = _merge_intervals(
            [(e.start, e.finish) for e in device_events
             if e.stream == COMPUTE_STREAM])
        dp_windows = _merge_intervals(
            [(e.start, e.finish) for e in device_events
             if e.kind == KIND_DP_COMM])
        overlapped = _interval_overlap(busy_windows, dp_windows)
        compute_stream_busy = sum(hi - lo for lo, hi in busy_windows)
        profiles[device] = DeviceProfile(
            device=device,
            compute_busy=compute,
            tp_comm=tp,
            dp_comm_total=dp_total,
            dp_comm_exposed=max(0.0, dp_total - overlapped),
            pp_comm_total=pp_total,
            idle=max(0.0, horizon - compute_stream_busy),
        )
    return profiles


def pipeline_bubble_time(result: SimulationResult) -> float:
    """Average per-device compute-stream idle time (the bubble)."""
    profiles = device_profiles(result)
    if not profiles:
        return 0.0
    return sum(p.idle for p in profiles.values()) / len(profiles)


def exposed_dp_fraction(result: SimulationResult) -> float:
    """Fraction of DP All-Reduce time not hidden under compute.

    Close to 0 means gradient bucketing achieved the Figure 5(a)
    overlap; close to 1 reproduces the Figure 5(b) exposed reduction.
    """
    profiles = device_profiles(result)
    total = sum(p.dp_comm_total for p in profiles.values())
    if total <= 0:
        return 0.0
    exposed = sum(p.dp_comm_exposed for p in profiles.values())
    return exposed / total


def critical_device(result: SimulationResult) -> int:
    """The stage whose timeline sets the iteration time."""
    if not result.device_timeline:
        raise SimulationError("no devices in result")
    return max(result.device_timeline, key=result.device_timeline.get)


def stage_utilization_profile(result: SimulationResult) -> list[float]:
    """Compute utilization per pipeline stage, in stage order.

    Interior stages of a deep pipeline show the classic bubble dip at
    the start/end; the first stage pays the embedding, the last the LM
    head.
    """
    profiles = device_profiles(result)
    return [profiles[device].compute_utilization
            for device in sorted(profiles)]


def summarize(result: SimulationResult) -> dict[str, float]:
    """One-call summary used by reports and notebooks."""
    profiles = device_profiles(result)
    num = max(1, len(profiles))
    return {
        "iteration_time": result.iteration_time,
        "avg_bubble_s": pipeline_bubble_time(result),
        "avg_bubble_fraction": pipeline_bubble_time(result)
        / result.iteration_time if result.iteration_time else 0.0,
        "exposed_dp_fraction": exposed_dp_fraction(result),
        "avg_tp_comm_s": sum(p.tp_comm for p in profiles.values()) / num,
        "critical_device": float(critical_device(result)),
    }

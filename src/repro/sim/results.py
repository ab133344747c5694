"""Result containers for simulation, prediction, and cost estimation."""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.graph.structure import (KIND_COMPUTE, KIND_DP_COMM, KIND_PP_COMM,
                                   KIND_TP_COMM, KIND_WEIGHT_UPDATE,
                                   GraphStructure)

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class TimelineEvent:
    """One executed task in a recorded timeline (chrome-trace friendly)."""

    task_id: int
    device: int
    stream: str
    kind: str
    label: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        """Task latency in seconds."""
        return self.finish - self.start


class DeviceBusy(Mapping[int, dict[str, float]]):
    """Per-device, per-kind busy seconds of one replay, computed on
    first read.

    The sums are one ``np.bincount`` over the structure's busy buckets,
    added in position order, and each device's dict lists its kinds as
    they first appear in position order (the structure's
    ``device_kind_order``). A replay leaves them to the first read,
    since most predictions never read them. It compares equal to any
    mapping holding the same dicts.

    Until that read, it holds the structure's busy buckets, layout and
    kinds and the replay's own duration vector, never the structure.
    Once read, it holds only the dict.
    """

    __slots__ = ("_source", "_busy")

    def __init__(self, structure: GraphStructure,
                 durations: np.ndarray) -> None:
        self._source: tuple | None = (
            structure.busy_index, structure.device_kind_order,
            structure.kinds, durations)
        self._busy: dict[int, dict[str, float]] | None = None

    def _dict(self) -> dict[int, dict[str, float]]:
        busy = self._busy
        if busy is None:
            # One attribute read decides: a concurrent first read sets
            # the dict before it drops the source.
            source = self._source
            if source is None:
                return self._busy
            busy_index, kind_order, kinds, durations = source
            num_kinds = len(kinds)
            busy_flat = np.bincount(
                busy_index, weights=durations,
                minlength=len(kind_order) * num_kinds).tolist()
            busy = self._busy = {
                device: {kinds[kind]: busy_flat[device * num_kinds + kind]
                         for kind in device_kinds}
                for device, device_kinds in enumerate(kind_order)}
            self._source = None
        return busy

    def __getitem__(self, device: int) -> dict[str, float]:
        return self._dict()[device]

    def __iter__(self) -> Iterator[int]:
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass
class SimulationResult:
    """Raw output of Algorithm 1 for one graph replay.

    Attributes:
        iteration_time: Predicted single-iteration training time (s).
        num_tasks: Tasks executed.
        device_timeline: Final per-device clock (Algorithm 1's ``T``).
        device_busy: Per-device, per-kind busy seconds, summed in
            position order. The engines return a :class:`DeviceBusy`,
            computed on first read: until then it keeps the replay's
            duration vector and its structure's busy buckets alive
            (3.4 MB for MT-NLG (8, 8, 35) at OPERATOR granularity,
            measured after the structure's eviction), never the
            structure.
        events: Recorded timeline, one event per task in position order
            (None unless requested).
        metadata: Graph metadata (plan, granularity, ...).
    """

    iteration_time: float
    num_tasks: int
    device_timeline: dict[int, float]
    device_busy: Mapping[int, dict[str, float]]
    events: list[TimelineEvent] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def busy_seconds(self, kind: str) -> float:
        """Total busy seconds across devices for one task kind."""
        return sum(per_device.get(kind, 0.0)
                   for per_device in self.device_busy.values())

    def breakdown(self) -> dict[str, float]:
        """Aggregate busy time by category (compute, TP/DP/PP comm, WU)."""
        return {kind: self.busy_seconds(kind)
                for kind in (KIND_COMPUTE, KIND_TP_COMM, KIND_DP_COMM,
                             KIND_PP_COMM, KIND_WEIGHT_UPDATE)}


@dataclass(frozen=True)
class IterationPrediction:
    """vTrain's answer for one design point.

    Attributes:
        iteration_time: Predicted single-iteration latency (s).
        gpu_compute_utilization: Model FLOPs achieved relative to the
            aggregate hardware peak (the Figure 1 / Figure 10(b) metric),
            in [0, 1].
        tokens_per_iteration: Tokens consumed per iteration.
        model_flops: Useful FLOPs per iteration.
        num_gpus: GPUs the plan occupies.
        memory_per_gpu: Peak per-GPU memory footprint (bytes).
        simulation: The raw Algorithm-1 result.
    """

    iteration_time: float
    gpu_compute_utilization: float
    tokens_per_iteration: int
    model_flops: float
    num_gpus: int
    memory_per_gpu: float
    simulation: SimulationResult

    @property
    def achieved_flops_per_gpu(self) -> float:
        """Achieved useful FLOP/s per GPU."""
        if self.iteration_time <= 0:
            return 0.0
        return self.model_flops / self.iteration_time / self.num_gpus

    @property
    def tokens_per_second(self) -> float:
        """System-level training throughput."""
        if self.iteration_time <= 0:
            return 0.0
        return self.tokens_per_iteration / self.iteration_time


@dataclass(frozen=True)
class InferencePrediction:
    """vTrain's answer for one serving design point.

    One prefill-graph replay (time-to-first-token) plus one decode-step
    replay (time-per-output-token) characterise a static serving plan:
    a full request costs ``prefill + gen_len * decode_step`` seconds and
    the replica sustains ``batch_size / decode_step`` output tokens per
    second once saturated. Data parallelism replicates servers —
    ``num_replicas`` scales throughput, never latency.

    Attributes:
        prefill_time: Prefill-graph makespan — time to first token (s).
        decode_step_time: Decode-step-graph makespan — time per output
            token (s).
        batch_size: Requests served concurrently *per replica*.
        prompt_len: Prompt tokens per request.
        gen_len: Generated tokens per request.
        num_replicas: Data-parallel server replicas.
        num_gpus: Total GPUs across all replicas.
        memory_per_gpu: Peak per-GPU memory footprint (bytes),
            weights + KV cache + working set.
        prefill_simulation: Raw Algorithm-1 result for the prefill graph.
        decode_simulation: Raw Algorithm-1 result for the decode graph.
    """

    prefill_time: float
    decode_step_time: float
    batch_size: int
    prompt_len: int
    gen_len: int
    num_replicas: int
    num_gpus: int
    memory_per_gpu: float
    prefill_simulation: SimulationResult
    decode_simulation: SimulationResult

    @property
    def time_to_first_token(self) -> float:
        """Alias for :attr:`prefill_time` (the serving-world TTFT)."""
        return self.prefill_time

    @property
    def time_per_output_token(self) -> float:
        """Alias for :attr:`decode_step_time` (the serving-world TPOT)."""
        return self.decode_step_time

    @property
    def tokens_per_second(self) -> float:
        """Aggregate output-token throughput across all replicas."""
        if self.decode_step_time <= 0:
            return 0.0
        return self.batch_size * self.num_replicas / self.decode_step_time

    @property
    def request_latency(self) -> float:
        """End-to-end latency of one request (prefill + all decodes)."""
        return self.prefill_time + self.gen_len * self.decode_step_time

    def cost_per_million_tokens(self, dollars_per_hour: float) -> float:
        """Serving cost per million output tokens at a given fleet rate.

        ``dollars_per_hour`` is for the *whole fleet* (all
        ``num_gpus``); divide by throughput to price a token.
        """
        if self.tokens_per_second <= 0:
            return float("inf")
        return dollars_per_hour / 3600.0 / self.tokens_per_second * 1e6


@dataclass(frozen=True)
class TrainingEstimate:
    """End-to-end wall-clock and monetary cost of a training run.

    The paper's Table I columns: iteration time, total training time in
    days, GPU compute utilization, GPU count, $/hour, and $ total.
    """

    iteration_time: float
    num_iterations: int
    total_days: float
    gpu_compute_utilization: float
    num_gpus: int
    dollars_per_hour: float
    dollars_total: float

    def as_row(self) -> dict[str, float]:
        """Flat dict form for benchmark table printing."""
        return {
            "iteration_time_s": self.iteration_time,
            "total_days": self.total_days,
            "utilization_pct": 100.0 * self.gpu_compute_utilization,
            "num_gpus": self.num_gpus,
            "dollars_per_hour": self.dollars_per_hour,
            "dollars_total_millions": self.dollars_total / 1e6,
        }

"""Algorithm 1: replaying the task-granularity execution graph.

Implements the paper's simulation algorithm: initialise a per-GPU
timeline and a FIFO task queue with all dependency-free tasks;
repeatedly pop a task, advance its device's timeline to
``max(T[i], start + duration)``, propagate the finish time to children,
decrement their reference counts, and enqueue newly-ready tasks. The
iteration time is the maximum timeline across devices.

Computation/communication overlap (Figure 5a) falls out naturally: tasks
on a device's ``comm`` stream have no chain edge to the compute stream,
so a gradient-bucket All-Reduce's start time is bound only by its data
dependency, letting it run concurrently with backward compute — exactly
the behaviour line 12 of Algorithm 1 must "faithfully model".

Two engines implement the algorithm:

* :func:`simulate_reference` — the verbatim per-task Python loop over
  :class:`~repro.graph.structure.TaskNode` objects, kept as the
  executable specification and equivalence-test oracle.
* :func:`simulate` / :func:`simulate_retimed` — the compiled engine.
  The FIFO pop order of Algorithm 1 is purely structural (durations
  never change which task is popped next), so it is precomputed once
  when a graph is compiled into a
  :class:`~repro.graph.structure.GraphStructure`; replay is then a
  single array pass in that order — no dicts, no deque, no per-task
  object churn, :class:`~repro.sim.results.TimelineEvent` objects
  materialized only when ``record_timeline=True``. Results are
  bit-identical to the reference engine (same floating-point operations
  in the same order; see ``tests/test_sim_equivalence.py``).

Neither engine mutates the graph, so one built graph can be replayed
many times — and one *compiled structure* can be replayed with many
duration vectors (``simulate_retimed``), which is what design-space
sweeps and perturbed-hardware studies exploit. When a consumer holds a
whole *batch* of duration vectors for one structure — a group of
structure-affine DSE candidates, K testbed perturbation samples, an
alpha ablation's derating grid — :func:`simulate_retimed_batch` sweeps
all of them in one pass over a ``(tasks x N)`` matrix, bit-identical
column-for-column to the scalar engine (``tests/test_sim_batch.py``).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.graph.structure import (COMPUTE_STREAM, ExecutionGraph,
                                   GraphStructure)
from repro.sim.results import SimulationResult, TimelineEvent


def simulate(graph: ExecutionGraph | GraphStructure, *,
             record_timeline: bool = False) -> SimulationResult:
    """Estimate single-iteration training time from a task graph.

    Compiles the graph into its :class:`GraphStructure` replay form
    (memoized on the graph object) and replays it with the compiled
    engine. Results are bit-identical to :func:`simulate_reference`.

    Args:
        graph: Execution graph from
            :class:`~repro.graph.builder.GraphBuilder`, or an
            already-compiled :class:`GraphStructure`.
        record_timeline: Also record per-task (start, finish) events —
            costs memory on large graphs, invaluable for tests and traces.

    Returns:
        A :class:`~repro.sim.results.SimulationResult` whose
        ``iteration_time`` is the predicted single-iteration latency.

    Raises:
        SimulationError: If the graph contains a dependency cycle (some
            tasks never become ready).
    """
    if isinstance(graph, GraphStructure):
        return simulate_retimed(graph, record_timeline=record_timeline)
    if len(graph.nodes) == 0:
        raise SimulationError("cannot simulate an empty graph")
    structure = graph.compiled()
    # The compiled topology is memoized on the graph, but durations are
    # re-read from the nodes every call: replaying one graph with
    # scaled/mutated durations (sensitivity studies) must see the
    # current values, exactly as the reference engine does.
    nodes = graph.nodes
    durations = [nodes[task].duration for task in structure.task_id.tolist()]
    return simulate_retimed(structure, durations,
                            record_timeline=record_timeline,
                            metadata=graph.metadata)


def simulate_retimed(structure: GraphStructure,
                     durations: "np.ndarray | list[float] | None" = None, *,
                     record_timeline: bool = False,
                     metadata: dict | None = None) -> SimulationResult:
    """Replay a compiled structure under a given duration vector.

    This is the compiled engine's core: one pass over the precomputed
    replay order propagating finish times through the CSR child arrays,
    then vectorized reductions for the per-device timelines and busy
    accounting. Sweeps that only change task *timings* (micro-batch
    size re-timing, perturbed device/NCCL models, testbed noise) call
    this directly and skip graph construction entirely.

    Args:
        structure: Compiled topology
            (:meth:`~repro.graph.structure.GraphStructure.compile` or
            :meth:`~repro.graph.builder.GraphBuilder.compile`).
        durations: Per-task durations in *replay order* (as produced by
            :meth:`~repro.graph.structure.GraphStructure.retime`).
            Defaults to the structure's baseline durations.
        record_timeline: Materialize per-task TimelineEvents.
        metadata: Override the result metadata (defaults to the
            structure's compile-time metadata).

    Raises:
        SimulationError: Empty structure, wrong-length duration vector,
            or negative durations.
    """
    num_tasks = structure.num_tasks
    if num_tasks == 0:
        raise SimulationError("cannot simulate an empty graph")
    if durations is None or durations is structure.duration:
        durations_np = structure.duration
    else:
        durations_np = np.asarray(durations, dtype=np.float64)
        if durations_np.shape != (num_tasks,):
            raise SimulationError(
                f"duration vector has {durations_np.shape} entries, "
                f"structure has {num_tasks} tasks")
        if durations_np.size and float(durations_np.min()) < 0.0:
            raise SimulationError("durations must be non-negative")
    duration_list = durations_np.tolist()

    # Hot loop: finish-time propagation over the flat edge lists, which
    # are grouped by parent in replay order. Every parent of a task sits
    # at an earlier position, so its start is final before its first
    # outgoing edge; each edge recomputes the parent's finish with the
    # same single addition as the reference engine's queue loop.
    start = [0.0] * num_tasks
    parents, children = structure.edge_lists()
    for parent, child in zip(parents, children):
        finish = start[parent] + duration_list[parent]
        if start[child] < finish:
            start[child] = finish

    finish_np = np.asarray(start, dtype=np.float64) + durations_np
    makespan = float(finish_np.max())
    num_devices = structure.num_devices
    timeline_np = np.zeros(num_devices, dtype=np.float64)
    np.maximum.at(timeline_np, structure.device, finish_np)
    timeline = dict(enumerate(timeline_np.tolist()))
    busy = _busy_dict(structure, durations_np)

    events: list[TimelineEvent] | None = None
    if record_timeline:
        kinds = structure.kinds
        events = [
            TimelineEvent(task_id=task_id, device=device, stream=stream,
                          kind=kinds[kind], label=label, start=task_start,
                          finish=task_finish)
            for task_id, device, stream, kind, label, task_start, task_finish
            in zip(structure.task_id.tolist(), structure.device.tolist(),
                   structure.stream, structure.kind_index.tolist(),
                   structure.label, start, finish_np.tolist())]

    source = structure.metadata if metadata is None else metadata
    return SimulationResult(iteration_time=makespan, num_tasks=num_tasks,
                            device_timeline=timeline, device_busy=busy,
                            events=events, metadata=dict(source))


def _busy_dict(structure: GraphStructure,
               durations_np: np.ndarray) -> dict[int, dict[str, float]]:
    """Per-device, per-kind busy accounting for one duration vector.

    Shared by the scalar and batched engines so a batch column's busy
    dict is produced by the byte-for-byte same accumulation (and dict
    insertion order) as a scalar replay of that column.
    """
    num_devices = structure.num_devices
    num_kinds = len(structure.kinds)
    busy_flat = np.bincount(structure.busy_index, weights=durations_np,
                            minlength=num_devices * num_kinds).tolist()
    kinds = structure.kinds
    return {device: {kinds[kind]: busy_flat[device * num_kinds + kind]
                     for kind in structure.device_kind_order[device]}
            for device in range(num_devices)}


class BatchSimulationResult:
    """Output of one batched replay: N columns, one result each.

    ``makespans[j]`` is bit-identical to
    ``simulate_retimed(structure, durations_matrix[:, j]).iteration_time``
    — the batched sweep performs the same IEEE-754 operations as the
    scalar engine, only grouped across columns (see
    :class:`~repro.graph.structure.BatchSweepPlan`). Full per-column
    :class:`SimulationResult` objects (timeline and busy dicts in the
    scalar engine's exact layout) are materialized on demand via
    :meth:`column`, so makespan-only consumers — DSE objective sweeps,
    throughput benches — never pay for N dict constructions. The device
    timeline matrix is likewise computed lazily on first access (it
    needs a full gather of the finish matrix, comparable in cost to the
    whole chunked sweep) and the finish matrix is released afterwards.

    Attributes:
        makespans: Per-column iteration times, shape ``(batch_size,)``.
        num_tasks: Tasks replayed per column.
        batch_size: Number of duration columns replayed.
        metadata: Default metadata attached to materialized columns.
    """

    def __init__(self, *, structure: GraphStructure, makespans: np.ndarray,
                 finish_matrix: np.ndarray, durations_matrix: np.ndarray,
                 metadata: dict) -> None:
        self._structure = structure
        self._durations = durations_matrix
        self._finish = finish_matrix
        self._device_timeline: np.ndarray | None = None
        self.makespans = makespans
        self.num_tasks = structure.num_tasks
        self.batch_size = int(durations_matrix.shape[1])
        self.metadata = metadata

    @property
    def device_timeline(self) -> np.ndarray:
        """Per-device final clocks, shape ``(num_devices, batch_size)``.

        Each value is the exact maximum of its device's finish times —
        the same quantity the scalar engine accumulates with
        ``np.maximum.at`` — computed here by one segmented fold over
        the device-sorted finish rows.
        """
        if self._device_timeline is None:
            plan = self._structure.batch_plan()
            timeline = np.zeros((self._structure.num_devices,
                                 self.batch_size), dtype=np.float64)
            if self.batch_size:
                timeline[plan.present_devices] = np.maximum.reduceat(
                    self._finish[plan.device_order], plan.device_seg,
                    axis=0)
            self._device_timeline = timeline
            self._finish = None  # free the (tasks x N) buffer
        return self._device_timeline

    def __len__(self) -> int:
        return self.batch_size

    def iteration_times(self) -> list[float]:
        """Per-column makespans as plain floats."""
        return self.makespans.tolist()

    def device_busy(self, column: int) -> dict[int, dict[str, float]]:
        """Busy accounting of one column (scalar engine's dict layout)."""
        return _busy_dict(self._structure,
                          np.ascontiguousarray(self._durations[:, column]))

    def column(self, column: int, *,
               metadata: dict | None = None) -> SimulationResult:
        """Materialize one column as a full :class:`SimulationResult`.

        Bit-identical to ``simulate_retimed(structure, matrix[:, column],
        metadata=metadata)`` field for field (no recorded timeline).
        """
        source = self.metadata if metadata is None else metadata
        return SimulationResult(
            iteration_time=float(self.makespans[column]),
            num_tasks=self.num_tasks,
            device_timeline=dict(enumerate(
                self.device_timeline[:, column].tolist())),
            device_busy=self.device_busy(column),
            events=None,
            metadata=dict(source))


def simulate_retimed_batch(structure: GraphStructure,
                           durations_matrix: "np.ndarray | list", *,
                           metadata: dict | None = None,
                           ) -> BatchSimulationResult:
    """Replay a compiled structure under N duration vectors in one pass.

    The batched core of the replay engine: one sweep over the
    structure's chunked schedule (:meth:`GraphStructure.batch_plan`)
    propagates all N columns' finish times together, so the graph walk
    — the scalar engine's per-task Python cost — is amortized across
    the whole batch. Design-space sweeps evaluating structure-affine
    candidate groups, the testbed emulator's perturbation samples, and
    alpha/noise ablations all feed dozens of timing vectors for one
    topology; batched replay keeps their per-vector cost near the
    memory-bandwidth floor (~10x scalar throughput at N=64 on the
    MT-NLG structure, gated in ``benchmarks/bench_sim_speed.py``).

    Every column is **bit-identical** to a scalar
    :func:`simulate_retimed` of that column: finishes are produced by
    the same single IEEE-754 addition, and all cross-task combination
    is through ``max``, which is exact and order-independent
    (property-enforced in ``tests/test_sim_batch.py``).

    Args:
        structure: Compiled topology.
        durations_matrix: ``(num_tasks, N)`` array of per-task durations
            in replay order, one column per replay. Any dtype/layout
            castable to float64 is accepted (float32, Fortran-ordered,
            strided views); ``N = 0`` yields an empty result.
        metadata: Default metadata for materialized columns (falls back
            to the structure's compile-time metadata).

    Raises:
        SimulationError: Empty structure, wrong-shape matrix, or
            negative durations.
    """
    num_tasks = structure.num_tasks
    if num_tasks == 0:
        raise SimulationError("cannot simulate an empty graph")
    matrix = np.ascontiguousarray(durations_matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != num_tasks:
        raise SimulationError(
            f"durations matrix has shape {matrix.shape}, expected "
            f"({num_tasks}, N) — one replay-order column per batched "
            "replay")
    if matrix.size and float(matrix.min()) < 0.0:
        raise SimulationError("durations must be non-negative")

    batch = matrix.shape[1]
    plan = structure.batch_plan()
    start = np.zeros((num_tasks, batch), dtype=np.float64)
    finish = np.empty((num_tasks, batch), dtype=np.float64)
    for a, b, src, seg, dst in plan.chunks:
        # All parents of [a, b) live in earlier chunks, so these starts
        # are final; finish rows use the same single addition as the
        # scalar hot loop.
        np.add(start[a:b], matrix[a:b], out=finish[a:b])
        if src is None:
            continue
        contribution = finish[src]
        if seg is not None:
            # Duplicate targets within the chunk: fold them first.
            contribution = np.maximum.reduceat(contribution, seg, axis=0)
        np.maximum(start[dst], contribution, out=contribution)
        start[dst] = contribution

    makespans = finish.max(axis=0) if batch else np.zeros(0)

    source = structure.metadata if metadata is None else metadata
    return BatchSimulationResult(structure=structure, makespans=makespans,
                                 finish_matrix=finish,
                                 durations_matrix=matrix,
                                 metadata=dict(source))


def simulate_reference(graph: ExecutionGraph, *,
                       record_timeline: bool = False) -> SimulationResult:
    """Reference Algorithm-1 implementation (per-task Python loop).

    Kept verbatim as the executable specification: the compiled engine
    (:func:`simulate` / :func:`simulate_retimed`) must be bit-identical
    to this on makespan, per-device timelines, busy accounting, and
    recorded event order (property-tested in
    ``tests/test_sim_equivalence.py``). Prefer :func:`simulate` for
    anything performance-sensitive.
    """
    nodes = graph.nodes
    num_tasks = len(nodes)
    if num_tasks == 0:
        raise SimulationError("cannot simulate an empty graph")

    ref = [node.num_parents for node in nodes]
    start = [0.0] * num_tasks
    queue: deque[int] = deque(node.task_id for node in nodes
                              if node.num_parents == 0)

    timeline: dict[int, float] = {device: 0.0
                                  for device in range(graph.num_devices)}
    busy: dict[int, dict[str, float]] = {
        device: {} for device in range(graph.num_devices)}
    events: list[TimelineEvent] | None = [] if record_timeline else None
    executed = 0
    makespan = 0.0

    while queue:
        task_id = queue.popleft()  # fetch a task in FIFO order
        node = nodes[task_id]
        task_start = start[task_id]
        finish = task_start + node.duration
        device_clock = timeline.get(node.device, 0.0)
        timeline[node.device] = max(device_clock, finish)
        makespan = max(makespan, finish)
        executed += 1

        device_busy = busy.setdefault(node.device, {})
        device_busy[node.kind] = device_busy.get(node.kind, 0.0) + node.duration
        if events is not None:
            events.append(TimelineEvent(task_id=task_id, device=node.device,
                                        stream=node.stream, kind=node.kind,
                                        label=node.label, start=task_start,
                                        finish=finish))

        for child in node.children:
            if start[child] < finish:
                start[child] = finish
            ref[child] -= 1
            if ref[child] == 0:
                queue.append(child)

    if executed != num_tasks:
        raise SimulationError(
            f"task graph deadlocked: {executed}/{num_tasks} tasks executed "
            "(dependency cycle)")

    return SimulationResult(iteration_time=makespan, num_tasks=num_tasks,
                            device_timeline=timeline, device_busy=busy,
                            events=events, metadata=dict(graph.metadata))


def critical_path_length(graph: ExecutionGraph) -> float:
    """Longest dependency chain (ignoring stream serialisation).

    A lower bound on the iteration time, useful as a simulation
    cross-check: ``critical_path <= simulate(...).iteration_time``.
    """
    nodes = graph.nodes
    finish = [0.0] * len(nodes)
    ref = [node.num_parents for node in nodes]
    queue: deque[int] = deque(graph.roots())
    visited = 0
    best = 0.0
    while queue:
        task_id = queue.popleft()
        node = nodes[task_id]
        end = finish[task_id] + node.duration
        best = max(best, end)
        visited += 1
        for child in node.children:
            if finish[child] < end:
                finish[child] = end
            ref[child] -= 1
            if ref[child] == 0:
                queue.append(child)
    if visited != len(nodes):
        raise SimulationError("graph has a cycle; critical path undefined")
    return best


def compute_idle_fraction(result: SimulationResult) -> float:
    """Average fraction of the iteration each device's compute sits idle.

    This is the pipeline-bubble + exposed-communication fraction the
    paper's utilization analysis turns into wasted dollars (Figure 1).
    """
    total = result.iteration_time
    if total <= 0:
        return 0.0
    fractions = []
    for device in sorted(result.device_busy):
        compute = sum(duration for kind, duration
                      in result.device_busy[device].items()
                      if kind in ("compute", "weight_update"))
        fractions.append(max(0.0, 1.0 - compute / total))
    if not fractions:
        return 0.0
    return sum(fractions) / len(fractions)


def stream_serialisation_check(graph: ExecutionGraph,
                               result: SimulationResult) -> bool:
    """Verify no two compute tasks of one device overlap in a recorded
    timeline — the invariant the chain edges are meant to guarantee."""
    if result.events is None:
        raise SimulationError("run simulate(record_timeline=True) first")
    by_device: dict[int, list[TimelineEvent]] = {}
    for event in result.events:
        if event.stream == COMPUTE_STREAM:
            by_device.setdefault(event.device, []).append(event)
    tolerance = 1e-12
    for device_events in by_device.values():
        device_events.sort(key=lambda e: e.start)
        for earlier, later in zip(device_events, device_events[1:]):
            if later.start < earlier.finish - tolerance:
                return False
    return True

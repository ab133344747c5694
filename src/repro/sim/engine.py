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

* :func:`simulate_retimed` — the scalar engine. A compiled
  :class:`~repro.graph.structure.GraphStructure` numbers its tasks in a
  topological order, and any topological order gives Algorithm 1's
  starts and finishes bit for bit: a start is the max of its parents'
  finishes, which is exact, and a finish is one addition. Replay is
  then one Python loop over the edges in position order — no dicts, no
  deque, no per-task object churn. No output follows Algorithm 1's own
  FIFO pop order: busy sums are added in position order when a busy
  dict is first read, and :class:`~repro.sim.results.TimelineEvent`
  objects, materialized only when ``record_timeline=True``, are listed
  in position order. Makespans, device timelines and every event's
  start and finish are bit-identical to the per-task reference loop
  kept in ``tests/graph_oracle.py`` (``tests/test_sim_equivalence.py``).
* :func:`simulate_retimed_batch` — level replay of N duration columns
  at once over the structure's chain-compressed
  :class:`~repro.graph.structure.LevelPlan`: one max-fold per level
  sets the chain heads' starts, one running sum per block of chains
  produces their finishes. Every column is bit-identical to a scalar
  replay of it (``tests/test_sim_batch.py``).

Neither engine mutates the structure, so one compiled structure can be
replayed with many duration vectors, which is what design-space sweeps
and perturbed-hardware studies exploit. :func:`use_batched_replay` is the
one rule choosing between the two engines for a group of columns that
share a structure: level replay pays once the columns hold
:data:`WIDTH` tasks per level, so wide structures (MT-NLG at OPERATOR
granularity, 399 tasks per level) take it even for one column, while
narrow ones stay on the scalar loop until enough columns share them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError
from repro.graph.structure import GraphStructure, PackedLevels
from repro.sim.results import DeviceBusy, SimulationResult, TimelineEvent

#: Tasks per level at which level replay beats the scalar loop: a level
#: sweep costs about 7-10 µs per level, the scalar loop about
#: 0.12-0.15 µs per edge per column, and builder graphs carry 1.1-1.4
#: edges per task. One column of a Megatron 7.5B OPERATOR structure
#: replays as fast either way at 56-64 tasks per level.
WIDTH = 64

#: Block width (chains x columns) from which a running sum goes row by
#: row: ``np.add.accumulate`` down axis 0 runs one inner loop per
#: column, a few ns per cell, while one row add costs about 1.5 µs
#: whatever its width. Both add in the same order.
_ROW_ADD_WIDTH = 256


def simulate_retimed(structure: GraphStructure,
                     durations: "np.ndarray | list[float] | None" = None, *,
                     record_timeline: bool = False,
                     metadata: dict | None = None) -> SimulationResult:
    """Replay a compiled structure under a given duration vector.

    This is the compiled engine's core: one pass over the positions
    propagating finish times through the CSR child arrays, then a
    vectorized reduction for the per-device timelines; busy accounting
    waits for its first read. Sweeps that only change task *timings*
    (micro-batch size re-timing, perturbed device/NCCL models, testbed
    noise) call this directly and skip graph construction entirely.

    Args:
        structure: Compiled topology
            (:meth:`~repro.graph.builder.GraphBuilder.compile`).
        durations: Per-task durations in *replay order* (as produced by
            :meth:`~repro.graph.builder.GraphBuilder.fill_durations`).
            Defaults to the structure's baseline durations.
        record_timeline: Materialize per-task TimelineEvents, one per
            position, in position order.
        metadata: Override the result metadata (defaults to the
            structure's compile-time metadata).

    Raises:
        SimulationError: Empty structure, wrong-length duration vector,
            or negative or non-finite durations.
    """
    num_tasks = structure.num_tasks
    if num_tasks == 0:
        raise SimulationError("cannot simulate an empty graph")
    # A copy: the busy dict reads it on first use, after the caller may
    # have reused its vector.
    durations_np = np.array(
        structure.duration if durations is None else durations,
        dtype=np.float64)
    if durations_np.shape != (num_tasks,):
        raise SimulationError(
            f"duration vector has {durations_np.shape} entries, "
            f"structure has {num_tasks} tasks")
    _check_durations(durations_np)
    duration_list = durations_np.tolist()

    # Hot loop: finish-time propagation over the flat edge lists, which
    # are grouped by parent in position order. Every parent of a task sits
    # at an earlier position, so its start is final before its first
    # outgoing edge; each edge recomputes the parent's finish with the
    # same single addition as the reference engine's queue loop.
    start = [0.0] * num_tasks
    parents, children = structure.edge_lists()
    for parent, child in zip(parents, children):
        finish = start[parent] + duration_list[parent]
        if start[child] < finish:
            start[child] = finish

    start_np = np.asarray(start, dtype=np.float64)
    finish_np = start_np + durations_np
    makespan = float(finish_np.max())
    num_devices = structure.num_devices
    timeline_np = np.zeros(num_devices, dtype=np.float64)
    np.maximum.at(timeline_np, structure.device, finish_np)
    timeline = dict(enumerate(timeline_np.tolist()))

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
                            device_timeline=timeline,
                            device_busy=DeviceBusy(structure, durations_np),
                            events=events, metadata=dict(source))


def _check_durations(durations: np.ndarray) -> None:
    """Reject negative and non-finite durations.

    A NaN would make the engines disagree (the scalar loop's ``<``
    skips it, ``np.maximum`` propagates it), so both reject it.
    """
    if durations.size:
        low = float(durations.min())
        high = float(durations.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise SimulationError("durations must be finite")
        if low < 0.0:
            raise SimulationError("durations must be non-negative")


def use_batched_replay(structure: GraphStructure, columns: int, *,
                       record_timeline: bool = False) -> bool:
    """Whether ``columns`` replays of ``structure`` take one
    :func:`simulate_retimed_batch` sweep rather than one scalar
    :func:`simulate_retimed` loop each.

    The one engine rule, for every caller that holds a group of
    duration columns sharing a structure: level replay when the columns
    hold at least :data:`WIDTH` tasks per level
    (``columns * tasks >= WIDTH * levels``), the scalar loop otherwise
    and whenever a timeline is recorded (only the scalar engine records
    events). Reads the level count only, so a structure the rule sends
    to the scalar loop never builds its packed layout.
    """
    if record_timeline:
        return False
    return (columns * structure.num_tasks
            >= WIDTH * structure.level_plan().num_levels)


class BatchSimulationResult:
    """Output of one batched replay: N columns, one result each.

    ``makespans[j]`` is bit-identical to
    ``simulate_retimed(structure, durations_matrix[:, j]).iteration_time``
    — the level sweep performs the same IEEE-754 operations as the
    scalar engine, only grouped across chains and columns (see
    :class:`~repro.graph.structure.LevelPlan`). Full per-column
    :class:`SimulationResult` objects (timeline and busy dicts in the
    scalar engine's exact layout) are materialized on demand via
    :meth:`column`, so makespan-only consumers — DSE objective sweeps,
    throughput benches — never pay for N dict constructions. The device
    timeline matrix is likewise computed lazily on first access (it
    needs a full gather of the finish cells) and the packed cells are
    released afterwards.

    Attributes:
        makespans: Per-column iteration times, shape ``(batch_size,)``.
        num_tasks: Tasks replayed per column.
        batch_size: Number of duration columns replayed.
        metadata: Default metadata attached to materialized columns.
    """

    def __init__(self, *, structure: GraphStructure, makespans: np.ndarray,
                 cells: np.ndarray | None, durations_matrix: np.ndarray,
                 metadata: dict) -> None:
        self._structure = structure
        self._durations = durations_matrix
        self._cells = cells
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
        the device-grouped finish cells.
        """
        if self._device_timeline is None:
            timeline = np.zeros((self._structure.num_devices,
                                 self.batch_size), dtype=np.float64)
            if self.batch_size:
                packed = self._structure.level_plan().packed()
                timeline[packed.present_devices] = np.maximum.reduceat(
                    np.take(self._cells, packed.device_cells, axis=0),
                    packed.device_seg, axis=0)
            self._device_timeline = timeline
            self._cells = None  # free the (cells x N) buffer
        return self._device_timeline

    def __len__(self) -> int:
        return self.batch_size

    def iteration_times(self) -> list[float]:
        """Per-column makespans as plain floats."""
        return self.makespans.tolist()

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
            device_busy=DeviceBusy(
                self._structure,
                np.ascontiguousarray(self._durations[:, column])),
            events=None,
            metadata=dict(source))


def simulate_retimed_batch(structure: GraphStructure,
                           durations_matrix: "np.ndarray | list", *,
                           metadata: dict | None = None,
                           ) -> BatchSimulationResult:
    """Replay a compiled structure under N duration columns in one sweep.

    Level replay over the structure's
    :class:`~repro.graph.structure.LevelPlan`: the durations are packed
    into cells, one row of N columns per cell, and each level then

    1. gathers the finishes of its heads' cross-chain parents,
    2. folds them with ``np.maximum.reduceat`` where a head has several,
    3. writes them into the head-start cells, and
    4. adds down each of its blocks of chains: one ``np.add.accumulate``
       per block, or one add per row for blocks wider than
       ``_ROW_ADD_WIDTH`` cells.

    The graph walk — the scalar engine's per-edge Python cost — becomes
    a few numpy calls per level, shared by all N columns. On the MT-NLG
    (8, 8, 35) OPERATOR structure one column replays in about a fifth
    of the scalar loop's time, and N=64 columns keep the per-column cost
    gated in ``benchmarks/bench_sim_speed.py``.
    :func:`use_batched_replay` decides when this beats the scalar loop.

    Every column is **bit-identical** to a scalar
    :func:`simulate_retimed` of that column: a chain's running sum
    repeats the scalar loop's additions in its order, and every
    cross-chain combination is a ``max``, which is exact and
    order-independent (property-enforced in ``tests/test_sim_batch.py``).

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
            negative or non-finite durations.
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
    _check_durations(matrix)

    cells = None
    makespans = np.zeros(0)
    if matrix.shape[1]:
        cells = _level_sweep(structure.level_plan().packed(), matrix)
        # Head-start cells never exceed their chain's finishes, so the
        # maximum over all cells is the maximum finish.
        makespans = cells.max(axis=0)

    source = structure.metadata if metadata is None else metadata
    return BatchSimulationResult(structure=structure, makespans=makespans,
                                 cells=cells, durations_matrix=matrix,
                                 metadata=dict(source))


def _level_sweep(packed: PackedLevels, matrix: np.ndarray) -> np.ndarray:
    """Every task's finish, in its packed cell, for each column of
    ``matrix``."""
    cells = np.take(matrix, packed.cell_task, axis=0)
    cells[packed.root_cells] = 0.0
    edge_cell = packed.edge_cell
    head_seg = packed.head_seg
    head_cell = packed.head_cell
    edge_ptr = packed.edge_ptr.tolist()
    head_ptr = packed.head_ptr.tolist()
    block_ptr = packed.block_ptr.tolist()
    block_cell = packed.block_cell.tolist()
    block_rows = packed.block_rows.tolist()
    for level in range(packed.num_levels):
        # Every head's cross parents sit in earlier levels, so their
        # finishes are final.
        first, last = edge_ptr[level], edge_ptr[level + 1]
        if first < last:
            low, high = head_ptr[level], head_ptr[level + 1]
            finish = np.take(cells, edge_cell[first:last], axis=0)
            if high - low < last - first:
                finish = np.maximum.reduceat(finish, head_seg[low:high],
                                             axis=0)
            cells[head_cell[low:high]] = finish
        for block in range(block_ptr[level], block_ptr[level + 1]):
            rows = cells[block_cell[block]:block_cell[block + 1]].reshape(
                block_rows[block], -1)
            if rows.shape[1] < _ROW_ADD_WIDTH:
                np.add.accumulate(rows, axis=0, out=rows)
            else:
                for row in range(1, rows.shape[0]):
                    np.add(rows[row - 1], rows[row], out=rows[row])
    return cells


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

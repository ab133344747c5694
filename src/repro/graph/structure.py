"""Execution-graph data structures shared by all granularities.

An :class:`ExecutionGraph` is a DAG of :class:`TaskNode` objects. Nodes
carry a device (a logical pipeline stage), a stream (``compute`` or
``comm`` — modelling CUDA streams so DP All-Reduce can overlap backward
compute, Figure 5a), a duration, and a kind tag used for time-breakdown
reporting. Edges encode both data dependencies and the paper's explicit
intra-GPU execution-order constraints (Section III-B).

The structure is deliberately lightweight (plain lists, integer node ids)
because Figure-10-scale design-space sweeps simulate hundreds of graphs;
:meth:`ExecutionGraph.to_networkx` exports to networkx for analysis and
tests.

**Structure/timing split.** A :class:`GraphStructure` is the *compiled*
form of an execution graph: every per-task attribute flattened into
CSR-style arrays, renumbered into the replay order Algorithm 1's FIFO
queue would visit (which is purely structural — task durations never
influence it), with the per-task duration vector kept separate. Replays
become a single array pass (:func:`repro.sim.engine.simulate_retimed`),
and because the topology is immutable, one compiled structure can be
re-timed with fresh duration vectors — a perturbed device model, a new
NCCL table, a different tensor-parallel degree with the same shape —
without rebuilding or re-sorting anything.

Structures are compiled from per-task *arrays*: either flattened from an
:class:`ExecutionGraph` (:meth:`GraphStructure.compile`, the test-oracle
path) or tiled directly from chunk templates by
:meth:`repro.graph.builder.GraphBuilder.compile`, which never builds
node objects or per-task lists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.errors import SimulationError

COMPUTE_STREAM = "compute"
COMM_STREAM = "comm"

#: Node kind tags (drive the per-category time breakdown).
KIND_COMPUTE = "compute"
KIND_TP_COMM = "tp_allreduce"
KIND_DP_COMM = "dp_allreduce"
KIND_PP_COMM = "pp_sendrecv"
KIND_WEIGHT_UPDATE = "weight_update"

ALL_KINDS = (KIND_COMPUTE, KIND_TP_COMM, KIND_DP_COMM, KIND_PP_COMM,
             KIND_WEIGHT_UPDATE)


@dataclass
class TaskNode:
    """One schedulable unit of work (a task in Algorithm 1).

    Attributes:
        task_id: Index of this node in the graph's node list.
        device: Logical device (pipeline-stage index) executing the task.
        stream: ``compute`` or ``comm`` stream on that device.
        duration: Execution latency in seconds.
        kind: Category tag (see module constants).
        label: Human-readable name for traces and debugging.
        children: Task ids that depend on this task.
        num_parents: In-degree (Algorithm 1's initial ``ref`` count).
    """

    task_id: int
    device: int
    stream: str
    duration: float
    kind: str
    label: str
    children: list[int] = field(default_factory=list)
    num_parents: int = 0


class GraphAssembler:
    """Incrementally builds an :class:`ExecutionGraph`.

    Tracks the tail of every (device, stream) chain so consecutive tasks
    on one stream serialise via explicit edges — the paper's "execution
    order within each GPU must be modeled" requirement. This per-task
    path is the reference the builder's tiled
    :meth:`~repro.graph.builder.GraphBuilder.compile` is tested against.
    """

    def __init__(self) -> None:
        self.nodes: list[TaskNode] = []
        self.slots: list[str | None] = []
        self._chain_tail: dict[tuple[int, str], int] = {}

    def add(self, device: int, stream: str, duration: float, kind: str,
            label: str, *, deps: Iterable[int] = (), chain: bool = True,
            slot: str | None = None) -> int:
        """Append a task; returns its id.

        Args:
            deps: Explicit extra dependencies (cross-device or
                cross-stream edges).
            chain: Serialise after the previous task on this
                (device, stream) pair.
            slot: Optional timing-slot key naming the duration's source,
                so a compiled :class:`GraphStructure` can re-derive the
                duration vector from a fresh timing table
                (:meth:`GraphStructure.retime`).
        """
        if duration < 0:
            raise SimulationError(f"negative duration for task {label!r}")
        task_id = len(self.nodes)
        self.nodes.append(TaskNode(task_id=task_id, device=device,
                                   stream=stream, duration=duration,
                                   kind=kind, label=label))
        self.slots.append(slot)
        parents: set[int] = set(deps)
        if chain:
            tail = self._chain_tail.get((device, stream))
            if tail is not None:
                parents.add(tail)
            self._chain_tail[(device, stream)] = task_id
        for parent in parents:
            self.link(parent, task_id)
        return task_id

    def chain_tail(self, device: int, stream: str) -> int | None:
        """Latest task id on a stream, or None if the stream is empty."""
        return self._chain_tail.get((device, stream))

    def link(self, parent: int, child: int) -> None:
        """Add a dependency edge parent -> child."""
        if parent == child:
            raise SimulationError("a task cannot depend on itself")
        self.nodes[parent].children.append(child)
        self.nodes[child].num_parents += 1

    def finish(self, num_devices: int,
               metadata: dict[str, Any] | None = None) -> "ExecutionGraph":
        """Freeze the assembled nodes into an ExecutionGraph."""
        return ExecutionGraph(nodes=self.nodes, num_devices=num_devices,
                              metadata=dict(metadata or {}),
                              slots=self.slots)


def _replay_order(task_ptr: np.ndarray, child: np.ndarray,
                  indegree: np.ndarray) -> list[int]:
    """Kahn's algorithm with a FIFO queue — the exact pop order of the
    reference engine's Algorithm-1 loop, which is purely structural.

    Children of task ``t`` are ``child[task_ptr[t]:task_ptr[t + 1]]`` in
    insertion order. The returned list doubles as the queue: a FIFO
    queue's pops are exactly its pushes, in push order.
    """
    ref = indegree.tolist()
    ptr = task_ptr.tolist()
    children = child.tolist()
    order = np.flatnonzero(indegree == 0).tolist()
    push = order.append
    for task in order:
        lo = ptr[task]
        hi = ptr[task + 1]
        if hi - lo == 1:  # most tasks: one child, no slice needed
            kid = children[lo]
            remaining = ref[kid] - 1
            ref[kid] = remaining
            if not remaining:
                push(kid)
            continue
        for kid in children[lo:hi]:
            remaining = ref[kid] - 1
            ref[kid] = remaining
            if not remaining:
                push(kid)
    return order


def _by_first_appearance(codes: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``codes`` (all in ``range(size)``), in
    order of first appearance."""
    first = np.full(size, codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size, dtype=np.intp))
    present = np.flatnonzero(first < codes.size)
    return present[np.argsort(first[present], kind="stable")]


def _first_appearance(codes: np.ndarray,
                      table: Sequence[Any]) -> tuple[np.ndarray, tuple]:
    """Renumber ``codes`` (indices into ``table``) by first appearance.

    Returns the renumbered codes and the used table entries in that
    order, so the result is independent of how ``table`` was ordered.
    """
    ranked = _by_first_appearance(codes, len(table))
    remap = np.zeros(len(table), dtype=np.intp)
    remap[ranked] = np.arange(ranked.size, dtype=np.intp)
    return remap[codes], tuple(table[code] for code in ranked.tolist())


@dataclass
class ExecutionGraph:
    """A frozen task DAG ready for Algorithm-1 replay."""

    nodes: list[TaskNode]
    num_devices: int
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Timing-slot key per node as the assembler recorded it (pass to
    #: :meth:`GraphStructure.compile` for a retimeable structure).
    slots: list[str | None] | None = field(default=None, repr=False,
                                           compare=False)
    _compiled: "GraphStructure | None" = field(default=None, init=False,
                                               repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_devices < 0:
            raise SimulationError("num_devices must be non-negative")
        for node in self.nodes:
            if not 0 <= node.device < self.num_devices:
                raise SimulationError(
                    f"task {node.task_id} ({node.label!r}) runs on device "
                    f"{node.device}, outside the graph's "
                    f"{self.num_devices} devices")

    def __len__(self) -> int:
        return len(self.nodes)

    def compiled(self) -> "GraphStructure":
        """The compiled replay form of this graph (built once, memoized).

        Memoization freezes the *topology* at the first call — edges
        added afterwards are not seen by later replays. Durations are
        not frozen: :func:`~repro.sim.engine.simulate` re-reads them
        from the nodes on every call, so mutating ``node.duration``
        between replays (sensitivity studies) behaves exactly like the
        reference engine.

        Raises:
            SimulationError: If the graph contains a dependency cycle.
        """
        if self._compiled is None:
            self._compiled = GraphStructure.compile(self)
        return self._compiled

    @property
    def num_edges(self) -> int:
        """Total dependency-edge count."""
        return sum(len(node.children) for node in self.nodes)

    def roots(self) -> list[int]:
        """Tasks with no dependencies (Algorithm 1's initial queue)."""
        return [node.task_id for node in self.nodes if node.num_parents == 0]

    def total_duration_by_kind(self) -> dict[str, float]:
        """Sum of task durations per kind tag (all devices)."""
        totals = {kind: 0.0 for kind in ALL_KINDS}
        for node in self.nodes:
            totals[node.kind] = totals.get(node.kind, 0.0) + node.duration
        return totals

    def device_durations(self) -> dict[int, float]:
        """Sum of task durations per device (busy-time upper bound)."""
        totals: dict[int, float] = {}
        for node in self.nodes:
            totals[node.device] = totals.get(node.device, 0.0) + node.duration
        return totals

    def validate_acyclic(self) -> None:
        """Raise :class:`SimulationError` if the graph has a cycle."""
        indegree = [node.num_parents for node in self.nodes]
        stack = [i for i, deg in enumerate(indegree) if deg == 0]
        visited = 0
        while stack:
            current = stack.pop()
            visited += 1
            for child in self.nodes[current].children:
                indegree[child] -= 1
                if indegree[child] == 0:
                    stack.append(child)
        if visited != len(self.nodes):
            raise SimulationError(
                f"execution graph has a cycle ({visited}/{len(self.nodes)} "
                "tasks reachable)")

    def to_networkx(self) -> nx.DiGraph:
        """Export to a networkx DiGraph (tests and analysis)."""
        graph = nx.DiGraph()
        for node in self.nodes:
            graph.add_node(node.task_id, device=node.device,
                           stream=node.stream, duration=node.duration,
                           kind=node.kind, label=node.label)
        for node in self.nodes:
            for child in node.children:
                graph.add_edge(node.task_id, child)
        return graph


class GraphStructure:
    """Immutable compiled topology of an execution graph.

    Tasks are renumbered into *replay order* — the exact order
    Algorithm 1's FIFO queue pops them (Kahn's algorithm with a FIFO
    queue seeded in node order), which depends only on the edge
    structure, never on durations. Every per-task attribute is a flat
    array indexed by replay position, and children are stored CSR-style
    (``child_ptr``/``child_idx``), so the replay engine touches no
    dicts, deques, or node objects.

    The constructor is the one compile path: it takes per-task columns
    in original task order — from :meth:`compile` (an
    :class:`ExecutionGraph`) or from the builder's tiled
    :meth:`~repro.graph.builder.GraphBuilder.compile` — runs the FIFO
    pass, and permutes everything with array operations.

    The baseline ``duration`` vector captured at compile time is one
    valid timing; :meth:`retime` derives fresh vectors from a timing
    table via the per-task ``slot`` keys the builder recorded, which is
    what makes retime-without-rebuild sweeps possible.

    A structure the builder compiles is a function of its
    :class:`~repro.graph.builder.StructureKey`, except for ``duration``
    and ``metadata``: only those come from the build that compiled it.
    On a structure served from the process-wide cache, take both from
    the plan's own builder, and resolve any other per-plan value (e.g.
    ``GraphBuilder.slot_kernel_counts``) through ``slot_keys``.

    Attributes:
        num_tasks / num_devices / num_edges: Sizes.
        task_id: Original task id at each replay position (``intp``).
        device: Executing device per position (``intp``).
        kinds: Distinct kind tags, in first-appearance order.
        kind_index: Index into ``kinds`` per position (``intp``).
        child_ptr / child_idx: CSR adjacency over replay positions —
            children of position ``k`` are
            ``child_idx[child_ptr[k]:child_ptr[k + 1]]``.
        duration: Baseline durations per position (``float64``,
            read-only).
        stream / label: Per-position tuples, materialized on first
            access (only timelines, traces, and the testbed read them).
        slot_keys: Distinct timing-slot keys in first-appearance order,
            or ``None`` when the source recorded no slots.
        slot_index: Index into ``slot_keys`` per position, or ``None``.
        metadata: The source graph's metadata (replays may override).
    """

    def __init__(self, *, num_devices: int, device: np.ndarray,
                 kinds: Sequence[str], kind: np.ndarray,
                 src: np.ndarray, dst: np.ndarray, duration: np.ndarray,
                 slot_keys: Sequence[str] | None, slot: np.ndarray | None,
                 stream: Sequence[str] | Mapping[str, str],
                 label: Sequence[str] | Callable[[], Sequence[str]],
                 metadata: dict[str, Any]) -> None:
        """Compile per-task columns (original task order) into replay
        order.

        Args:
            device / kind / duration / slot: Per-task arrays; ``kind``
                and ``slot`` index into ``kinds`` and ``slot_keys``.
            src / dst: Every dependency edge, grouped by parent in
                ascending task id and, within a parent, in the order its
                children were linked (that order decides the FIFO
                replay order).
            stream: Per-task streams, or a per-slot mapping from slot
                key to stream.
            label: Per-task labels, or a zero-argument callable
                producing them on first use.

        Raises:
            SimulationError: A device out of range, or a dependency
                cycle (reported with the reference engine's deadlock
                message).
        """
        num_tasks = len(device)
        self.num_tasks = num_tasks
        self.num_devices = num_devices
        self.metadata = metadata
        self._sources = {"stream": stream, "label": label}
        self._columns: dict[str, tuple] = {}
        outside = np.flatnonzero((device < 0) | (device >= num_devices))
        if outside.size:
            task = int(outside[0])
            labels = label() if callable(label) else label
            raise SimulationError(
                f"task {task} ({labels[task]!r}) runs on device "
                f"{int(device[task])}, outside the graph's {num_devices} "
                "devices")

        counts = np.bincount(src, minlength=num_tasks)
        task_ptr = np.zeros(num_tasks + 1, dtype=np.intp)
        np.cumsum(counts, out=task_ptr[1:])
        order = _replay_order(task_ptr, dst,
                              np.bincount(dst, minlength=num_tasks))
        if len(order) != num_tasks:
            raise SimulationError(
                f"task graph deadlocked: {len(order)}/{num_tasks} tasks "
                "executed (dependency cycle)")
        task_id = np.fromiter(order, dtype=np.intp, count=num_tasks)
        position = np.empty(num_tasks, dtype=np.intp)
        position[task_id] = np.arange(num_tasks, dtype=np.intp)
        self.task_id = task_id

        # CSR over replay positions: row k is task_id[k]'s child run,
        # gathered whole and renumbered into positions.
        row_counts = counts[task_id]
        child_ptr = np.zeros(num_tasks + 1, dtype=np.intp)
        np.cumsum(row_counts, out=child_ptr[1:])
        num_edges = int(child_ptr[-1])
        gather = (np.repeat(task_ptr[:-1][task_id] - child_ptr[:-1],
                            row_counts)
                  + np.arange(num_edges, dtype=np.intp))
        self.child_ptr = child_ptr
        self.child_idx = position[dst[gather]]
        self.num_edges = num_edges

        self.device = device[task_id].astype(np.intp, copy=False)
        self.kind_index, self.kinds = _first_appearance(kind[task_id], kinds)
        self.duration = np.asarray(duration, dtype=np.float64)[task_id]
        self.duration.setflags(write=False)
        if slot is None or slot_keys is None:
            self.slot_index = None
            self.slot_keys = None
        else:
            self.slot_index, self.slot_keys = _first_appearance(
                slot[task_id], slot_keys)
        # Flat (device, kind) bucket per position for one-pass busy
        # accounting; device_kind_order lists each device's kinds in
        # first-appearance order so replay results reproduce the
        # reference engine's dict layout.
        num_kinds = len(self.kinds)
        self.busy_index = self.device * num_kinds + self.kind_index
        kind_order: list[list[int]] = [[] for _ in range(num_devices)]
        for bucket in _by_first_appearance(
                self.busy_index, num_devices * num_kinds).tolist():
            kind_order[bucket // num_kinds].append(bucket % num_kinds)
        self.device_kind_order = tuple(tuple(kinds_) for kinds_ in kind_order)
        self._batch_plan: BatchSweepPlan | None = None
        self._edge_lists: tuple[list[int], list[int]] | None = None
        self._digest: str | None = None

    @classmethod
    def compile(cls, graph: ExecutionGraph,
                slots: list[str | None] | None = None) -> "GraphStructure":
        """Flatten ``graph`` into its compiled replay form.

        Args:
            slots: Per-task timing-slot keys in *original* task order
                (from :attr:`GraphAssembler.slots`); omit (or include
                any ``None``) to compile a structure that replays but
                cannot :meth:`retime` by slot.

        Raises:
            SimulationError: If the graph contains a dependency cycle
                (reported with the reference engine's deadlock message).
        """
        nodes = graph.nodes
        num_tasks = len(nodes)
        kind_of: dict[str, int] = {}
        kind = np.fromiter((kind_of.setdefault(node.kind, len(kind_of))
                            for node in nodes), dtype=np.intp,
                           count=num_tasks)
        counts = np.fromiter((len(node.children) for node in nodes),
                             dtype=np.intp, count=num_tasks)
        dst = np.fromiter((child for node in nodes
                           for child in node.children),
                          dtype=np.intp, count=int(counts.sum()))
        slot_keys = slot = None
        if (slots is not None and len(slots) == num_tasks
                and None not in slots):
            slot_of: dict[str, int] = {}
            slot = np.fromiter((slot_of.setdefault(key, len(slot_of))
                                for key in slots), dtype=np.intp,
                               count=num_tasks)
            slot_keys = tuple(slot_of)
        return cls(
            num_devices=graph.num_devices,
            device=np.fromiter((node.device for node in nodes),
                               dtype=np.intp, count=num_tasks),
            kinds=tuple(kind_of), kind=kind,
            src=np.repeat(np.arange(num_tasks, dtype=np.intp), counts),
            dst=dst,
            duration=np.fromiter((node.duration for node in nodes),
                                 dtype=np.float64, count=num_tasks),
            slot_keys=slot_keys, slot=slot,
            stream=[node.stream for node in nodes],
            label=[node.label for node in nodes],
            metadata=dict(graph.metadata))

    def _column(self, name: str) -> tuple:
        """One per-position attribute column, materialized on first use."""
        column = self._columns.get(name)
        if column is None:
            source = self._sources[name]
            if isinstance(source, Mapping):
                table = [source[key] for key in self.slot_keys]
                column = tuple(map(table.__getitem__,
                                   self.slot_index.tolist()))
            else:
                if callable(source):
                    source = source()
                column = tuple(map(source.__getitem__,
                                   self.task_id.tolist()))
            self._columns[name] = column
        return column

    @property
    def stream(self) -> tuple[str, ...]:
        """Stream per replay position."""
        return self._column("stream")

    @property
    def label(self) -> tuple[str, ...]:
        """Task label per replay position."""
        return self._column("label")

    def edge_lists(self) -> tuple[list[int], list[int]]:
        """Every edge as flat ``(parent, child)`` replay-position lists,
        grouped by parent in replay order (memoized; the scalar replay
        loop walks these instead of per-task child lists)."""
        if self._edge_lists is None:
            parents = np.repeat(np.arange(self.num_tasks, dtype=np.intp),
                                np.diff(self.child_ptr))
            self._edge_lists = (parents.tolist(), self.child_idx.tolist())
        return self._edge_lists

    def digest(self) -> str:
        """SHA-256 of the topology: CSR adjacency plus the device, kind,
        and slot-key columns, all in replay order (memoized).

        Durations and labels are excluded, so two builds with equal
        structure keys must have equal digests — the check that the
        structure cache never serves a wrong topology.
        """
        if self._digest is None:
            sha = hashlib.sha256(json.dumps(
                [self.num_tasks, self.num_devices, list(self.kinds),
                 None if self.slot_keys is None else list(self.slot_keys)]
            ).encode())
            for array in (self.child_ptr, self.child_idx, self.device,
                          self.kind_index, self.slot_index):
                if array is not None:
                    sha.update(array.astype("<i8").tobytes())
            self._digest = sha.hexdigest()
        return self._digest

    def retime(self, timings: Mapping[str, float]) -> np.ndarray:
        """Duration vector (replay order) from a fresh timing table.

        Args:
            timings: Slot key -> duration in seconds. Must cover every
                slot key this structure references.

        Raises:
            SimulationError: If the structure was compiled without slot
                keys, or ``timings`` is missing one of them.
        """
        if self.slot_keys is None or self.slot_index is None:
            raise SimulationError(
                "structure was compiled without timing slots; "
                "pass an explicit duration vector instead")
        try:
            values = [timings[key] for key in self.slot_keys]
        except KeyError as exc:
            raise SimulationError(
                f"timing table is missing slot {exc.args[0]!r}; the "
                "structure does not match this builder") from exc
        return np.asarray(values, dtype=np.float64)[self.slot_index]

    def batch_plan(self) -> "BatchSweepPlan":
        """The vectorized-sweep schedule for this structure (memoized).

        Built once per structure (it is purely structural, like the
        replay order) and reused by every
        :func:`~repro.sim.engine.simulate_retimed_batch` call, so
        sweeps over many duration matrices amortize its cost the same
        way they amortize compilation.
        """
        if self._batch_plan is None:
            self._batch_plan = BatchSweepPlan(self)
        return self._batch_plan


class BatchSweepPlan:
    """Precomputed schedule for batched finish-time propagation.

    The scalar replay visits positions one at a time; the batched
    engine instead visits *chunks* ``[a, b)`` of consecutive replay
    positions chosen so that no edge lands inside its own chunk. Every
    parent of a chunk's positions therefore lies in an earlier chunk,
    which means all starts in ``[a, b)`` are final when the chunk is
    entered and the whole chunk's finish rows — one row of N batch
    columns per position — can be computed in one vectorized operation.

    Chunk boundaries are purely structural: a chunk extends while the
    next position is smaller than the minimum child position seen so
    far (children always sit at later replay positions). Chain-heavy
    builder graphs yield chunks of roughly one task per concurrently
    runnable stream, a few dozen positions on MT-NLG-scale graphs.

    Per chunk, the outgoing edges are pre-sorted by child so duplicate
    targets (a task with several parents in one chunk) collapse through
    one ``maximum.reduceat`` segment pass; chunks whose targets are
    already unique — the overwhelming majority — skip the segment pass
    entirely. Because ``max`` is exact and order-independent and each
    finish is produced by the same single IEEE-754 addition as the
    scalar engine, the batched sweep is bit-identical column-for-column
    to :func:`~repro.sim.engine.simulate_retimed`.

    Attributes:
        chunks: ``(a, b, src, seg, dst)`` tuples — ``src`` is ``None``
            for chunks with no outgoing edges; ``seg`` is ``None`` when
            ``dst`` holds unique targets (then ``src``/``dst`` pair up
            edge by edge), else ``seg`` holds ``reduceat`` segment
            starts into ``src`` and ``dst`` holds one target per
            segment.
        device_order: Replay positions stably sorted by device.
        device_seg: ``reduceat`` segment starts into ``device_order``,
            one per present device.
        present_devices: Device id of each segment (devices with no
            tasks keep their zero timeline, as in the scalar engine).
    """

    def __init__(self, structure: GraphStructure) -> None:
        num_tasks = structure.num_tasks
        child_ptr = structure.child_ptr
        child_idx = structure.child_idx
        counts = np.diff(child_ptr)
        min_child = np.full(num_tasks, num_tasks + 1, dtype=np.intp)
        has_children = counts > 0
        if has_children.any():
            min_child[has_children] = np.minimum.reduceat(
                child_idx, child_ptr[:-1][has_children])
        bounds = [0]
        limit = num_tasks + 1
        for position in range(num_tasks):
            if position >= limit:
                bounds.append(position)
                limit = num_tasks + 1
            earliest = min_child[position]
            if earliest < limit:
                limit = earliest
        bounds.append(num_tasks)

        chunks: list[tuple[int, int, np.ndarray | None,
                           np.ndarray | None, np.ndarray | None]] = []
        for a, b in zip(bounds, bounds[1:]):
            dst = child_idx[child_ptr[a]:child_ptr[b]]
            if dst.size == 0:
                chunks.append((a, b, None, None, None))
                continue
            src = np.repeat(np.arange(a, b, dtype=np.intp), counts[a:b])
            order = np.argsort(dst, kind="stable")
            dst = dst[order]
            src = src[order]
            if dst.size == 1 or bool(np.all(dst[1:] != dst[:-1])):
                chunks.append((a, b, src, None, dst))
            else:
                seg = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
                chunks.append((a, b, src, seg, dst[seg]))
        self.chunks = chunks

        self.device_order = np.argsort(structure.device, kind="stable")
        devices = structure.device[self.device_order]
        if num_tasks:
            self.device_seg = np.flatnonzero(
                np.r_[True, devices[1:] != devices[:-1]])
            self.present_devices = devices[self.device_seg]
        else:
            self.device_seg = np.zeros(0, dtype=np.intp)
            self.present_devices = np.zeros(0, dtype=np.intp)

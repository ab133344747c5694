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
        self._level_plan: LevelPlan | None = None
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

    def level_plan(self) -> "LevelPlan":
        """The chain-compressed level schedule of this structure
        (memoized).

        Purely structural, like the replay order, so every
        :func:`~repro.sim.engine.simulate_retimed_batch` call on this
        structure reuses it. Its level count is computed here; the cell
        layout a sweep runs on is built on the first
        :meth:`LevelPlan.packed` call, so structures that only ever
        replay on the scalar loop never build it.
        """
        if self._level_plan is None:
            self._level_plan = LevelPlan(self)
        return self._level_plan


class LevelPlan:
    """Chain-compressed level schedule for batched replay.

    A *chain* is a maximal path whose inner edges each run from a task
    with one child to a task with one parent. Such a task starts exactly
    when its one parent finishes, so a chain replays as one running sum
    ``head start + d0 + d1 + ...`` — the scalar loop's additions, in its
    order. Every other edge is a *cross* edge: it leaves a chain's tail
    and enters another chain's head, whose start is the maximum of its
    cross parents' finishes. A chain's *level* is one more than the
    highest level among its cross parents (0 without any), so a level's
    heads depend only on earlier levels.

    Construction finds the chains and their as-soon-as-possible levels
    (enough for :func:`~repro.sim.engine.use_batched_replay` to weigh
    the level count); :meth:`packed` lays the chains out for the sweep.
    On MT-NLG (8, 8, 35) at OPERATOR granularity, 186,375 of 235,650
    edges lie inside chains, leaving 32,885 chains in 1,180 levels.

    Attributes:
        num_levels: Number of levels (0 for an empty structure).
        num_chains: Number of chains.
    """

    def __init__(self, structure: GraphStructure) -> None:
        # Keep the columns packing needs, not the structure: a reference
        # back to it would be a cycle, leaving an evicted structure to
        # the cyclic collector.
        self._device = structure.device
        self._num_devices = structure.num_devices
        num_tasks = structure.num_tasks
        child_ptr = structure.child_ptr
        child_idx = structure.child_idx
        # 1. Degrees and the in-chain edge mask (edges in CSR order).
        out_degree = np.diff(child_ptr)
        in_degree = np.bincount(child_idx, minlength=num_tasks)
        parent = np.repeat(np.arange(num_tasks, dtype=np.intp), out_degree)
        inner = (out_degree[parent] == 1) & (in_degree[child_idx] == 1)
        # 2. Chain heads and ranks by pointer jumping: ``head`` starts as
        # each task's in-chain parent (itself at a head) and ``rank`` as
        # the distance to it; each round doubles the distance covered,
        # until every pointer reaches a head (rank 0).
        head = np.arange(num_tasks, dtype=np.intp)
        head[child_idx[inner]] = parent[inner]
        rank = (head != np.arange(num_tasks)).astype(np.intp)
        while True:
            step = rank[head]
            if not step.any():
                break
            rank += step
            head = head[head]
        heads = np.flatnonzero(rank == 0)
        chain_of = np.empty(num_tasks, dtype=np.intp)
        chain_of[heads] = np.arange(heads.size, dtype=np.intp)
        # 3. As-soon-as-possible levels. Edges come grouped by parent in
        # replay order, and every edge into a chain (at its head) leaves
        # an earlier position than any edge out of it (at its tail), so
        # a chain's level is final before its first outgoing edge.
        cross = ~inner
        self._cross_parent = parent[cross]
        self._cross_target = chain_of[child_idx[cross]]
        self._chain = chain_of[head]
        self._rank = rank
        level = [0] * heads.size
        for source, target in zip(self._chain[self._cross_parent].tolist(),
                                  self._cross_target.tolist()):
            reach = level[source] + 1
            if level[target] < reach:
                level[target] = reach
        self._level = np.asarray(level, dtype=np.intp)
        self.num_chains = int(heads.size)
        self.num_levels = max(level) + 1 if level else 0
        self._packed: PackedLevels | None = None

    def packed(self) -> "PackedLevels":
        """The cell layout the level sweep runs on (built once)."""
        if self._packed is None:
            self._packed = self._pack()
        return self._packed

    def _pack(self) -> "PackedLevels":
        num_chains = self.num_chains
        level = self._level
        chain = self._chain
        length = np.bincount(chain, minlength=num_chains)
        # 4. Blocks of chains sharing (level, length), in that order; a
        # block of c chains of length w owns (w + 1) * c cells: row 0
        # holds the c head starts, row k + 1 the chains' k-th tasks.
        key = level * (int(length.max()) + 1) + length
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        count = np.diff(first, append=num_chains)
        block_rows = length[order[first]] + 1
        block_cell = np.zeros(first.size + 1, dtype=np.intp)
        np.cumsum(count * block_rows, out=block_cell[1:])
        block = np.repeat(np.arange(first.size, dtype=np.intp), count)
        start_cell = np.empty(num_chains, dtype=np.intp)
        start_cell[order] = (block_cell[block]
                             + np.arange(num_chains, dtype=np.intp)
                             - first[block])
        stride = np.empty(num_chains, dtype=np.intp)
        stride[order] = count[block]
        task_cell = start_cell[chain] + (self._rank + 1) * stride[chain]
        cell_task = np.empty(int(block_cell[-1]), dtype=np.intp)
        cell_task[task_cell] = np.arange(chain.size, dtype=np.intp)
        cell_task[start_cell] = np.flatnonzero(self._rank == 0)
        levels = np.arange(self.num_levels + 1)
        # 5. Cross edges by target head. Head start cells run in (level,
        # length, head) order, so sorting by them groups each level's
        # edges and each head's edges at once.
        target_cell = start_cell[self._cross_target]
        edge_order = np.argsort(target_cell, kind="stable")
        sorted_target = target_cell[edge_order]
        head_first = np.flatnonzero(np.diff(sorted_target, prepend=-1))
        edge_level = level[self._cross_target[edge_order]]
        edge_ptr = np.searchsorted(edge_level, levels)
        head_level = edge_level[head_first]
        # 6. Task cells grouped by device, for the device timelines. A
        # stable sort is the same at any integer width; the narrowest
        # one takes numpy's radix sort.
        device = self._device
        device_order = np.argsort(
            device.astype(np.min_scalar_type(self._num_devices)),
            kind="stable")
        devices = device[device_order]
        device_seg = np.flatnonzero(np.diff(devices, prepend=-1))
        return PackedLevels(
            num_levels=self.num_levels,
            cell_task=cell_task,
            root_cells=start_cell[level == 0],
            task_cell=task_cell,
            block_ptr=np.searchsorted(level[order[first]], levels),
            block_cell=block_cell,
            block_rows=block_rows,
            edge_ptr=edge_ptr,
            edge_cell=task_cell[self._cross_parent[edge_order]],
            head_ptr=np.searchsorted(head_level, levels),
            head_seg=head_first - edge_ptr[head_level],
            head_cell=sorted_target[head_first],
            device_cells=task_cell[device_order],
            device_seg=device_seg,
            present_devices=devices[device_seg])


@dataclass(frozen=True, eq=False)
class PackedLevels:
    """The cell layout of a :class:`LevelPlan`, one row of N columns per
    cell.

    Blocks are ordered by level, and within a level by chain length. A
    block of ``c`` chains of length ``w`` owns ``(w + 1) * c``
    consecutive cells, viewed as a ``(w + 1, c * N)`` matrix: row 0
    holds the head starts and row ``k + 1`` the durations of the chains'
    ``k``-th tasks, which one ``np.add.accumulate`` down the rows turns
    into their finishes. MT-NLG (8, 8, 35) at OPERATOR granularity packs
    into 252,145 cells (one per task plus one per chain, no padding).

    Per-level ranges are ``ptr[level]:ptr[level + 1]`` slices of the
    ``*_ptr`` arrays.

    Attributes:
        num_levels: Levels to sweep.
        cell_task: Task whose duration fills each cell; a head-start
            cell names its chain's head and is overwritten before use.
        root_cells: Head-start cells of level-0 chains (start at 0.0).
        task_cell: Each task's cell, which holds its finish after the
            sweep.
        block_ptr: Each level's range of blocks.
        block_cell: First cell of each block, then the cell count.
        block_rows: ``w + 1`` per block.
        edge_ptr: Each level's range of cross edges.
        edge_cell: Parent finish cell of each cross edge, sorted by
            target head.
        head_ptr: Each level's range of heads with cross parents.
        head_seg: Offset of each head's first edge within its level's
            edge range (``reduceat`` segment starts).
        head_cell: Start cell of each head.
        device_cells: Task cells, stably grouped by device.
        device_seg: ``reduceat`` segment starts into ``device_cells``.
        present_devices: Device id of each segment (devices without
            tasks keep a zero timeline).
    """

    num_levels: int
    cell_task: np.ndarray
    root_cells: np.ndarray
    task_cell: np.ndarray
    block_ptr: np.ndarray
    block_cell: np.ndarray
    block_rows: np.ndarray
    edge_ptr: np.ndarray
    edge_cell: np.ndarray
    head_ptr: np.ndarray
    head_seg: np.ndarray
    head_cell: np.ndarray
    device_cells: np.ndarray
    device_seg: np.ndarray
    present_devices: np.ndarray

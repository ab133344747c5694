"""The compiled execution graph shared by all granularities.

An execution graph is a DAG of tasks. Each task carries a device (a
logical pipeline stage), a stream (``compute`` or ``comm`` — modelling
CUDA streams so DP All-Reduce can overlap backward compute, Figure 5a),
a duration, and a kind tag used for time-breakdown reporting. Edges
encode both data dependencies and the paper's explicit intra-GPU
execution-order constraints (Section III-B).

**Structure/timing split.** A :class:`GraphStructure` is the graph's one
form: every per-task attribute flattened into CSR-style arrays,
renumbered chain by chain into a topological order (one FIFO pass over
the graph's chains, not its tasks), with the per-task duration vector
kept separate. Any topological order replays Algorithm 1's starts and
finishes bit for bit — a start is a max of finishes, which is exact,
and a finish is one addition — so replays become a single array pass
(:func:`repro.sim.engine.simulate_retimed`). No output follows
Algorithm 1's task-level pop order: busy sums are added, and recorded
timelines listed, in position order too. Because the topology is
immutable, one compiled structure can be re-timed with fresh duration
vectors — a perturbed device model, a new NCCL table, a different
tensor-parallel degree with the same shape — without rebuilding or
re-sorting anything.

Structures are compiled from per-task *arrays*, tiled directly from
chunk templates by :meth:`repro.graph.builder.GraphBuilder.compile`,
which never builds node objects or per-task lists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

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


def _chains(src: np.ndarray, dst: np.ndarray, in_degree: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chains of a task graph: every task's chain head, its rank
    (distance from the head), and the in-chain edge mask.

    An edge lies inside a chain when its child has one parent and it is
    the first such edge of its parent in link order, whatever the
    parent's other children: a one-parent child starts exactly when its
    parent finishes, so it continues the parent's running sum, and the
    parent's other children head chains of their own. Pointer jumping
    finds the heads: ``head`` starts as each task's in-chain parent and
    ``rank`` as the distance to it, and each round doubles the distance
    covered. A closed ring of in-chain edges has no head, so the rounds
    stop at ``ceil(log2 n) + 1`` (enough to reach every head of an
    acyclic graph), and each task of a ring becomes a one-task chain
    that the chain pass never pops.
    """
    num_tasks = in_degree.size
    # Edges come grouped by parent, so a parent's first one-parent child
    # opens its run among the edges into one-parent children.
    eligible = np.flatnonzero(in_degree[dst] == 1)
    inner = np.zeros(src.size, dtype=bool)
    inner[eligible[np.diff(src[eligible], prepend=-1) != 0]] = True
    del eligible
    inner_child = dst[inner]
    head = np.arange(num_tasks, dtype=np.intp)
    head[inner_child] = src[inner]
    rank = np.zeros(num_tasks, dtype=np.intp)
    rank[inner_child] = 1
    for _ in range((max(num_tasks, 1) - 1).bit_length() + 1):
        step = rank[head]
        if not step.any():
            break
        rank += step
        head = head[head]
    else:
        ring = rank[head] != 0
        inner &= ~ring[src]
        head[ring] = np.flatnonzero(ring)
        rank[ring] = 0
    return head, rank, inner


def _chain_order(chain_ptr: np.ndarray, child: np.ndarray,
                 indegree: np.ndarray) -> tuple[list[int], list[int]]:
    """Kahn's algorithm with a FIFO queue over the chain graph.

    Children of chain ``c`` are ``child[chain_ptr[c]:chain_ptr[c + 1]]``.
    A FIFO queue pops chains level by level, where a chain's level is
    one more than its highest cross parent's (0 without any): a chain is
    pushed when its last cross parent pops. So the queue is walked one
    level at a time, and the pass returns the pop order together with
    where each level starts in it (a final entry closes the last level).
    """
    ref = indegree.tolist()
    ptr = chain_ptr.tolist()
    children = child.tolist()
    level = np.flatnonzero(indegree == 0).tolist()
    order: list[int] = []
    level_ptr = [0]
    while level:
        order += level
        level_ptr.append(len(order))
        ready: list[int] = []
        push = ready.append
        for chain in level:
            for kid in children[ptr[chain]:ptr[chain + 1]]:
                remaining = ref[kid] - 1
                ref[kid] = remaining
                if not remaining:
                    push(kid)
        level = ready
    return order, level_ptr


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


class GraphStructure:
    """Immutable compiled topology of an execution graph.

    Tasks are renumbered into *replay positions*, chain by chain: a
    chain (see :class:`LevelPlan`) occupies consecutive positions, and
    chains follow the order a FIFO queue pops them from the chain graph,
    so every edge runs forward. Positions depend only on the edge
    structure, never on durations. Every per-task attribute is a flat
    array indexed by position, and children are stored CSR-style
    (``child_ptr``/``child_idx``), so the replay engine touches no
    dicts, deques, or node objects.

    The constructor is the one compile path: it takes per-task columns
    in original task order — from the builder's tiled
    :meth:`~repro.graph.builder.GraphBuilder.compile`, or a hand-built
    DAG — finds the chains with array operations, runs the FIFO pass
    over them (which also yields their levels, kept as the
    :meth:`level_plan`), and permutes everything with array operations.
    Every output follows positions, not Algorithm 1's task-level pop
    order: busy sums are added, and recorded events listed, in position
    order.

    The baseline ``duration`` vector captured at compile time is one
    valid timing. Every position names its timing slot, an index into
    ``slot_keys``, so a fresh duration vector is one gather of a
    per-slot vector through ``slot_index``
    (:meth:`~repro.graph.builder.GraphBuilder.fill_durations`), which is
    what makes refill-without-rebuild sweeps possible.

    A structure the builder compiles is a function of its
    :class:`~repro.graph.builder.StructureKey`, except for ``duration``
    and ``metadata``: only those come from the build that compiled it.
    On a structure served from the process-wide cache, take both from
    the plan's own builder, and resolve any other per-plan value (e.g.
    ``GraphBuilder.slot_kernel_counts``) through ``slot_keys``.

    Attributes:
        num_tasks / num_devices / num_edges: Sizes.
        task_id: Original task id at each position (``intp``).
        device: Executing device per position (``intp``).
        kinds: Distinct kind tags, in first-appearance order.
        kind_index: Index into ``kinds`` per position (``intp``).
        child_ptr / child_idx: CSR adjacency over positions —
            children of position ``k`` are
            ``child_idx[child_ptr[k]:child_ptr[k + 1]]``.
        duration: Baseline durations per position (``float64``,
            read-only).
        stream / label: Per-position tuples, materialized on first
            access (only timelines, traces, and the testbed read them).
        slot_keys: Timing-slot keys as the source gave them — for a
            builder's compile, its key's
            :meth:`~repro.graph.builder.StructureKey.slot_layout` — or
            ``None`` when the source recorded no slots.
        slot_index: Index into ``slot_keys`` per position, as given, or
            ``None``.
        busy_index: Flat ``device * len(kinds) + kind`` bucket per
            position.
        device_kind_order: Each device's kind indices in order of first
            appearance in position order (the busy dicts' layout).
        metadata: The source graph's metadata (replays may override).
    """

    def __init__(self, *, num_devices: int, device: np.ndarray,
                 kinds: Sequence[str], kind: np.ndarray,
                 src: np.ndarray, dst: np.ndarray, duration: np.ndarray,
                 slot_keys: Sequence[str] | None, slot: np.ndarray | None,
                 stream: Sequence[str] | Mapping[str, str],
                 label: Sequence[str] | Callable[[], Sequence[str]],
                 metadata: dict[str, Any]) -> None:
        """Compile per-task columns (original task order) into
        positions.

        Args:
            device / kind / duration / slot: Per-task arrays; ``kind``
                and ``slot`` index into ``kinds`` and ``slot_keys``.
            src / dst: Every dependency edge, grouped by parent in
                ascending task id and, within a parent, in the order its
                children were linked (that order picks each parent's
                in-chain child and decides the chain pass's pop order,
                and so the positions).
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
        in_degree = np.bincount(dst, minlength=num_tasks)
        task_ptr = np.zeros(num_tasks + 1, dtype=np.intp)
        np.cumsum(counts, out=task_ptr[1:])
        # 1. Chains, numbered by tail in task order. Cross edges may leave
        # any task of a chain but enter only heads; a stable sort by
        # source chain makes them the chain graph's CSR, each chain's
        # edges in parent order.
        head, rank, inner = _chains(src, dst, in_degree)
        leads = np.zeros(num_tasks, dtype=bool)
        leads[src[inner]] = True
        tails = np.flatnonzero(~leads)
        num_chains = tails.size
        chain_of = np.empty(num_tasks, dtype=np.intp)
        chain_of[head[tails]] = np.arange(num_chains, dtype=np.intp)
        chain = chain_of[head]
        cross = ~inner
        cross_source = chain[src[cross]]
        cross_target = chain[dst[cross]]
        chain_ptr = np.zeros(num_chains + 1, dtype=np.intp)
        np.cumsum(np.bincount(cross_source, minlength=num_chains),
                  out=chain_ptr[1:])
        # 2. One FIFO pass over the chain graph: a topological order of
        # chains, and their levels.
        popped, level_ptr = _chain_order(
            chain_ptr,
            cross_target[np.argsort(cross_source, kind="stable")],
            in_degree[head[tails]])
        del cross_source, chain_ptr
        order = np.fromiter(popped, dtype=np.intp, count=len(popped))
        length = np.bincount(chain, minlength=num_chains)[order]
        if order.size != num_chains:
            raise SimulationError(
                f"task graph deadlocked: {int(length.sum())}/{num_tasks} "
                "tasks executed (dependency cycle)")
        # 3. Tasks laid out chain by chain, in pop order: every edge runs
        # forward, and each chain's tasks sit at consecutive positions.
        fifo_chain = np.empty(num_chains, dtype=np.intp)
        fifo_chain[order] = np.arange(num_chains, dtype=np.intp)
        start = np.zeros(num_chains, dtype=np.intp)
        np.cumsum(length[:-1], out=start[1:])
        position = start[fifo_chain[chain]] + rank
        task_id = np.empty(num_tasks, dtype=np.intp)
        task_id[position] = np.arange(num_tasks, dtype=np.intp)
        self.task_id = task_id

        # CSR over positions: row k is task_id[k]'s child run, gathered
        # whole and renumbered into positions.
        row_counts = counts[task_id]
        child_ptr = np.zeros(num_tasks + 1, dtype=np.intp)
        np.cumsum(row_counts, out=child_ptr[1:])
        num_edges = int(child_ptr[-1])
        gather = (np.repeat(task_ptr[:-1][task_id] - child_ptr[:-1],
                            row_counts)
                  + np.arange(num_edges, dtype=np.intp))
        self.child_ptr = child_ptr
        self.child_idx = position[dst[gather]]
        # Freed before the columns below are gathered: a cold predict's
        # peak memory falls in them.
        del gather, row_counts
        self.num_edges = num_edges

        self.device = device[task_id].astype(np.intp, copy=False)
        self.kind_index, self.kinds = _first_appearance(kind[task_id], kinds)
        self.duration = np.asarray(duration, dtype=np.float64)[task_id]
        self.duration.setflags(write=False)
        if slot is None or slot_keys is None:
            self.slot_index = None
            self.slot_keys = None
        else:
            self.slot_index = slot[task_id]
            self.slot_keys = tuple(slot_keys)
        # Flat (device, kind) bucket per position for one-pass busy
        # accounting, and each device's kinds as its buckets first appear.
        num_kinds = len(self.kinds)
        self.busy_index = self.device * num_kinds + self.kind_index
        kind_order: list[list[int]] = [[] for _ in range(num_devices)]
        for bucket in _by_first_appearance(self.busy_index,
                                           num_devices * num_kinds).tolist():
            kind_order[bucket // num_kinds].append(bucket % num_kinds)
        self.device_kind_order = tuple(map(tuple, kind_order))
        self._level_plan = LevelPlan(
            device=self.device, num_devices=num_devices, start=start,
            length=length, level_ptr=level_ptr,
            cross_parent=position[src[cross]],
            cross_target=fifo_chain[cross_target])
        self._edge_lists: tuple[list[int], list[int]] | None = None
        self._digest: str | None = None

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
        structure cache never serves a wrong topology. Slots are
        renumbered by first appearance first, so the digest names each
        position's slot key, not how the source numbered its slots.
        """
        if self._digest is None:
            slot_index = slot_keys = None
            if self.slot_index is not None:
                slot_index, slot_keys = _first_appearance(self.slot_index,
                                                          self.slot_keys)
            sha = hashlib.sha256(json.dumps(
                [self.num_tasks, self.num_devices, list(self.kinds),
                 None if slot_keys is None else list(slot_keys)]
            ).encode())
            for array in (self.child_ptr, self.child_idx, self.device,
                          self.kind_index, slot_index):
                if array is not None:
                    sha.update(array.astype("<i8").tobytes())
            self._digest = sha.hexdigest()
        return self._digest

    def level_plan(self) -> "LevelPlan":
        """The chain-compressed level schedule of this structure.

        Built by the compile, from the chains and levels its chain pass
        found, so :func:`~repro.sim.engine.use_batched_replay` reads the
        level count for free and every
        :func:`~repro.sim.engine.simulate_retimed_batch` call reuses it.
        The cell layout a sweep runs on is built on the first
        :meth:`LevelPlan.packed` call, so structures that only ever
        replay on the scalar loop never build it.
        """
        return self._level_plan


class LevelPlan:
    """Chain-compressed level schedule for batched replay.

    A *chain* is a maximal path whose inner edges each run from a task
    to its first child, in link order, that has one parent. Such a child
    starts exactly when its one parent finishes, whatever the parent's
    other children, so a chain replays as one running sum ``head start +
    d0 + d1 + ...`` — the scalar loop's additions, in its order. Every
    other edge is a *cross* edge: it leaves any task of a chain and
    enters another chain's head, whose start is the maximum of its cross
    parents' finishes. A chain's *level* is one more than the highest
    level among its cross parents' chains (0 without any), so a level's
    heads depend only on earlier levels.

    :class:`GraphStructure`'s compile finds the chains and their
    as-soon-as-possible levels, and lays each chain's tasks out at
    consecutive positions; this plan keeps what it found (enough for
    :func:`~repro.sim.engine.use_batched_replay` to weigh the level
    count), and :meth:`packed` lays the chains out for the sweep. On
    MT-NLG (8, 8, 35) at OPERATOR granularity, 202,799 of 235,650 edges
    lie inside chains, leaving 16,461 chains in 550 levels.

    Attributes:
        num_levels: Number of levels (0 for an empty structure).
        num_chains: Number of chains.
    """

    def __init__(self, *, device: np.ndarray, num_devices: int,
                 start: np.ndarray, length: np.ndarray,
                 level_ptr: list[int], cross_parent: np.ndarray,
                 cross_target: np.ndarray) -> None:
        """Keep the chains and levels a compile found.

        Args:
            device: Device per position.
            start / length: First position and task count of each chain,
                chains numbered in level order.
            level_ptr: Where each level's chains start, then the chain
                count.
            cross_parent / cross_target: Each cross edge's parent
                position and target chain.
        """
        # Columns only, never the structure: a reference back to it
        # would be a cycle, leaving an evicted structure to the cyclic
        # collector.
        self._device = device
        self._num_devices = num_devices
        self._start = start
        self._length = length
        self._level = np.repeat(np.arange(len(level_ptr) - 1, dtype=np.intp),
                                np.diff(level_ptr))
        self._cross_parent = cross_parent
        self._cross_target = cross_target
        self.num_chains = int(start.size)
        self.num_levels = len(level_ptr) - 1
        self._packed: PackedLevels | None = None

    def packed(self) -> "PackedLevels":
        """The cell layout the level sweep runs on (built once)."""
        if self._packed is None:
            self._packed = self._pack()
        return self._packed

    def _pack(self) -> "PackedLevels":
        num_chains = self.num_chains
        level = self._level
        length = self._length
        heads = self._start
        chain = np.repeat(np.arange(num_chains, dtype=np.intp), length)
        rank = np.arange(chain.size, dtype=np.intp) - heads[chain]
        # 1. Blocks of chains sharing (level, length), in that order; a
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
        task_cell = start_cell[chain] + (rank + 1) * stride[chain]
        cell_task = np.empty(int(block_cell[-1]), dtype=np.intp)
        cell_task[task_cell] = np.arange(chain.size, dtype=np.intp)
        cell_task[start_cell] = heads
        levels = np.arange(self.num_levels + 1)
        # 2. Cross edges by target head. Head start cells run in (level,
        # length, chain) order, so sorting by them groups each level's
        # edges and each head's edges at once.
        target_cell = start_cell[self._cross_target]
        edge_order = np.argsort(target_cell, kind="stable")
        sorted_target = target_cell[edge_order]
        head_first = np.flatnonzero(np.diff(sorted_target, prepend=-1))
        edge_level = level[self._cross_target[edge_order]]
        edge_ptr = np.searchsorted(edge_level, levels)
        head_level = edge_level[head_first]
        # 3. Task cells grouped by device, for the device timelines. A
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
    into 235,721 cells (one per task plus one per chain, no padding).

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

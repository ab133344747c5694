"""The per-task reference graph, emitter and Algorithm-1 loops.

The package ships one graph form, the compiled
:class:`~repro.graph.structure.GraphStructure` that
:meth:`~repro.graph.builder.GraphBuilder.compile` tiles from chunk
templates, and two replay engines. This module keeps the per-task forms
the tests (and ``benchmarks/bench_sim_speed.py``'s warm gate) hold them
to:

* :class:`TaskNode`, :class:`GraphAssembler` and :class:`ExecutionGraph`
  — a DAG of node objects, built one task and one edge at a time;
* :func:`compile_graph` — flattens an :class:`ExecutionGraph` into a
  :class:`~repro.graph.structure.GraphStructure`;
* :func:`reference_timings` — a builder's timing table built slot by
  slot and stage by stage (the tests hold ``slot_durations`` to it);
* :func:`reference_order` — one stage's issue order built unit by
  unit (``tests/test_graph_pipeline.py`` holds
  :func:`~repro.graph.pipeline.issue_orders` to it);
* :func:`build_reference` — a builder's step emitted task by task
  through a :class:`GraphAssembler`, in :func:`reference_order`'s issue
  orders, from the same emitter's chunk bodies
  (``tests/test_graph_tiling.py`` holds ``compile()`` to it);
* :func:`simulate_reference` — Algorithm 1 verbatim, the executable
  specification; :func:`position_order_busy` — its busy accounting run
  in a structure's position order, as the compiled engines add it;
  :func:`simulate` — compile (memoized on the graph) and replay on the
  scalar engine;
* :func:`critical_path_length`, :func:`chain_levels` and
  :func:`stream_serialisation_check` — checks on a graph, its chains and
  its recorded timeline.

Tests import it as ``graph_oracle`` (pytest puts ``tests/`` on
``sys.path``); benchmarks load it by path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.config.parallelism import PipelineSchedule
from repro.errors import SimulationError
from repro.graph.builder import (FP16, Granularity, GraphBuilder, _ChunkBody,
                                 _chunk_prefix, _Emitter)
from repro.graph.operators import (CompOperator, OpKind, data_allreduce,
                                   pipeline_send_recv, tensor_allreduce)
from repro.graph.pipeline import BACKWARD, FORWARD, ScheduledChunk
from repro.graph.structure import (COMM_STREAM, COMPUTE_STREAM, KIND_DP_COMM,
                                   KIND_PP_COMM, KIND_WEIGHT_UPDATE,
                                   GraphStructure)
from repro.sim.engine import simulate_retimed
from repro.sim.results import SimulationResult, TimelineEvent


# ---------------------------------------------------------------------------
# The per-task graph
# ---------------------------------------------------------------------------
@dataclass
class TaskNode:
    """One schedulable unit of work (a task in Algorithm 1).

    Attributes:
        task_id: Index of this node in the graph's node list.
        device: Logical device (pipeline-stage index) executing the task.
        stream: ``compute`` or ``comm`` stream on that device.
        duration: Execution latency in seconds.
        kind: Category tag (see :mod:`repro.graph.structure`).
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
    order within each GPU must be modeled" requirement.
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
                recorded per task for :func:`compile_graph`.
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


@dataclass
class ExecutionGraph:
    """A frozen task DAG ready for Algorithm-1 replay."""

    nodes: list[TaskNode]
    num_devices: int
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Timing-slot key per node as the assembler recorded it (pass to
    #: :func:`compile_graph` for a structure with slots).
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

    def compiled(self) -> GraphStructure:
        """The compiled replay form of this graph (built once, memoized).

        Memoization freezes the *topology* at the first call — edges
        added afterwards are not seen by later replays. Durations are
        not frozen: :func:`simulate` re-reads them from the nodes on
        every call, so mutating ``node.duration`` between replays
        (sensitivity studies) behaves exactly like the reference engine.

        Raises:
            SimulationError: If the graph contains a dependency cycle.
        """
        if self._compiled is None:
            self._compiled = compile_graph(self)
        return self._compiled

    @property
    def num_edges(self) -> int:
        """Total dependency-edge count."""
        return sum(len(node.children) for node in self.nodes)

    def roots(self) -> list[int]:
        """Tasks with no dependencies (Algorithm 1's initial queue)."""
        return [node.task_id for node in self.nodes if node.num_parents == 0]

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


def compile_graph(graph: ExecutionGraph,
                  slots: list[str | None] | None = None) -> GraphStructure:
    """Flatten ``graph`` into its compiled replay form.

    Args:
        slots: Per-task timing-slot keys in *original* task order (from
            :attr:`GraphAssembler.slots`), numbered by first appearance
            in that order; omit (or include any ``None``) to compile a
            structure without slots.

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
    return GraphStructure(
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


# ---------------------------------------------------------------------------
# The per-slot timing table
# ---------------------------------------------------------------------------
def reference_timings(builder: GraphBuilder) -> dict[str, float]:
    """``builder``'s timing table built slot by slot, every stage on its
    own: slot key -> duration in seconds.

    ``builder.slot_durations`` computes each value once per stage role
    and costs each distinct collective once; the tests hold it to this
    table bit for bit. Besides the slots of the key's layout, the table
    holds unused ones (``op:*`` at STAGE, a zero ``tp_ar`` without
    tensor parallelism, ...).
    """
    table = _ReferenceTimings(builder)
    table._init_operators()
    table._init_comm_times()
    table._init_stage_params()
    table._init_timings()
    return table.timings


class _ReferenceTimings:
    """Per-slot timing loops over a builder's inputs (its model, plan,
    phase shape, topology and profiles, read through the builder), with
    computation operators of its own."""

    def __init__(self, builder: GraphBuilder) -> None:
        self.builder = builder

    def __getattr__(self, name: str) -> Any:
        return getattr(self.builder, name)

    def _init_operators(self) -> None:
        """Build the necessary computation operators from the model, the
        plan, the phase's sequence length and KV depth, and the padded
        vocabulary; backward operators exist only for training."""
        model, plan = self.model, self.plan
        common = dict(micro_batch=plan.micro_batch_size,
                      seq_length=self._seq, hidden_size=model.hidden_size,
                      num_heads=model.num_heads,
                      tensor_parallel=plan.tensor)
        vocab = model.padded_vocab_size(plan.tensor)
        self.op_fwd_embed = CompOperator(OpKind.FWD_EMBEDDING,
                                         vocab_size=vocab, **common)
        self.op_fwd_mha = CompOperator(OpKind.FWD_MHA, kv_length=self._kv,
                                       **common)
        self.op_fwd_ffn = CompOperator(OpKind.FWD_FFN, **common)
        self.op_fwd_head = CompOperator(OpKind.FWD_LM_HEAD,
                                        vocab_size=vocab, **common)
        self._comp_ops = (self.op_fwd_embed, self.op_fwd_mha,
                          self.op_fwd_ffn, self.op_fwd_head)
        if self.phase is not None:
            return
        self.op_bwd_head = CompOperator(OpKind.BWD_LM_HEAD,
                                        vocab_size=vocab, **common)
        self.op_bwd_ffn = CompOperator(OpKind.BWD_FFN,
                                       recompute=plan.recompute, **common)
        self.op_bwd_mha = CompOperator(OpKind.BWD_MHA,
                                       recompute=plan.recompute, **common)
        self.op_bwd_embed = CompOperator(OpKind.BWD_EMBEDDING,
                                         vocab_size=vocab, **common)
        self._comp_ops += (self.op_bwd_head, self.op_bwd_ffn,
                           self.op_bwd_mha, self.op_bwd_embed)

    def _init_comm_times(self) -> None:
        """Pre-time every communication operator the graph will use."""
        model, plan = self.model, self.plan
        b, s, h = plan.micro_batch_size, self._seq, model.hidden_size
        self.tp_ar_time = 0.0
        if plan.tensor > 1:
            link = self.topology.tensor_link()
            self.tp_ar_time = self.nccl.time(
                tensor_allreduce(b, s, h, plan.tensor, link))
        self.send_time: list[float] = []
        for boundary in range(plan.pipeline - 1):
            link = self.topology.pipeline_hop_link(boundary)
            comm = pipeline_send_recv(b, s, h, link)
            self.send_time.append(self.nccl.time(comm))
        if self.v > 1:
            link = self.topology.pipeline_wrap_link()
            self.wrap_time = self.nccl.time(pipeline_send_recv(b, s, h, link))
        else:
            self.wrap_time = 0.0

    def _init_stage_params(self) -> None:
        """Per-stage parameter counts per GPU."""
        model, plan = self.model, self.plan
        per_layer = model.params_per_layer() // plan.tensor
        embed = model.embedding_params() // plan.tensor
        final_norm = 2 * model.hidden_size
        self.stage_params: list[int] = []
        for stage in range(plan.pipeline):
            params = self.lps * per_layer
            if stage == 0:
                params += embed
            if stage == plan.pipeline - 1:
                params += final_norm
            self.stage_params.append(params)

    def _bucket_bytes(self, stage: int, bucket: int) -> float:
        """FP16 gradient payload of one bucket on one stage."""
        model, plan = self.model, self.plan
        per_layer = model.params_per_layer() // plan.tensor
        params = len(self.bucket_layers[bucket]) * per_layer
        if stage == 0 and 0 in self.bucket_layers[bucket]:
            params += model.embedding_params() // plan.tensor
        if stage == plan.pipeline - 1 and bucket == len(self.bucket_layers) - 1:
            params += 2 * model.hidden_size
        return FP16 * params

    def _init_timings(self) -> None:
        """Build the timing table: slot key -> duration in seconds."""
        plan = self.plan
        timings: dict[str, float] = {}
        ops = self._comp_ops
        for op in ops:
            timings[f"op:{op.kind.value}"] = self.lookup.duration_of(op)
        if self.granularity is Granularity.KERNEL:
            for op in ops:
                for index, kernel in enumerate(self.lookup.tasks_for(op)):
                    timings[f"k:{op.kind.value}:{index}"] = kernel.duration
        timings["tp_ar"] = self.tp_ar_time
        for boundary, seconds in enumerate(self.send_time):
            timings[f"pp:{boundary}"] = seconds
        if self.v > 1:
            timings["pp:wrap"] = self.wrap_time

        if plan.data > 1 and self.phase is None:
            dp_link = self.topology.data_link()
            dp_concurrency = self.topology.concurrent_data_groups_per_node()
            for stage in range(plan.pipeline):
                for bucket in range(len(self.bucket_layers)):
                    comm = data_allreduce(
                        self._bucket_bytes(stage, bucket), plan.data, dp_link,
                        concurrent_groups=dp_concurrency)
                    timings[f"dp:{stage}:{bucket}"] = self.nccl.time(comm)

        self._wu_ops: dict[int, CompOperator] = {}
        if self.phase is None:
            for stage in range(plan.pipeline):
                wu_op = CompOperator(OpKind.WEIGHT_UPDATE,
                                     num_params=self.stage_params[stage])
                self._wu_ops[stage] = wu_op
                timings[f"wu:{stage}"] = self.lookup.duration_of(wu_op)

        if self.granularity is Granularity.STAGE:
            slot = self.key.stage_slot
            for stage in range(plan.pipeline):
                for chunk in range(self.v):
                    timings[slot("sf", stage, chunk)] = \
                        self._forward_stage_duration(stage, chunk)
                    if self.phase is None:
                        timings[slot("sb", stage, chunk)] = \
                            self._backward_stage_duration(stage, chunk)
            if self.phase is None:
                layer_dur = self._backward_layer_duration()
                for stage in range(plan.pipeline):
                    for chunk in range(self.v):
                        for seg_index, (bucket, width) in enumerate(
                                self.key.bucket_segments(chunk)):
                            duration = width * layer_dur
                            if (seg_index == 0 and stage == plan.pipeline - 1
                                    and chunk == self.v - 1):
                                duration += self.lookup.duration_of(
                                    self.op_bwd_head)
                            if bucket == 0 and stage == 0 and chunk == 0:
                                duration += self.lookup.duration_of(
                                    self.op_bwd_embed)
                            timings[slot("sbl", stage, chunk,
                                         bucket)] = duration
        self.timings = timings

    def _forward_stage_duration(self, stage: int, chunk: int = 0) -> float:
        """Forward latency of one stage chunk (compute + TP AR)."""
        dur = self.lpc * (self.lookup.duration_of(self.op_fwd_mha)
                          + self.lookup.duration_of(self.op_fwd_ffn)
                          + 2 * self.tp_ar_time)
        if stage == 0 and chunk == 0:
            dur += self.lookup.duration_of(self.op_fwd_embed) + self.tp_ar_time
        if stage == self.plan.pipeline - 1 and chunk == self.v - 1:
            dur += self.lookup.duration_of(self.op_fwd_head)
        return dur

    def _backward_layer_duration(self) -> float:
        """Backward latency of one decoder layer (compute + TP AR)."""
        return (self.lookup.duration_of(self.op_bwd_ffn)
                + self.lookup.duration_of(self.op_bwd_mha)
                + 2 * self.tp_ar_time)

    def _backward_stage_duration(self, stage: int, chunk: int = 0) -> float:
        """Backward latency of one stage chunk."""
        dur = self.lpc * self._backward_layer_duration()
        if stage == self.plan.pipeline - 1 and chunk == self.v - 1:
            dur += self.lookup.duration_of(self.op_bwd_head)
        if stage == 0 and chunk == 0:
            dur += self.lookup.duration_of(self.op_bwd_embed)
        return dur


# ---------------------------------------------------------------------------
# The unit-by-unit issue orders
# ---------------------------------------------------------------------------
def reference_order(schedule: PipelineSchedule | None, stage: int,
                    num_stages: int, num_micro_batches: int,
                    virtual_stages: int = 1) -> list[ScheduledChunk]:
    """Stage ``stage``'s issue order, appended one unit at a time;
    ``schedule=None`` is the forward-only order of an inference phase.
    Expects a valid configuration (``issue_orders`` checks it)."""
    if schedule is None:
        return [ScheduledChunk(FORWARD, mb)
                for mb in range(num_micro_batches)]
    if schedule is PipelineSchedule.GPIPE:
        return _gpipe_order(num_micro_batches)
    if virtual_stages > 1:
        return _interleaved_order(stage, num_stages, num_micro_batches,
                                  virtual_stages)
    return _one_f_one_b_order(stage, num_stages, num_micro_batches)


def _gpipe_order(num_micro_batches: int) -> list[ScheduledChunk]:
    """GPipe: all forwards in order, then all backwards in reverse."""
    forwards = [ScheduledChunk(FORWARD, i) for i in range(num_micro_batches)]
    backwards = [ScheduledChunk(BACKWARD, i)
                 for i in reversed(range(num_micro_batches))]
    return forwards + backwards


def _one_f_one_b_order(stage: int, num_stages: int,
                       num_micro_batches: int) -> list[ScheduledChunk]:
    """1F1B: ``min(NMB, p - 1 - stage)`` warm-up forwards, then one
    forward per backward, then the remaining backwards."""
    warmup = min(num_micro_batches, num_stages - 1 - stage)
    order: list[ScheduledChunk] = []
    for i in range(warmup):
        order.append(ScheduledChunk(FORWARD, i))
    steady = num_micro_batches - warmup
    for i in range(steady):
        order.append(ScheduledChunk(FORWARD, warmup + i))
        order.append(ScheduledChunk(BACKWARD, i))
    for i in range(steady, num_micro_batches):
        order.append(ScheduledChunk(BACKWARD, i))
    return order


def _interleaved_order(stage: int, num_stages: int, num_micro_batches: int,
                       virtual_stages: int) -> list[ScheduledChunk]:
    """Megatron-LM's ``forward_backward_pipelining_with_interleaving``:
    (chunk, micro-batch) units in groups of ``p`` per chunk, a warm-up
    of ``2*(p - stage - 1) + (v - 1) * p`` units (all of them when
    ``NMB == p``), then one forward unit per backward unit and the
    drain; backward units walk the chunks descending."""
    p, v = num_stages, virtual_stages
    total = num_micro_batches * v

    def forward_unit(k: int) -> ScheduledChunk:
        group, j = divmod(k, p * v)
        return ScheduledChunk(FORWARD, group * p + j % p, chunk=j // p)

    def backward_unit(k: int) -> ScheduledChunk:
        group, j = divmod(k, p * v)
        return ScheduledChunk(BACKWARD, group * p + j % p,
                              chunk=v - 1 - j // p)

    if num_micro_batches == p:
        warmup = total
    else:
        warmup = min(2 * (p - stage - 1) + (v - 1) * p, total)
    order = [forward_unit(k) for k in range(warmup)]
    for k in range(total - warmup):
        order.append(forward_unit(warmup + k))
        order.append(backward_unit(k))
    for k in range(total - warmup, total):
        order.append(backward_unit(k))
    return order


# ---------------------------------------------------------------------------
# The per-task emitter
# ---------------------------------------------------------------------------
def build_graph(vtrain, model, plan, training) -> ExecutionGraph:
    """The reference execution graph of one training iteration of
    ``plan`` on ``vtrain``'s system, profiles and granularity."""
    builder = GraphBuilder(model, vtrain.system, plan, training,
                           vtrain.lookup, vtrain.nccl, vtrain.granularity)
    return build_reference(builder)


def build_reference(builder: GraphBuilder,
                    timings: dict[str, float] | None = None
                    ) -> ExecutionGraph:
    """Assemble ``builder``'s step graph task by task.

    Every task goes through :meth:`GraphAssembler.add`, which wires
    stream chains and explicit dependencies one edge at a time, and
    takes its duration from ``timings`` (default:
    :func:`reference_timings`). Predictions compile through
    :meth:`GraphBuilder.compile` instead; the tests hold the two to
    identical structures.
    """
    emitter = _Emitter(builder.key)
    asm = GraphAssembler()
    if timings is None:
        timings = reference_timings(builder)
    attributes = {slot: emitter.attributes(slot) for slot in timings}
    last_b = emitter.last_backward()
    bodies: dict[tuple[int, bool, int, bool], _ChunkBody] = {}
    # Task-id maps keyed by (stage, chunk, micro_batch); chunk is
    # always 0 outside the interleaved schedule.
    f_entry: dict[tuple[int, int, int], int] = {}
    f_exit: dict[tuple[int, int, int], int] = {}
    b_entry: dict[tuple[int, int, int], int] = {}
    b_exit: dict[tuple[int, int, int], int] = {}
    # Gradient-readiness anchors: (stage, bucket) -> task id.
    bucket_anchor: dict[tuple[int, int], int] = {}
    key = builder.key
    for stage in range(key.pipeline):
        for phase, mb, chunk in reference_order(
                key.schedule, stage, key.pipeline, key.micro_batches,
                key.virtual_stages):
            forward = phase == FORWARD
            role = (stage, forward, chunk, not forward and mb == last_b)
            body = bodies.get(role)
            if body is None:
                body = bodies[role] = emitter.chunk_body(*role)
            prefix = _chunk_prefix(stage, chunk, phase, mb, builder.v)
            entry = len(asm.nodes)
            for slot, suffix in zip(body.slots, body.suffixes):
                kind, stream = attributes[slot]
                asm.add(stage, stream, timings[slot], kind,
                        prefix + suffix, slot=slot)
            entries, exits = ((f_entry, f_exit) if forward
                              else (b_entry, b_exit))
            entries[(stage, chunk, mb)] = entry
            exits[(stage, chunk, mb)] = len(asm.nodes) - 1
            for bucket, offset in body.anchors.items():
                bucket_anchor[(stage, bucket)] = entry + offset
    if builder.phase is not None:
        _emit_forward_sends(builder, asm, timings, f_exit, f_entry)
    else:
        _emit_pipeline_comm(builder, asm, timings, f_exit, f_entry, b_exit,
                            b_entry)
        _emit_gradient_sync(builder, asm, timings, b_exit, bucket_anchor,
                            last_b)
    return asm.finish(num_devices=builder.plan.pipeline,
                      metadata=builder.graph_metadata())


def _emit_forward_sends(builder, asm, timings, f_exit, f_entry) -> None:
    """Inference: only the forward half of the pipeline P2P pass."""
    for boundary in range(builder.plan.pipeline - 1):
        for mb in range(builder.nmb):
            send = asm.add(boundary, COMM_STREAM,
                           timings[f"pp:{boundary}"], KIND_PP_COMM,
                           f"s{boundary}->s{boundary + 1}/F{mb}",
                           deps=(f_exit[(boundary, 0, mb)],),
                           chain=False, slot=f"pp:{boundary}")
            asm.link(send, f_entry[(boundary + 1, 0, mb)])


def _emit_pipeline_comm(builder, asm, timings, f_exit, f_entry, b_exit,
                        b_entry):
    """Insert Send-Receive tasks at every stage boundary (Figure 6).

    Interleaved plans carry every chunk across each boundary, plus the
    wrap-around hops: forward output of chunk ``c`` on the last stage
    feeds chunk ``c+1`` on stage 0, and chunk ``c+1``'s gradient on
    stage 0 feeds chunk ``c``'s backward on the last stage.
    """
    p, v = builder.plan.pipeline, builder.v
    for boundary in range(p - 1):
        for mb in range(builder.nmb):
            for chunk in range(v):
                mid = "" if v == 1 else f"/c{chunk}"
                send = asm.add(boundary, COMM_STREAM,
                               timings[f"pp:{boundary}"], KIND_PP_COMM,
                               f"s{boundary}->s{boundary + 1}{mid}/F{mb}",
                               deps=(f_exit[(boundary, chunk, mb)],),
                               chain=False, slot=f"pp:{boundary}")
                asm.link(send, f_entry[(boundary + 1, chunk, mb)])
                recv = asm.add(boundary + 1, COMM_STREAM,
                               timings[f"pp:{boundary}"], KIND_PP_COMM,
                               f"s{boundary + 1}->s{boundary}{mid}/B{mb}",
                               deps=(b_exit[(boundary + 1, chunk, mb)],),
                               chain=False, slot=f"pp:{boundary}")
                asm.link(recv, b_entry[(boundary, chunk, mb)])
    for chunk in range(v - 1):
        for mb in range(builder.nmb):
            send = asm.add(p - 1, COMM_STREAM, timings["pp:wrap"],
                           KIND_PP_COMM,
                           f"s{p - 1}/c{chunk}->s0/c{chunk + 1}/F{mb}",
                           deps=(f_exit[(p - 1, chunk, mb)],),
                           chain=False, slot="pp:wrap")
            asm.link(send, f_entry[(0, chunk + 1, mb)])
            recv = asm.add(0, COMM_STREAM, timings["pp:wrap"],
                           KIND_PP_COMM,
                           f"s0/c{chunk + 1}->s{p - 1}/c{chunk}/B{mb}",
                           deps=(b_exit[(0, chunk + 1, mb)],),
                           chain=False, slot="pp:wrap")
            asm.link(recv, b_entry[(p - 1, chunk, mb)])


def _emit_gradient_sync(builder, asm, timings, b_exit, bucket_anchor,
                        last_b) -> None:
    """Insert DP gradient All-Reduces (Figure 5) and weight updates."""
    plan = builder.plan
    d = plan.data
    num_buckets = len(builder.bucket_layers)
    for stage in range(plan.pipeline):
        wu_deps: list[int] = []
        if d > 1:
            last_ar = None
            for bucket in reversed(range(num_buckets)):
                anchor = bucket_anchor[(stage, bucket)]
                last_ar = asm.add(stage, COMM_STREAM,
                                  timings[f"dp:{stage}:{bucket}"],
                                  KIND_DP_COMM,
                                  f"s{stage}/dp_ar/bucket{bucket}",
                                  deps=(anchor,),
                                  slot=f"dp:{stage}:{bucket}")
            wu_deps.append(last_ar)
        # Chunk 0's backward is the final backward in every schedule's
        # issue order (backward walks chunks descending).
        wu_deps.append(b_exit[(stage, 0, last_b)])
        asm.add(stage, COMPUTE_STREAM, timings[f"wu:{stage}"],
                KIND_WEIGHT_UPDATE, f"s{stage}/weight_update",
                deps=tuple(wu_deps), slot=f"wu:{stage}")


# ---------------------------------------------------------------------------
# Graph walks
# ---------------------------------------------------------------------------
def simulate(graph: ExecutionGraph | GraphStructure, *,
             record_timeline: bool = False) -> SimulationResult:
    """Replay a task graph on the scalar engine.

    Compiles the graph into its :class:`GraphStructure` replay form
    (memoized on the graph object) and replays it with
    :func:`~repro.sim.engine.simulate_retimed`. Results are
    bit-identical to :func:`simulate_reference`.

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


def simulate_reference(graph: ExecutionGraph, *,
                       record_timeline: bool = False) -> SimulationResult:
    """Reference Algorithm-1 implementation (per-task Python loop).

    The executable specification: the compiled engines must be
    bit-identical to this on makespan, per-device timelines, and every
    task's recorded event (property-tested in
    ``tests/test_sim_equivalence.py``). They add busy sums and list
    events in position order, not in this loop's pop order:
    :func:`position_order_busy` holds their busy accounting.
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


def position_order_busy(graph: ExecutionGraph, structure: GraphStructure
                        ) -> dict[int, dict[str, float]]:
    """:func:`simulate_reference`'s busy accounting, run over
    ``structure.task_id`` (its replay positions) instead of Algorithm
    1's pop order: the sums and dict layout the compiled engines must
    match ``==``. Durations are read from the graph's nodes."""
    nodes = graph.nodes
    busy: dict[int, dict[str, float]] = {
        device: {} for device in range(graph.num_devices)}
    for task_id in structure.task_id.tolist():
        node = nodes[task_id]
        device_busy = busy.setdefault(node.device, {})
        device_busy[node.kind] = device_busy.get(node.kind, 0.0) + node.duration
    return busy


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


def chain_levels(graph: ExecutionGraph) -> list[tuple[list[int], int]]:
    """Every chain of ``graph`` with its as-soon-as-possible level.

    A parent's in-chain child is its first child, in ``children`` order,
    that has one parent; a chain is a maximal path of in-chain edges,
    listed as its task ids from head to tail. A chain's level is one
    more than the highest level among the chains of its head's parents
    (0 without any): a task's level is the most edges *between* chains
    on any path into it, found here by one FIFO walk over the tasks.

    Raises:
        SimulationError: If the graph has a cycle.
    """
    nodes = graph.nodes
    chain_child = [next((child for child in node.children
                         if nodes[child].num_parents == 1), None)
                   for node in nodes]
    level = [0] * len(nodes)
    ref = [node.num_parents for node in nodes]
    queue: deque[int] = deque(graph.roots())
    visited = 0
    while queue:
        task_id = queue.popleft()
        visited += 1
        for child in nodes[task_id].children:
            inner = child == chain_child[task_id]
            reach = level[task_id] + (0 if inner else 1)
            level[child] = max(level[child], reach)
            ref[child] -= 1
            if ref[child] == 0:
                queue.append(child)
    if visited != len(nodes):
        raise SimulationError("graph has a cycle; chain levels undefined")
    has_chain_parent = set(chain_child) - {None}
    chains = []
    for node in nodes:
        if node.task_id in has_chain_parent:
            continue
        tasks = [node.task_id]
        while chain_child[tasks[-1]] is not None:
            tasks.append(chain_child[tasks[-1]])
        chains.append((tasks, level[node.task_id]))
    return chains


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

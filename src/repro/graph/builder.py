"""Operator-granularity execution-graph construction (Figure 4, step 2).

The builder turns an input description into the task DAG of one training
iteration, inserting every communication operator the 3D-parallel plan
requires:

* tensor-parallel All-Reduces after each MHA and FFN block, forward and
  backward, sequentially dependent on their block (Figure 6);
* data-parallel gradient-bucket All-Reduces on the communication stream,
  overlapping backward compute (Figure 5a) — or one terminal All-Reduce
  when bucketing is off (Figure 5b);
* pipeline Send-Receives at stage boundaries, GPipe-, 1F1B-, or
  interleaved-ordered (Figure 7) with both intra-GPU issue order and
  cross-GPU micro-batch dependencies enforced (Figure 8). Interleaved
  plans (``virtual_stages > 1``) additionally emit the wrap-around
  Send-Receives that carry chunk ``c`` output from the last stage back
  to chunk ``c+1`` on the first stage.

**Symmetry reduction.** Tensor-parallel ranks within a stage execute
identical kernel streams, and data-parallel replicas are symmetric, so
the builder materialises one pipeline of ``p`` logical devices; TP
All-Reduces appear as inline comm tasks and DP All-Reduces as comm-stream
tasks. This is the paper's necessary-operator observation applied to the
graph itself; per-GPU behaviour is preserved exactly.

**Granularities.** ``KERNEL`` emits one task per CUDA kernel (the paper's
task-granularity graph, Figure 4 step 4); ``OPERATOR`` emits one task per
layer-node with duration equal to the sum of its kernels (exact, because
kernels run back-to-back on one stream); ``STAGE`` collapses each
(stage, micro-batch, phase) chunk into a single task for fast DSE sweeps,
splitting only the last backward chunk per bucket so gradient-bucket
overlap stays modelled.

**Template tiling.** A pipeline repeats a handful of chunk bodies
thousands of times (MT-NLG: 35 stages x 480 units). Both emitters share
one body definition per unit role; :meth:`GraphBuilder.compile` stamps
the bodies over every stage's issue order with numpy offsets and wires
the inter-chunk edges as arrays, while :meth:`GraphBuilder.build` emits
the same tasks one by one through a :class:`GraphAssembler` and serves
as the reference the tiled path is tested against.
"""

from __future__ import annotations

import enum
import itertools
import os
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, TrainingConfig,
                                      layers_per_stage, num_micro_batches,
                                      validate_plan)
from repro.config.system import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.graph.operators import (CompOperator, OpKind,
                                   data_allreduce, pipeline_send_recv,
                                   tensor_allreduce)
from repro.graph.pipeline import (FORWARD, ScheduledChunk,
                                  last_backward_micro_batch, schedule_order)
from repro.graph.structure import (COMM_STREAM, COMPUTE_STREAM,
                                   ExecutionGraph, GraphAssembler,
                                   GraphStructure, KIND_COMPUTE,
                                   KIND_DP_COMM, KIND_PP_COMM, KIND_TP_COMM,
                                   KIND_WEIGHT_UPDATE)
from repro.hardware.cluster import ClusterTopology
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.workload import DECODE, INFERENCE_PHASES, InferenceWorkload, PREFILL

FP16 = 2.0


class Granularity(enum.Enum):
    """Level of detail of the emitted execution graph."""

    KERNEL = "kernel"
    OPERATOR = "operator"
    STAGE = "stage"


# ---------------------------------------------------------------------------
# Process-wide structure cache
# ---------------------------------------------------------------------------
# Compiled GraphStructures keyed by their structural fingerprint
# (GraphBuilder.structure_key). Two plans that differ only in profiled
# durations — micro-batch *size* at the same micro-batch count, a
# different tensor degree with tensor parallelism still on, a perturbed
# device or NCCL model, or simply a repeated VTrain.predict of the same
# plan — share one compiled topology and only refill the duration
# vector. The cache is per-process by design (the workers of a
# ``DesignSpaceExplorer.explore(workers=N)`` sweep each warm their own),
# LRU-evicted against a total-task budget.
#
# All cache operations hold _STRUCTURE_CACHE_LOCK: the `repro serve`
# daemon retimes one shared cache from many handler threads, and the
# OrderedDict mutations (move_to_end on hit, popitem on eviction) are
# not atomic. The lock is uncontended in single-threaded use — one
# acquire per get/put, no allocation — so the warm fast path stays
# within the committed perf baselines.

_STRUCTURE_CACHE: "OrderedDict[str, GraphStructure]" = OrderedDict()
_STRUCTURE_CACHE_LOCK = threading.RLock()

# Hit/miss/eviction accounting lives on the process-wide obs registry
# (single source of truth for `repro stats`); structure_cache_stats()
# below remains the stable dict-shaped view callers and tests use.
_CACHE_HITS = obs.metrics.counter("graph.structure_cache.hits")
_CACHE_MISSES = obs.metrics.counter("graph.structure_cache.misses")
_CACHE_EVICTIONS = obs.metrics.counter("graph.structure_cache.evictions")

#: Default cap on the summed task count of cached structures (~200 MB
#: worst case); override with REPRO_STRUCTURE_CACHE_TASKS.
DEFAULT_STRUCTURE_CACHE_TASKS = 1_000_000


def _structure_cache_budget() -> int:
    """The task budget, from REPRO_STRUCTURE_CACHE_TASKS if set.

    Raises:
        ConfigError: The variable is not a non-negative integer.
    """
    raw = os.environ.get("REPRO_STRUCTURE_CACHE_TASKS")
    if raw is None:
        return DEFAULT_STRUCTURE_CACHE_TASKS
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ConfigError(
            "REPRO_STRUCTURE_CACHE_TASKS must be a non-negative integer "
            f"task count, got {raw!r}")
    return budget


def structure_cache_get(key: str) -> GraphStructure | None:
    """Cached structure for ``key`` (counts a hit or a miss)."""
    with _STRUCTURE_CACHE_LOCK:
        structure = _STRUCTURE_CACHE.get(key)
        if structure is None:
            _CACHE_MISSES.increment()
            return None
        _STRUCTURE_CACHE.move_to_end(key)
        _CACHE_HITS.increment()
        return structure


def structure_cache_put(key: str, structure: GraphStructure) -> None:
    """Insert a structure, LRU-evicting down to the task budget."""
    with _STRUCTURE_CACHE_LOCK:
        _STRUCTURE_CACHE[key] = structure
        _STRUCTURE_CACHE.move_to_end(key)
        budget = _structure_cache_budget()
        total = sum(entry.num_tasks for entry in _STRUCTURE_CACHE.values())
        while total > budget and len(_STRUCTURE_CACHE) > 1:
            _, evicted = _STRUCTURE_CACHE.popitem(last=False)
            total -= evicted.num_tasks
            _CACHE_EVICTIONS.increment()


def structure_cache_evict(key: str) -> None:
    """Drop one entry (defensive fallback when a refill mismatches)."""
    with _STRUCTURE_CACHE_LOCK:
        _STRUCTURE_CACHE.pop(key, None)


def structure_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction/size counters for this process (thin view over
    the ``graph.structure_cache.*`` obs registry counters)."""
    with _STRUCTURE_CACHE_LOCK:
        return {"hits": _CACHE_HITS.value,
                "misses": _CACHE_MISSES.value,
                "evictions": _CACHE_EVICTIONS.value,
                "entries": len(_STRUCTURE_CACHE),
                "cached_tasks": sum(entry.num_tasks
                                    for entry in _STRUCTURE_CACHE.values())}


def clear_structure_cache() -> None:
    """Empty the cache and reset its counters (tests, benchmarks)."""
    with _STRUCTURE_CACHE_LOCK:
        _STRUCTURE_CACHE.clear()
        for counter in (_CACHE_HITS, _CACHE_MISSES, _CACHE_EVICTIONS):
            counter.reset()


def structure_fingerprint(model: ModelConfig, plan: ParallelismConfig,
                          training: TrainingConfig,
                          granularity: Granularity, *,
                          workload: InferenceWorkload | None = None,
                          phase: str | None = None) -> str:
    """Fingerprint of everything that shapes a plan's emitted topology.

    Two (model, plan, training, granularity) tuples with equal
    fingerprints produce graphs with identical node sequences, edges,
    devices, streams, labels, and timing slots — only slot *values*
    (durations) may differ. The fingerprint deliberately excludes pure
    timing inputs (hidden size, tensor/data degree magnitudes,
    interconnects, the device model, recompute outside KERNEL
    granularity) so sweeps re-time one compiled structure instead of
    rebuilding:

    * model shape enters as layers-per-stage (the only model property
      emission reads);
    * plan way enters as pipeline depth plus *whether* TP/DP
      collectives exist (their degree only scales durations);
    * micro-batch count and schedule fix the chunk issue order;
    * the gradient-bucket layout fixes DP All-Reduce tasks;
    * granularity fixes the stream layout; KERNEL graphs add the
      recompute mode because it changes the kernel sequence itself.

    Computable without any profiling state, so sweep engines use it to
    group plans for cache affinity before evaluating them.

    Inference phase graphs (``workload``/``phase`` set) append a
    workload tag so a prefill or decode structure is never confused
    with — or silently served for — a training structure, and vice
    versa; training fingerprints omit the tag entirely and stay
    byte-identical to every pre-workload release. For inference,
    ``training`` is the workload's proxy config
    (:meth:`~repro.workload.InferenceWorkload.training_proxy`).
    """
    lps = layers_per_stage(model, plan)
    nmb = num_micro_batches(plan, training)
    if plan.gradient_bucketing:
        buckets = min(plan.num_gradient_buckets, lps)
    else:
        buckets = 1
    base, extra = divmod(lps, buckets)  # mirrors the builder's layout
    sizes = [base + (1 if k < extra else 0) for k in range(buckets)]
    parts = [
        f"g={granularity.value}",
        f"sched={plan.schedule.value}",
        f"p={plan.pipeline}",
        f"lps={lps}",
        f"nmb={nmb}",
        f"tp={int(plan.tensor > 1)}",
        f"dp={int(plan.data > 1)}",
        f"buckets={','.join(str(size) for size in sizes)}",
    ]
    if plan.virtual_stages > 1:
        # Interleaving changes the chunk issue order, the per-chunk
        # layer slices, and adds wrap-around P2P tasks; a v=1 structure
        # silently reused for v>1 (or vice versa) would be wrong. The
        # part is omitted at v=1 so pre-interleaving fingerprints are
        # byte-identical.
        parts.append(f"v={plan.virtual_stages}")
    if granularity is Granularity.KERNEL:
        # Kernel graphs bake shape into the structure itself: the
        # recompute mode changes the kernel sequence, and kernel task
        # labels carry names derived from the sharded GEMM shapes.
        parts.append(f"rc={plan.recompute.value}")
        parts.append(f"shape={model.hidden_size}x{model.num_heads}"
                     f"x{model.seq_length}"
                     f"x{model.padded_vocab_size(plan.tensor)}")
        parts.append(f"mbs={plan.micro_batch_size}")
        parts.append(f"t={plan.tensor}")
    if phase is not None:
        if workload is None or phase not in INFERENCE_PHASES:
            raise ConfigError(
                f"inference fingerprint needs a workload and a phase in "
                f"{INFERENCE_PHASES}, got workload={workload!r} "
                f"phase={phase!r}")
        # Inference phase graphs carry their own sequence shape (the
        # prompt length for prefill, one token + KV depth for decode)
        # rather than the model's training seq_length, so the phase,
        # the per-phase sequence length, and the decode KV depth all
        # enter the fingerprint. Conservative on purpose: two decode
        # graphs differing only in KV depth share topology, but their
        # kernel labels differ, so they are cached separately.
        parts.append("wl=inference")
        parts.append(f"ph={phase}")
        if phase == PREFILL:
            parts.append(f"seq={workload.prompt_len}")
        else:
            parts.append(f"seq=1;kv={workload.decode_kv_length}")
    return ";".join(parts)


def structure_affinity(model: ModelConfig, plan: ParallelismConfig,
                       training: TrainingConfig | None,
                       granularity: Granularity) -> str | None:
    """Best-effort :func:`structure_fingerprint` for sweep grouping.

    Returns ``None`` when the fingerprint cannot be computed: for
    structurally invalid plans (they fail fast during evaluation anyway)
    and without a training recipe (serving sweeps). The sweep loop sorts
    those last in their original order.
    """
    if training is None:
        return None
    try:
        return structure_fingerprint(model, plan, training, granularity)
    except (ArithmeticError, ValueError):
        return None


def _chunk_prefix(stage: int, chunk: int, phase: str, mb: int,
                 virtual_stages: int) -> str:
    """Label prefix of one scheduled unit; ``v == 1`` labels carry no
    chunk component, matching the pre-interleaving graphs exactly."""
    if virtual_stages == 1:
        return f"s{stage}/{phase}{mb}"
    return f"s{stage}/c{chunk}/{phase}{mb}"


class _ChunkBody(NamedTuple):
    """Task template of one scheduled unit, emitted once per distinct
    unit role and stamped out for every unit sharing it.

    Attributes:
        slots: Timing-slot key per task, in emission order (every task
            runs on its stage's compute stream, chained in order).
        suffixes: Label suffix per task, appended to the unit's
            :func:`_chunk_prefix`.
        anchors: Bucket -> offset of the task retiring that gradient
            bucket (last-synchronising backward units only).
    """

    slots: tuple[str, ...]
    suffixes: tuple[str, ...]
    anchors: dict[int, int]


class _TaskTable:
    """Per-task columns and edges of a tiled build, grown block by block
    in task-id order."""

    def __init__(self) -> None:
        self.device: list[np.ndarray] = []
        self.slot: list[np.ndarray] = []
        self.src: list[np.ndarray] = []
        self.dst: list[np.ndarray] = []
        self.slot_of: dict[str, int] = {}
        self.num_tasks = 0

    def slot_ids(self, keys) -> np.ndarray:
        """Interned ids of timing-slot ``keys``."""
        return np.array([self.slot_of.setdefault(key, len(self.slot_of))
                         for key in keys], dtype=np.intp)

    def add(self, device: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Append one block of tasks; returns their task ids."""
        ids = np.arange(self.num_tasks, self.num_tasks + len(device),
                        dtype=np.intp)
        self.num_tasks += len(device)
        self.device.append(device)
        self.slot.append(slot)
        return ids

    def link(self, parents: np.ndarray, children: np.ndarray) -> None:
        """Add the edges ``parents[i] -> children[i]``."""
        self.src.append(parents)
        self.dst.append(children)


class _TiledLabels:
    """Task labels of a tiled build, formatted on first use.

    Only timelines, traces, and the testbed read labels, so a compiled
    structure keeps just the unit table and the body suffixes and
    rebuilds :meth:`GraphBuilder.build`'s exact strings, in task-id
    order, when asked.
    """

    def __init__(self, builder: "GraphBuilder",
                 orders: list[list[ScheduledChunk]], u_body: np.ndarray,
                 bodies: list[_ChunkBody]) -> None:
        self.orders = orders
        self.u_body = u_body
        self.suffixes = [body.suffixes for body in bodies]
        self.pipeline = builder.plan.pipeline
        self.v = builder.v
        self.nmb = builder.nmb
        self.training = builder.phase is None
        self.all_reduce_buckets = (len(builder.bucket_layers)
                                   if builder.plan.data > 1 else 0)

    def __call__(self) -> list[str]:
        p, v, nmb = self.pipeline, self.v, self.nmb
        labels: list[str] = []
        bodies = iter(self.u_body.tolist())
        for stage, units in enumerate(self.orders):
            for phase, mb, chunk in units:
                prefix = _chunk_prefix(stage, chunk, phase, mb, v)
                labels.extend([prefix + suffix
                               for suffix in self.suffixes[next(bodies)]])
        if not self.training:
            labels.extend(f"s{boundary}->s{boundary + 1}/F{mb}"
                          for boundary in range(p - 1) for mb in range(nmb))
            return labels
        for boundary in range(p - 1):
            for mb in range(nmb):
                for chunk in range(v):
                    mid = "" if v == 1 else f"/c{chunk}"
                    labels.append(f"s{boundary}->s{boundary + 1}{mid}/F{mb}")
                    labels.append(f"s{boundary + 1}->s{boundary}{mid}/B{mb}")
        for chunk in range(v - 1):
            for mb in range(nmb):
                labels.append(f"s{p - 1}/c{chunk}->s0/c{chunk + 1}/F{mb}")
                labels.append(f"s0/c{chunk + 1}->s{p - 1}/c{chunk}/B{mb}")
        for stage in range(p):
            labels.extend(f"s{stage}/dp_ar/bucket{bucket}" for bucket
                          in reversed(range(self.all_reduce_buckets)))
            labels.append(f"s{stage}/weight_update")
        return labels


class GraphBuilder:
    """Builds one workload step's execution graph.

    The default (no ``workload``/``phase``) emits the classic training
    iteration — forward, backward, gradient sync, weight update — and
    is bit-identical to the pre-workload builder. With an
    :class:`~repro.workload.InferenceWorkload` and a phase tag the same
    phase-composition machinery emits a serving phase graph instead:

    * ``PREFILL`` — the pipelined full-prompt forward pass (no
      backward, optimizer, or gradient-bucket tasks), reusing the exact
      forward-chunk emission of training, so a prefill graph is the
      forward-only subgraph of the matching training graph;
    * ``DECODE`` — one single-token forward step whose attention
      operators are scaled by the accumulated KV-cache length.

    Both phases reuse the TP All-Reduce and PP Send-Receive timing from
    the network layer, sized to the phase's sequence length.
    """

    def __init__(self, model: ModelConfig, system: SystemConfig,
                 plan: ParallelismConfig, training: TrainingConfig | None,
                 lookup: OperatorToTaskTable, nccl: NcclModel,
                 granularity: Granularity = Granularity.OPERATOR, *,
                 workload: InferenceWorkload | None = None,
                 phase: str | None = None) -> None:
        if (workload is None) != (phase is None):
            raise ConfigError(
                "workload and phase must be given together")
        if workload is not None:
            if phase not in INFERENCE_PHASES:
                raise ConfigError(
                    f"phase must be one of {INFERENCE_PHASES}, "
                    f"got {phase!r}")
            if plan.virtual_stages > 1:
                raise ConfigError(
                    "inference graphs do not support virtual pipeline "
                    "stages (interleaving is a training-schedule "
                    "optimisation)")
            if training is None:
                training = workload.training_proxy(plan.data)
        elif training is None:
            raise ConfigError("training config required for the "
                              "training workload")
        validate_plan(model, plan, training, plan.total_gpus)
        if plan.total_gpus > system.num_gpus:
            raise ConfigError(
                f"plan needs {plan.total_gpus} GPUs, system has "
                f"{system.num_gpus}")
        self.model = model
        self.system = system
        self.plan = plan
        self.training = training
        self.lookup = lookup
        self.nccl = nccl
        self.granularity = granularity
        self.workload = workload
        self.phase = phase
        # Phase shape: training and prefill run full sequences (the
        # model's seq_length / the workload's prompt length); decode
        # runs one token per sequence over the accumulated KV cache.
        if workload is None:
            self._seq = model.seq_length
            self._kv = 0
            self._compute_kind = KIND_COMPUTE
        elif phase == PREFILL:
            self._seq = workload.prompt_len
            self._kv = 0
            self._compute_kind = PREFILL
        else:
            self._seq = 1
            self._kv = workload.decode_kv_length
            self._compute_kind = DECODE

        self.topology = ClusterTopology(system, plan)
        self.nmb = num_micro_batches(plan, training)
        self.lps = layers_per_stage(model, plan)
        # Virtual pipelining: v model chunks of lpc layers per stage
        # (v == 1 means one chunk covering the whole stage).
        self.v = plan.virtual_stages
        self.lpc = self.lps // self.v
        self.vocab = model.padded_vocab_size(plan.tensor)
        self._init_operators()
        self._init_comm_times()
        self._init_stage_params()
        self._init_timings()

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _init_operators(self) -> None:
        """Instantiate the necessary operators (one per signature).

        Operators take the *phase* sequence length (== the model's
        seq_length for training), and the forward MHA carries the
        phase's KV depth; backward operators exist only for the
        training workload.
        """
        model, plan = self.model, self.plan
        common = dict(micro_batch=plan.micro_batch_size,
                      seq_length=self._seq,
                      hidden_size=model.hidden_size,
                      num_heads=model.num_heads,
                      tensor_parallel=plan.tensor)
        self.op_fwd_mha = CompOperator(OpKind.FWD_MHA, kv_length=self._kv,
                                       **common)
        self.op_fwd_ffn = CompOperator(OpKind.FWD_FFN, **common)
        self.op_fwd_embed = CompOperator(OpKind.FWD_EMBEDDING,
                                         vocab_size=self.vocab, **common)
        self.op_fwd_head = CompOperator(OpKind.FWD_LM_HEAD,
                                        vocab_size=self.vocab, **common)
        if self.phase is not None:
            self.op_bwd_mha = None
            self.op_bwd_ffn = None
            self.op_bwd_embed = None
            self.op_bwd_head = None
            return
        self.op_bwd_mha = CompOperator(OpKind.BWD_MHA, recompute=plan.recompute,
                                       **common)
        self.op_bwd_ffn = CompOperator(OpKind.BWD_FFN, recompute=plan.recompute,
                                       **common)
        self.op_bwd_embed = CompOperator(OpKind.BWD_EMBEDDING,
                                         vocab_size=self.vocab, **common)
        self.op_bwd_head = CompOperator(OpKind.BWD_LM_HEAD,
                                        vocab_size=self.vocab, **common)

    def _init_comm_times(self) -> None:
        """Pre-time every communication operator the graph will use."""
        model, plan = self.model, self.plan
        b, s, h = plan.micro_batch_size, self._seq, model.hidden_size
        if plan.tensor > 1:
            link = self.topology.tensor_link()
            self.tp_ar = tensor_allreduce(b, s, h, plan.tensor, link)
            self.tp_ar_time = self.nccl.time(self.tp_ar)
        else:
            self.tp_ar = None
            self.tp_ar_time = 0.0
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
        """Per-stage parameter counts per GPU and gradient buckets."""
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

        if plan.gradient_bucketing:
            buckets = min(plan.num_gradient_buckets, self.lps)
        else:
            buckets = 1
        # Contiguous layer partition: bucket k covers layers
        # [k*chunk, ...); the deepest bucket's gradients complete first.
        base, extra = divmod(self.lps, buckets)
        self.bucket_layers: list[list[int]] = []
        cursor = 0
        for k in range(buckets):
            width = base + (1 if k < extra else 0)
            self.bucket_layers.append(list(range(cursor, cursor + width)))
            cursor += width

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
        """Build the timing table: slot key -> duration in seconds.

        Every task the builder emits draws its duration from exactly one
        slot here, and records that slot key in the assembler; a
        compiled :class:`GraphStructure` can therefore be *re-timed* —
        its duration vector refilled from a fresh builder's table —
        without re-running graph assembly. Values are computed with the
        same expressions emission previously used inline, so graphs (and
        predictions) are bit-identical to the pre-split builder.
        """
        plan = self.plan
        timings: dict[str, float] = {}
        if self.phase is None:
            ops = self._comp_ops = (
                self.op_fwd_embed, self.op_fwd_mha, self.op_fwd_ffn,
                self.op_fwd_head, self.op_bwd_head, self.op_bwd_ffn,
                self.op_bwd_mha, self.op_bwd_embed)
        else:
            # Inference phases are forward-only: no backward, optimizer,
            # or gradient-sync slots exist in the table at all.
            ops = self._comp_ops = (
                self.op_fwd_embed, self.op_fwd_mha, self.op_fwd_ffn,
                self.op_fwd_head)
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

        self._dp_comms: dict[tuple[int, int], object] = {}
        if plan.data > 1 and self.phase is None:
            dp_link = self.topology.data_link()
            dp_concurrency = self.topology.concurrent_data_groups_per_node()
            for stage in range(plan.pipeline):
                for bucket in range(len(self.bucket_layers)):
                    comm = data_allreduce(
                        self._bucket_bytes(stage, bucket), plan.data, dp_link,
                        concurrent_groups=dp_concurrency)
                    self._dp_comms[(stage, bucket)] = comm
                    timings[f"dp:{stage}:{bucket}"] = self.nccl.time(comm)

        self._wu_ops: dict[int, CompOperator] = {}
        if self.phase is None:
            for stage in range(plan.pipeline):
                wu_op = CompOperator(OpKind.WEIGHT_UPDATE,
                                     num_params=self.stage_params[stage])
                self._wu_ops[stage] = wu_op
                timings[f"wu:{stage}"] = self.lookup.duration_of(wu_op)

        if self.granularity is Granularity.STAGE:
            for stage in range(plan.pipeline):
                for chunk in range(self.v):
                    timings[self._slot("sf", stage, chunk)] = \
                        self._forward_stage_duration(stage, chunk)
                    if self.phase is None:
                        timings[self._slot("sb", stage, chunk)] = \
                            self._backward_stage_duration(stage, chunk)
            if self.phase is None:
                layer_dur = self._backward_layer_duration()
                for stage in range(plan.pipeline):
                    for chunk in range(self.v):
                        for seg_index, (bucket, width) in enumerate(
                                self._bucket_segments(chunk)):
                            duration = width * layer_dur
                            if (seg_index == 0 and stage == plan.pipeline - 1
                                    and chunk == self.v - 1):
                                duration += self.lookup.duration_of(
                                    self.op_bwd_head)
                            if bucket == 0 and stage == 0 and chunk == 0:
                                duration += self.lookup.duration_of(
                                    self.op_bwd_embed)
                            timings[self._slot("sbl", stage, chunk,
                                               bucket)] = duration
        self.timings = timings

    def _slot(self, tag: str, stage: int, chunk: int,
              bucket: int | None = None) -> str:
        """Stage-granularity slot key; ``v == 1`` keys omit the chunk so
        pre-interleaving structures and caches keep their exact keys."""
        parts = [tag, str(stage)]
        if self.v > 1:
            parts.append(str(chunk))
        if bucket is not None:
            parts.append(str(bucket))
        return ":".join(parts)

    def _bucket_segments(self, chunk: int) -> list[tuple[int, int]]:
        """``(bucket, layer-count)`` segments of one chunk's final
        backward, deepest layers first (the order backward visits them).

        Gradient buckets partition a stage's *local* layer range; under
        virtual pipelining a bucket can span chunk boundaries, so each
        chunk's last-micro-batch backward is split at the bucket
        intersections that fall inside its layer slice. With ``v == 1``
        the single chunk yields every bucket at full width — the
        pre-interleaving layout.
        """
        lo, hi = chunk * self.lpc, (chunk + 1) * self.lpc
        segments: list[tuple[int, int]] = []
        for bucket in reversed(range(len(self.bucket_layers))):
            width = sum(1 for layer in self.bucket_layers[bucket]
                        if lo <= layer < hi)
            if width:
                segments.append((bucket, width))
        return segments

    # ------------------------------------------------------------------
    # Structure fingerprint and metadata
    # ------------------------------------------------------------------
    @property
    def structure_key(self) -> str:
        """This builder's :func:`structure_fingerprint` (see there for
        exactly what the fingerprint covers and excludes)."""
        return structure_fingerprint(self.model, self.plan, self.training,
                                     self.granularity,
                                     workload=self.workload,
                                     phase=self.phase)

    def graph_metadata(self) -> dict:
        """The metadata dict a freshly built graph would carry."""
        metadata = {
            "plan": self.plan,
            "model": self.model.name or self.model.describe(),
            "granularity": self.granularity.value,
            "num_micro_batches": self.nmb,
            "layers_per_stage": self.lps,
            "schedule": self.plan.schedule.value,
            "virtual_stages": self.v,
        }
        if self.phase is not None:
            metadata["workload"] = "inference"
            metadata["phase"] = self.phase
        return metadata

    def slot_kernel_counts(self) -> dict[str, int]:
        """Kernel count behind each timing slot, for *this* builder's
        operators (launch-overhead accounting in the testbed emulator).

        Slots absent from the map (comm tasks, per-kernel tasks,
        stage-granularity chunks) execute one kernel launch. Keyed by
        slot so consumers resolve counts against the plan actually being
        measured — never against the representative payloads a cached
        structure captured from a different build.
        """
        counts: dict[str, int] = {}
        if self.granularity is Granularity.OPERATOR:
            for op in self._comp_ops:
                counts[f"op:{op.kind.value}"] = len(self.lookup.tasks_for(op))
        for stage, wu_op in self._wu_ops.items():
            counts[f"wu:{stage}"] = len(self.lookup.tasks_for(wu_op))
        return counts

    def fill_durations(self, structure: GraphStructure) -> np.ndarray:
        """Duration vector for ``structure`` under this builder's timings.

        The retime-without-rebuild fast path: broadcast this builder's
        timing table through the structure's per-task slot indices. The
        structure must have been compiled from a builder with an equal
        :attr:`structure_key` (a missing slot raises SimulationError —
        callers fall back to a full rebuild).
        """
        return structure.retime(self.timings)

    # ------------------------------------------------------------------
    # Chunk bodies (shared by both emitters)
    # ------------------------------------------------------------------
    def _issue_orders(self) -> list[list[ScheduledChunk]]:
        """Each stage's issue order of (phase, micro-batch, chunk) units.

        Inference phases issue their forwards in ascending micro-batch
        order — the forward sub-order of both GPipe and 1F1B — so a
        prefill graph is exactly the forward-only subgraph of the
        matching training graph (same labels, durations, and issue
        order; compute tasks are tagged with the phase kind instead of
        ``compute``).
        """
        p = self.plan.pipeline
        if self.phase is not None:
            return [[ScheduledChunk(FORWARD, mb) for mb in range(self.nmb)]
                    ] * p
        return [schedule_order(self.plan.schedule, stage, p, self.nmb,
                               virtual_stages=self.v)
                for stage in range(p)]

    def _last_backward(self) -> int:
        """Micro-batch whose backward units anchor the gradient buckets
        (``-1`` for inference phases, which have no backward)."""
        if self.phase is not None:
            return -1
        return last_backward_micro_batch(self.plan.schedule, self.nmb)

    def _slot_attributes(self) -> dict[str, tuple[str, str, object]]:
        """``(kind, stream, payload)`` behind every timing slot.

        A task's kind, stream, and payload are functions of its slot,
        exactly like its duration (``timings[slot]``), so both emitters
        read them from this one table.
        """
        compute = self._compute_kind
        attributes: dict[str, tuple[str, str, object]] = {
            "tp_ar": (KIND_TP_COMM, COMPUTE_STREAM, self.tp_ar)}
        for op in self._comp_ops:
            key = op.kind.value
            attributes[f"op:{key}"] = (compute, COMPUTE_STREAM, op)
            if self.granularity is Granularity.KERNEL:
                for index, kernel in enumerate(self.lookup.tasks_for(op)):
                    attributes[f"k:{key}:{index}"] = (
                        compute, COMPUTE_STREAM, kernel)
        for key in self.timings:
            tag = key.split(":", 1)[0]
            if tag == "pp":
                attributes[key] = (KIND_PP_COMM, COMM_STREAM, None)
            elif tag == "sf":
                attributes[key] = (compute, COMPUTE_STREAM, None)
            elif tag in ("sb", "sbl"):
                attributes[key] = (KIND_COMPUTE, COMPUTE_STREAM, None)
        for (stage, bucket), comm in self._dp_comms.items():
            attributes[f"dp:{stage}:{bucket}"] = (KIND_DP_COMM, COMM_STREAM,
                                                 comm)
        for stage, wu_op in self._wu_ops.items():
            attributes[f"wu:{stage}"] = (KIND_WEIGHT_UPDATE, COMPUTE_STREAM,
                                         wu_op)
        return attributes

    def _chunk_body(self, stage: int, forward: bool, chunk: int,
                    last: bool) -> _ChunkBody:
        """Task template of one scheduled unit (see :class:`_ChunkBody`).

        ``last`` marks the backward units of the last-synchronising
        micro-batch, whose bodies carry the gradient-bucket anchors. A
        body depends on its stage only through whether it holds the
        embedding (stage 0, chunk 0) or the LM head (last stage, last
        chunk) — and, at STAGE granularity, through its per-stage slot
        keys — so a pipeline's thousands of units share a few bodies.
        """
        if self.granularity is Granularity.STAGE:
            return self._stage_body(stage, forward, chunk, last)
        slots: list[str] = []
        suffixes: list[str] = []
        kernel = self.granularity is Granularity.KERNEL

        def comp(op: CompOperator, suffix: str) -> None:
            key = op.kind.value
            if not kernel:
                slots.append(f"op:{key}")
                suffixes.append(suffix)
                return
            for index, task in enumerate(self.lookup.tasks_for(op)):
                slots.append(f"k:{key}:{index}")
                suffixes.append(f"{suffix}/{task.name}")

        def tp_allreduce(suffix: str) -> None:
            # Inline tensor-parallel All-Reduce (sequential dependency).
            if self.tp_ar is not None:
                slots.append("tp_ar")
                suffixes.append(suffix)

        embed = stage == 0 and chunk == 0
        head = stage == self.plan.pipeline - 1 and chunk == self.v - 1
        layers = range(chunk * self.lpc, (chunk + 1) * self.lpc)
        if forward:
            if embed:
                comp(self.op_fwd_embed, "/embed")
                tp_allreduce("/embed_ar")
            for layer in layers:
                comp(self.op_fwd_mha, f"/l{layer}/mha")
                tp_allreduce(f"/l{layer}/mha_ar")
                comp(self.op_fwd_ffn, f"/l{layer}/ffn")
                tp_allreduce(f"/l{layer}/ffn_ar")
            if head:
                comp(self.op_fwd_head, "/lm_head")
            return _ChunkBody(tuple(slots), tuple(suffixes), {})
        # Weight-gradient tail of each layer (-1: the embedding).
        tails: dict[int, int] = {}
        if head:
            comp(self.op_bwd_head, "/lm_head")
        for layer in reversed(layers):
            comp(self.op_bwd_ffn, f"/l{layer}/ffn")
            tp_allreduce(f"/l{layer}/ffn_ar")
            comp(self.op_bwd_mha, f"/l{layer}/mha")
            tails[layer] = len(slots) - 1
            tp_allreduce(f"/l{layer}/mha_ar")
        if embed:
            comp(self.op_bwd_embed, "/embed")
            tails[-1] = len(slots) - 1  # embedding grads complete last
        anchors: dict[int, int] = {}
        if last:
            # Backward visits layers deepest-first, so a bucket's
            # gradients are ready when its *shallowest* layer's
            # weight-gradient task retires (the embedding, on stage 0,
            # retires after layer 0) — in the chunk holding that layer.
            for bucket, bucket_layers in enumerate(self.bucket_layers):
                shallowest = min(bucket_layers)
                if shallowest // self.lpc == chunk:
                    anchors[bucket] = tails[-1 if embed and shallowest == 0
                                            else shallowest]
        return _ChunkBody(tuple(slots), tuple(suffixes), anchors)

    def _stage_body(self, stage: int, forward: bool, chunk: int,
                    last: bool) -> _ChunkBody:
        """Stage-granularity unit: one task per chunk.

        The last micro-batch's backward chunks are split at
        gradient-bucket boundaries (deepest layers first) so bucket
        All-Reduces can still overlap the remaining backward compute; a
        bucket anchors in the chunk holding its shallowest layer,
        because backward visits chunks in descending order and that
        chunk therefore retires the bucket's final gradients.
        """
        if forward:
            return _ChunkBody((self._slot("sf", stage, chunk),), ("",), {})
        if not last:
            return _ChunkBody((self._slot("sb", stage, chunk),), ("",), {})
        slots: list[str] = []
        suffixes: list[str] = []
        anchors: dict[int, int] = {}
        for bucket, _width in self._bucket_segments(chunk):
            if min(self.bucket_layers[bucket]) // self.lpc == chunk:
                anchors[bucket] = len(slots)
            slots.append(self._slot("sbl", stage, chunk, bucket))
            suffixes.append(f"/bucket{bucket}")
        return _ChunkBody(tuple(slots), tuple(suffixes), anchors)

    # ------------------------------------------------------------------
    # Stage-granularity chunk durations
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Tiled compilation (the production path)
    # ------------------------------------------------------------------
    def compile(self) -> GraphStructure:
        """Compile the step straight into its replay structure.

        Each distinct chunk body is emitted once (:meth:`_chunk_body`)
        and tiled over every stage's issue order with numpy offsets, in
        exactly :meth:`build`'s task-id order; the stream-chain,
        pipeline Send-Receive, gradient-bucket, and weight-update edges
        are added as arrays. No per-task Python object is created:
        kinds, streams, payloads, and durations come from per-slot
        tables, and labels are formatted only when a timeline or trace
        asks for them. The result equals
        ``GraphStructure.compile(self.build(), slots)`` array for array.

        The compiled structure carries timing-slot keys, so it can later
        be re-timed by any builder with the same :attr:`structure_key`.

        Raises:
            SimulationError: A negative slot duration (named by the
                label of the first task using it).
        """
        p, v, nmb = self.plan.pipeline, self.v, self.nmb
        orders = self._issue_orders()
        phases, mbs, chunks = zip(*itertools.chain.from_iterable(orders))
        units_per_stage = [len(units) for units in orders]
        u_stage = np.repeat(np.arange(p), units_per_stage)
        u_fwd = np.array(phases) == FORWARD
        u_mb = np.array(mbs, dtype=np.intp)
        u_chunk = np.array(chunks, dtype=np.intp)
        u_last = ~u_fwd & (u_mb == self._last_backward())
        # Units with equal (stage role, chunk, phase, last) share a
        # body; STAGE bodies name their stage in their slot keys.
        if self.granularity is Granularity.STAGE:
            role = u_stage
        else:
            role = (u_stage == 0) + 2 * (u_stage == p - 1)
        code = ((role * v + u_chunk) * 2 + u_fwd) * 2 + u_last
        _, first, u_body = np.unique(code, return_index=True,
                                     return_inverse=True)
        bodies = [self._chunk_body(int(u_stage[unit]), bool(u_fwd[unit]),
                                   int(u_chunk[unit]), bool(u_last[unit]))
                  for unit in first.tolist()]

        # Chunk tasks: each unit's body, stamped at the unit's offset.
        table = _TaskTable()
        body_len = np.array([len(body.slots) for body in bodies],
                            dtype=np.intp)
        body_start = np.cumsum(body_len) - body_len
        u_len = body_len[u_body]
        u_end = np.cumsum(u_len)
        u_start = u_end - u_len
        local = (np.repeat(body_start[u_body] - u_start, u_len)
                 + np.arange(int(u_end[-1]), dtype=np.intp))
        chunk_device = np.repeat(u_stage, u_len)
        table.add(chunk_device, table.slot_ids(
            key for body in bodies for key in body.slots)[local])
        # Every chunk task is on its stage's compute stream, and a
        # stage's units are contiguous: the chain is consecutive ids.
        chained = np.flatnonzero(chunk_device[1:] == chunk_device[:-1])
        table.link(chained, chained + 1)

        # Entry/exit task of every (stage, chunk, micro-batch) unit.
        unit_of = np.zeros((2, p, v, nmb), dtype=np.intp)
        unit_of[u_fwd.astype(np.intp), u_stage, u_chunk, u_mb] = np.arange(
            u_stage.size)
        f_entry, f_exit = u_start[unit_of[1]], u_end[unit_of[1]] - 1
        b_entry, b_exit = u_start[unit_of[0]], u_end[unit_of[0]] - 1

        if p > 1:
            self._tile_pipeline_comm(table, f_entry, f_exit, b_entry, b_exit)
        if self.phase is None:
            anchor = np.zeros((p, len(self.bucket_layers)), dtype=np.intp)
            for unit in np.flatnonzero(u_last).tolist():
                for bucket, offset in bodies[u_body[unit]].anchors.items():
                    anchor[u_stage[unit], bucket] = u_start[unit] + offset
            self._tile_gradient_sync(
                table, anchor, u_end[np.cumsum(units_per_stage) - 1] - 1)

        slot_keys = tuple(table.slot_of)
        task_slot = np.concatenate(table.slot)
        attributes = self._slot_attributes()
        labels = _TiledLabels(self, orders, u_body, bodies)
        slot_duration = np.array([self.timings[key] for key in slot_keys],
                                 dtype=np.float64)
        negative = np.flatnonzero(slot_duration < 0)
        if negative.size:
            task = int(np.flatnonzero(np.isin(task_slot, negative))[0])
            raise SimulationError(
                f"negative duration for task {labels()[task]!r}")
        kind_of: dict[str, int] = {}
        slot_kind = np.array([kind_of.setdefault(attributes[key][0],
                                                 len(kind_of))
                              for key in slot_keys], dtype=np.intp)
        src = np.concatenate(table.src)
        dst = np.concatenate(table.dst)
        # Children in ascending task id within each parent: the order
        # GraphAssembler links them in.
        edge_order = np.lexsort((dst, src))
        return GraphStructure(
            num_devices=p, device=np.concatenate(table.device),
            kinds=tuple(kind_of), kind=slot_kind[task_slot],
            src=src[edge_order], dst=dst[edge_order],
            duration=slot_duration[task_slot],
            slot_keys=slot_keys, slot=task_slot,
            stream={key: attributes[key][1] for key in slot_keys},
            payload={key: attributes[key][2] for key in slot_keys},
            label=labels, metadata=self.graph_metadata())

    def _tile_pipeline_comm(self, table: _TaskTable, f_entry: np.ndarray,
                            f_exit: np.ndarray, b_entry: np.ndarray,
                            b_exit: np.ndarray) -> None:
        """Send-Receive tasks at every stage boundary, in
        :meth:`_emit_pipeline_comm` order; ``*_entry``/``*_exit`` map
        (stage, chunk, micro-batch) to a unit's first/last task."""
        p, v, nmb = self.plan.pipeline, self.v, self.nmb
        pp_slot = table.slot_ids(f"pp:{boundary}" for boundary in range(p - 1))
        if self.phase is not None:
            # Forward sends only, (boundary, micro-batch)-major.
            bnd = np.repeat(np.arange(p - 1), nmb)
            mb = np.tile(np.arange(nmb), p - 1)
            send = table.add(bnd, pp_slot[bnd])
            table.link(f_exit[bnd, 0, mb], send)
            table.link(send, f_entry[bnd + 1, 0, mb])
            return
        # A send (chunk c forward) and a receive (its gradient back) per
        # boundary, micro-batch, and chunk, in that nesting.
        bnd = np.repeat(np.arange(p - 1), nmb * v)
        mb = np.tile(np.repeat(np.arange(nmb), v), p - 1)
        ch = np.tile(np.arange(v), (p - 1) * nmb)
        send = table.add(np.stack([bnd, bnd + 1], axis=1).ravel(),
                         np.repeat(pp_slot[bnd], 2))[::2]
        table.link(f_exit[bnd, ch, mb], send)
        table.link(send, f_entry[bnd + 1, ch, mb])
        table.link(b_exit[bnd + 1, ch, mb], send + 1)
        table.link(send + 1, b_entry[bnd, ch, mb])
        if v > 1:
            # Wrap-around hops: chunk c on the last stage feeds chunk c+1
            # on stage 0, and the gradient comes back.
            ch = np.repeat(np.arange(v - 1), nmb)
            mb = np.tile(np.arange(nmb), v - 1)
            send = table.add(
                np.tile(np.array([p - 1, 0]), ch.size),
                np.repeat(table.slot_ids(["pp:wrap"]), 2 * ch.size))[::2]
            table.link(f_exit[p - 1, ch, mb], send)
            table.link(send, f_entry[0, ch + 1, mb])
            table.link(b_exit[0, ch + 1, mb], send + 1)
            table.link(send + 1, b_entry[p - 1, ch, mb])

    def _tile_gradient_sync(self, table: _TaskTable, anchor: np.ndarray,
                            stage_tail: np.ndarray) -> None:
        """Per stage: the DP bucket All-Reduces (deepest bucket first,
        chained on the comm stream, each after its bucket's ``anchor``
        task), then the weight update after its last All-Reduce and the
        stage's last compute task ``stage_tail`` — which, in every
        schedule, is also the stage's final backward (chunk 0 of the
        last-synchronising micro-batch), so one edge covers both."""
        p = self.plan.pipeline
        num_buckets = len(self.bucket_layers)
        per_stage = num_buckets if self.plan.data > 1 else 0
        stages = np.arange(p)
        block = table.add(np.repeat(stages, per_stage + 1), table.slot_ids(
            key for stage in range(p)
            for key in [f"dp:{stage}:{bucket}"
                        for bucket in reversed(range(per_stage))]
            + [f"wu:{stage}"]))[::per_stage + 1]
        update = block + per_stage
        if per_stage:
            stage = np.repeat(stages, num_buckets)
            rank = np.tile(np.arange(num_buckets), p)
            all_reduce = block[stage] + rank
            table.link(anchor[stage, num_buckets - 1 - rank], all_reduce)
            chained = rank > 0
            table.link(all_reduce[chained] - 1, all_reduce[chained])
            table.link(update - 1, update)
        table.link(stage_tail, update)

    # ------------------------------------------------------------------
    # Reference emission (tests hold compile() to this)
    # ------------------------------------------------------------------
    def build(self) -> ExecutionGraph:
        """Assemble the step's execution graph task by task.

        The reference emitter: every task goes through
        :meth:`GraphAssembler.add`, which wires stream chains and
        explicit dependencies one edge at a time. Predictions compile
        through :meth:`compile` instead; the test suite holds the two
        to identical structures.
        """
        asm = GraphAssembler()
        attributes = self._slot_attributes()
        timings = self.timings
        last_b = self._last_backward()
        bodies: dict[tuple[int, bool, int, bool], _ChunkBody] = {}
        # Task-id maps keyed by (stage, chunk, micro_batch); chunk is
        # always 0 outside the interleaved schedule.
        f_entry: dict[tuple[int, int, int], int] = {}
        f_exit: dict[tuple[int, int, int], int] = {}
        b_entry: dict[tuple[int, int, int], int] = {}
        b_exit: dict[tuple[int, int, int], int] = {}
        # Gradient-readiness anchors: (stage, bucket) -> task id.
        bucket_anchor: dict[tuple[int, int], int] = {}
        for stage, units in enumerate(self._issue_orders()):
            for phase, mb, chunk in units:
                forward = phase == FORWARD
                key = (stage, forward, chunk, not forward and mb == last_b)
                body = bodies.get(key)
                if body is None:
                    body = bodies[key] = self._chunk_body(*key)
                prefix = _chunk_prefix(stage, chunk, phase, mb, self.v)
                entry = len(asm.nodes)
                for slot, suffix in zip(body.slots, body.suffixes):
                    kind, stream, payload = attributes[slot]
                    asm.add(stage, stream, timings[slot], kind,
                            prefix + suffix, payload=payload, slot=slot)
                entries, exits = ((f_entry, f_exit) if forward
                                  else (b_entry, b_exit))
                entries[(stage, chunk, mb)] = entry
                exits[(stage, chunk, mb)] = len(asm.nodes) - 1
                for bucket, offset in body.anchors.items():
                    bucket_anchor[(stage, bucket)] = entry + offset
        if self.phase is not None:
            self._emit_forward_sends(asm, f_exit, f_entry)
        else:
            self._emit_pipeline_comm(asm, f_exit, f_entry, b_exit, b_entry)
            self._emit_gradient_sync(asm, b_exit, bucket_anchor, last_b)
        return asm.finish(num_devices=self.plan.pipeline,
                          metadata=self.graph_metadata())

    def _emit_forward_sends(self, asm, f_exit, f_entry) -> None:
        """Inference: only the forward half of the pipeline P2P pass."""
        for boundary in range(self.plan.pipeline - 1):
            for mb in range(self.nmb):
                send = asm.add(boundary, COMM_STREAM,
                               self.send_time[boundary], KIND_PP_COMM,
                               f"s{boundary}->s{boundary + 1}/F{mb}",
                               deps=(f_exit[(boundary, 0, mb)],),
                               chain=False, slot=f"pp:{boundary}")
                asm.link(send, f_entry[(boundary + 1, 0, mb)])

    def _emit_pipeline_comm(self, asm, f_exit, f_entry, b_exit, b_entry):
        """Insert Send-Receive tasks at every stage boundary (Figure 6).

        Interleaved plans carry every chunk across each boundary, plus
        the wrap-around hops: forward output of chunk ``c`` on the last
        stage feeds chunk ``c+1`` on stage 0, and chunk ``c+1``'s
        gradient on stage 0 feeds chunk ``c``'s backward on the last
        stage.
        """
        p, v = self.plan.pipeline, self.v
        for boundary in range(p - 1):
            for mb in range(self.nmb):
                for chunk in range(v):
                    mid = "" if v == 1 else f"/c{chunk}"
                    send = asm.add(boundary, COMM_STREAM,
                                   self.send_time[boundary], KIND_PP_COMM,
                                   f"s{boundary}->s{boundary + 1}{mid}/F{mb}",
                                   deps=(f_exit[(boundary, chunk, mb)],),
                                   chain=False, slot=f"pp:{boundary}")
                    asm.link(send, f_entry[(boundary + 1, chunk, mb)])
                    recv = asm.add(boundary + 1, COMM_STREAM,
                                   self.send_time[boundary], KIND_PP_COMM,
                                   f"s{boundary + 1}->s{boundary}{mid}/B{mb}",
                                   deps=(b_exit[(boundary + 1, chunk, mb)],),
                                   chain=False, slot=f"pp:{boundary}")
                    asm.link(recv, b_entry[(boundary, chunk, mb)])
        for chunk in range(v - 1):
            for mb in range(self.nmb):
                send = asm.add(p - 1, COMM_STREAM, self.wrap_time,
                               KIND_PP_COMM,
                               f"s{p - 1}/c{chunk}->s0/c{chunk + 1}/F{mb}",
                               deps=(f_exit[(p - 1, chunk, mb)],),
                               chain=False, slot="pp:wrap")
                asm.link(send, f_entry[(0, chunk + 1, mb)])
                recv = asm.add(0, COMM_STREAM, self.wrap_time,
                               KIND_PP_COMM,
                               f"s0/c{chunk + 1}->s{p - 1}/c{chunk}/B{mb}",
                               deps=(b_exit[(0, chunk + 1, mb)],),
                               chain=False, slot="pp:wrap")
                asm.link(recv, b_entry[(p - 1, chunk, mb)])

    def _emit_gradient_sync(self, asm, b_exit, bucket_anchor,
                            last_b) -> None:
        """Insert DP gradient All-Reduces (Figure 5) and weight updates."""
        plan = self.plan
        d = plan.data
        num_buckets = len(self.bucket_layers)
        for stage in range(plan.pipeline):
            wu_deps: list[int] = []
            if d > 1:
                last_ar = None
                for bucket in reversed(range(num_buckets)):
                    comm = self._dp_comms[(stage, bucket)]
                    anchor = bucket_anchor[(stage, bucket)]
                    last_ar = asm.add(stage, COMM_STREAM,
                                      self.timings[f"dp:{stage}:{bucket}"],
                                      KIND_DP_COMM,
                                      f"s{stage}/dp_ar/bucket{bucket}",
                                      deps=(anchor,), payload=comm,
                                      slot=f"dp:{stage}:{bucket}")
                wu_deps.append(last_ar)
            wu_op = self._wu_ops[stage]
            # Chunk 0's backward is the final backward in every
            # schedule's issue order (backward walks chunks descending).
            wu_deps.append(b_exit[(stage, 0, last_b)])
            asm.add(stage, COMPUTE_STREAM, self.timings[f"wu:{stage}"],
                    KIND_WEIGHT_UPDATE, f"s{stage}/weight_update",
                    deps=tuple(wu_deps), payload=wu_op,
                    slot=f"wu:{stage}")

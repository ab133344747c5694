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

**Key, emitter, timings.** A plan's :class:`StructureKey` names
everything its graph's shape depends on, and lists the graph's timing
slots once (:meth:`StructureKey.slot_layout`). The emitter turns the
key — and nothing else — into task, edge and label arrays whose slot
ids index that layout, so plans with equal keys share one compiled
structure by construction. The :class:`GraphBuilder` adds what only its
own model, plan, system and profiles determine: one duration vector
over the layout, computed once per stage role rather than per stage.
It probes each duration by signature — the profile table for the
computation operators, the NCCL model's cost memo for the collectives —
with keys formed from raw numbers by the operator classes' key
functions (``comp_signature``, ``comm_signature``). Operator objects
exist only for a first sighting, which is validated, profiled or costed
and stored, and for a KERNEL key, whose kernel names come from
profiling its computation operators. Refilling a cached structure is
one gather through its slot ids.

**Template tiling.** A pipeline repeats a handful of chunk bodies
thousands of times (MT-NLG: 35 stages x 480 units). The emitter defines
one body per unit role; :meth:`GraphBuilder.compile` stamps the bodies
over the closed-form issue-order arrays with numpy offsets and wires
the inter-chunk edges as arrays. The test suite holds it to a per-task
reference emitter built from the same bodies (``tests/graph_oracle.py``).
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      RecomputeMode, TrainingConfig,
                                      layers_per_stage, num_micro_batches,
                                      validate_plan)
from repro.config.system import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.graph.operators import (CommKind, CommOperator, CommScope,
                                   CompOperator, OpKind, activation_bytes,
                                   comm_signature, comp_signature)
from repro.graph.pipeline import (BACKWARD, FORWARD, issue_orders,
                                  last_backward_micro_batch)
from repro.graph.structure import (COMM_STREAM, COMPUTE_STREAM,
                                   GraphStructure, KIND_COMPUTE,
                                   KIND_DP_COMM, KIND_PP_COMM, KIND_TP_COMM,
                                   KIND_WEIGHT_UPDATE)
from repro.hardware.cluster import ClusterTopology
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.workload import INFERENCE_PHASES, InferenceWorkload, PREFILL

FP16 = 2.0


class Granularity(enum.Enum):
    """Level of detail of the emitted execution graph."""

    KERNEL = "kernel"
    OPERATOR = "operator"
    STAGE = "stage"


# ---------------------------------------------------------------------------
# Process-wide structure cache
# ---------------------------------------------------------------------------
# Compiled GraphStructures keyed by str(StructureKey). Two plans that
# differ only in profiled durations — micro-batch *size* at the same
# micro-batch count, a different tensor degree (at STAGE any, elsewhere
# with tensor parallelism still on), a perturbed device or NCCL model,
# or a repeated VTrain.predict of the same plan — share one compiled
# topology and only refill the duration vector. The cache is per-process
# by design (the workers of a ``DesignSpaceExplorer.explore(workers=N)``
# sweep each warm their own), LRU-evicted against a total-task budget.
#
# All cache operations hold _STRUCTURE_CACHE_LOCK: the `repro serve`
# daemon retimes one shared cache from many handler threads, and the
# OrderedDict mutations (move_to_end on hit, popitem on eviction) are
# not atomic. The lock is uncontended in single-threaded use — one
# acquire per get/put, no allocation — so the warm fast path stays
# within the committed perf baselines.

_STRUCTURE_CACHE: "OrderedDict[str, GraphStructure]" = OrderedDict()
_STRUCTURE_CACHE_LOCK = threading.RLock()
#: Summed ``num_tasks`` of the cached structures, kept up to date by every
#: change to the cache (under the lock), so a put sums nothing.
_cached_tasks = 0

# Hit/miss/eviction accounting lives on the process-wide obs registry
# (single source of truth for `repro stats`); structure_cache_stats()
# below remains the stable dict-shaped view callers and tests use.
_CACHE_HITS = obs.metrics.counter("graph.structure_cache.hits")
_CACHE_MISSES = obs.metrics.counter("graph.structure_cache.misses")
_CACHE_EVICTIONS = obs.metrics.counter("graph.structure_cache.evictions")

#: Cap on the summed task count of cached structures (~200 MB worst
#: case), read at every put.
STRUCTURE_CACHE_TASKS = 1_000_000


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
    """Insert a structure, LRU-evicting down to
    :data:`STRUCTURE_CACHE_TASKS` summed tasks."""
    global _cached_tasks
    with _STRUCTURE_CACHE_LOCK:
        replaced = _STRUCTURE_CACHE.get(key)
        if replaced is not None:
            _cached_tasks -= replaced.num_tasks
        _STRUCTURE_CACHE[key] = structure
        _STRUCTURE_CACHE.move_to_end(key)
        _cached_tasks += structure.num_tasks
        while (_cached_tasks > STRUCTURE_CACHE_TASKS
                and len(_STRUCTURE_CACHE) > 1):
            _, evicted = _STRUCTURE_CACHE.popitem(last=False)
            _cached_tasks -= evicted.num_tasks
            _CACHE_EVICTIONS.increment()


def structure_cache_evict(key: str) -> None:
    """Drop one entry (defensive fallback when a refill mismatches)."""
    global _cached_tasks
    with _STRUCTURE_CACHE_LOCK:
        dropped = _STRUCTURE_CACHE.pop(key, None)
        if dropped is not None:
            _cached_tasks -= dropped.num_tasks


def structure_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction/size counters for this process (thin view over
    the ``graph.structure_cache.*`` obs registry counters)."""
    with _STRUCTURE_CACHE_LOCK:
        return {"hits": _CACHE_HITS.value,
                "misses": _CACHE_MISSES.value,
                "evictions": _CACHE_EVICTIONS.value,
                "entries": len(_STRUCTURE_CACHE),
                "cached_tasks": _cached_tasks}


def clear_structure_cache() -> None:
    """Empty the cache and reset its counters (tests, benchmarks)."""
    global _cached_tasks
    with _STRUCTURE_CACHE_LOCK:
        _STRUCTURE_CACHE.clear()
        _cached_tasks = 0
        for counter in (_CACHE_HITS, _CACHE_MISSES, _CACHE_EVICTIONS):
            counter.reset()


def _phase_shape(model: ModelConfig, workload: InferenceWorkload | None,
                 phase: str | None) -> tuple[int, int]:
    """``(sequence length, KV depth)`` of one step: decode runs one token
    per sequence over the KV cache, the others run full sequences."""
    if phase is None:
        return model.seq_length, 0
    if phase == PREFILL:
        return workload.prompt_len, 0
    return 1, workload.decode_kv_length


@dataclass(frozen=True)
class StructureKey:
    """Everything a compiled structure depends on: the emitter's only
    input and, as ``str(key)``, the structure-cache and sweep-affinity
    key.

    Plans with equal keys emit identical tasks, edges, devices, streams,
    kinds, labels and timing slots; only durations may differ. Pure
    timing inputs stay out: the model enters as layers per stage, and
    the plan as pipeline depth, micro-batch count, schedule, virtual
    stages, gradient-bucket sizes and *whether* the graph has DP and TP
    collective tasks. A STAGE chunk fuses its TP All-Reduces into its
    duration, so a STAGE key has no TP flag. A KERNEL key adds each
    computation operator's kernel names, which end every KERNEL label
    and follow the recompute mode, the sharded shapes and the GPU. An
    inference phase adds its phase tag and drops what its emitter never
    reads: a phase graph issues its forwards in micro-batch order under
    any schedule and syncs no gradients, so its key holds no schedule,
    DP flag or bucket sizes, and its sequence shape (prompt length, KV
    depth) reaches the graph only through durations and, at KERNEL,
    kernel names.
    """

    granularity: Granularity
    #: ``None`` for inference phases.
    schedule: PipelineSchedule | None
    pipeline: int
    layers_per_stage: int
    micro_batches: int
    #: TP All-Reduce tasks: ``t > 1`` at OPERATOR and KERNEL, never at STAGE.
    tensor_parallel: bool
    data_parallel: bool
    bucket_sizes: tuple[int, ...]
    virtual_stages: int = 1
    #: Sorted ``(operator kind, kernel names)`` pairs; KERNEL keys only.
    kernels: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: Inference phase, ``None`` for training.
    phase: str | None = None

    @classmethod
    def of(cls, model: ModelConfig, plan: ParallelismConfig,
           training: TrainingConfig, granularity: Granularity, *,
           workload: InferenceWorkload | None = None,
           phase: str | None = None,
           kernels: Mapping[str, Sequence[str]] | None = None,
           ) -> "StructureKey":
        """The key of one plan's step graph. ``training`` is the
        workload's proxy config for inference phases; ``kernels`` maps
        each computation operator's kind to its kernel names, which only
        (and always) KERNEL keys need.

        Raises:
            ConfigError: A phase without a workload or outside
                ``INFERENCE_PHASES``, or a KERNEL key without kernels.
        """
        lps = layers_per_stage(model, plan)
        names: tuple[tuple[str, tuple[str, ...]], ...] = ()
        if granularity is Granularity.KERNEL:
            if kernels is None:
                raise ConfigError("a KERNEL structure key needs the kernel "
                                  "names of its computation operators")
            names = tuple(sorted((kind, tuple(kernel_names))
                                 for kind, kernel_names in kernels.items()))
        if phase is None:
            buckets = (min(plan.num_gradient_buckets, lps)
                       if plan.gradient_bucketing else 1)
            base, extra = divmod(lps, buckets)
            schedule, data_parallel = plan.schedule, plan.data > 1
            bucket_sizes = tuple(base + (1 if k < extra else 0)
                                 for k in range(buckets))
        else:
            if workload is None or phase not in INFERENCE_PHASES:
                raise ConfigError(
                    f"inference structure key needs a workload and a phase "
                    f"in {INFERENCE_PHASES}, got workload={workload!r} "
                    f"phase={phase!r}")
            schedule, data_parallel, bucket_sizes = None, False, ()
        return cls(granularity=granularity, schedule=schedule,
                   pipeline=plan.pipeline, layers_per_stage=lps,
                   micro_batches=num_micro_batches(plan, training),
                   tensor_parallel=(plan.tensor > 1 and granularity
                                    is not Granularity.STAGE),
                   data_parallel=data_parallel, bucket_sizes=bucket_sizes,
                   virtual_stages=plan.virtual_stages, kernels=names,
                   phase=phase)

    def __str__(self) -> str:
        """The key as text (memoized per key, as :meth:`slot_layout`)."""
        return _key_text(self)

    def bucket_layers(self) -> list[range]:
        """Local layers of each gradient bucket: a contiguous partition,
        shallowest bucket first; the deepest bucket's gradients complete
        first."""
        ends = itertools.accumulate(self.bucket_sizes)
        return [range(end - size, end)
                for size, end in zip(self.bucket_sizes, ends)]

    def bucket_segments(self, chunk: int) -> tuple[tuple[int, int], ...]:
        """``(bucket, layer-count)`` segments of one chunk's final
        backward, deepest layers first (the order backward visits them).

        Gradient buckets partition a stage's *local* layer range; under
        virtual pipelining a bucket can span chunk boundaries, so each
        chunk's last-micro-batch backward is split at the bucket
        intersections that fall inside its layer slice. With ``v == 1``
        the single chunk yields every bucket at full width. Memoized per
        key, as :meth:`slot_layout`.
        """
        return _chunk_segments(self)[chunk]

    def stage_slot(self, tag: str, stage: int, chunk: int,
                   bucket: int | None = None) -> str:
        """Stage-granularity slot key; ``v == 1`` keys omit the chunk so
        pre-interleaving structures keep their exact keys."""
        parts = [tag, str(stage)]
        if self.virtual_stages > 1:
            parts.append(str(chunk))
        if bucket is not None:
            parts.append(str(bucket))
        return ":".join(parts)

    def slot_layout(self) -> tuple[str, ...]:
        """Every timing slot of this key's graph, once, in the order of
        :attr:`GraphBuilder.slot_durations` (memoized per key).

        The slots every stage shares come first: the computation
        operators (their kernels at KERNEL), the TP All-Reduce outside
        STAGE, each pipeline hop, then the wrap-around hop. One row of
        per-stage slots per stage follows, all rows alike: the STAGE
        forward, backward and last-backward bucket chunks, the DP bucket
        All-Reduces, and the weight update. Each slot backs at least one
        task, and the emitter's slot ids index into this tuple.
        """
        return _slot_layout(self)


#: Computation operators of a training step, in slot-layout order;
#: inference phases run the four forward ones.
_COMPUTE_OPS = (OpKind.FWD_EMBEDDING, OpKind.FWD_MHA, OpKind.FWD_FFN,
                OpKind.FWD_LM_HEAD, OpKind.BWD_LM_HEAD, OpKind.BWD_FFN,
                OpKind.BWD_MHA, OpKind.BWD_EMBEDDING)


# A key's text, bucket segments and slot layout are each memoized on
# their own: a key's text exists even where its layout does not (a KERNEL
# key naming the kernels of only some operators).
@functools.lru_cache(maxsize=1024)
def _key_text(key: StructureKey) -> str:
    """``str(key)``, shared by equal keys."""
    training = key.phase is None
    parts = [f"g={key.granularity.value}"]
    if training:
        parts.append(f"sched={key.schedule.value}")
    parts += [f"p={key.pipeline}", f"lps={key.layers_per_stage}",
              f"nmb={key.micro_batches}"]
    if key.granularity is not Granularity.STAGE:  # no TP flag at STAGE
        parts.append(f"tp={int(key.tensor_parallel)}")
    if training:
        parts.append(f"dp={int(key.data_parallel)}")
        parts.append("buckets=" + ",".join(str(size) for size
                                           in key.bucket_sizes))
    # Optional parts are omitted at their defaults, so v=1 training keys
    # read as they did before interleaving and inference.
    if key.virtual_stages > 1:
        parts.append(f"v={key.virtual_stages}")
    if key.kernels:
        digest = hashlib.sha256(json.dumps(key.kernels).encode())
        parts.append(f"kernels={digest.hexdigest()[:16]}")
    if not training:
        parts.append("wl=inference")
        parts.append(f"ph={key.phase}")
    return ";".join(parts)


@functools.lru_cache(maxsize=1024)
def _chunk_segments(key: StructureKey,
                    ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every chunk's :meth:`StructureKey.bucket_segments`, shared by
    equal keys."""
    lpc = key.layers_per_stage // key.virtual_stages
    deepest_first = list(reversed(list(enumerate(key.bucket_layers()))))
    chunks = []
    for chunk in range(key.virtual_stages):
        lo, hi = chunk * lpc, (chunk + 1) * lpc
        segments = []
        for bucket, layers in deepest_first:
            width = len(range(max(lo, layers.start), min(hi, layers.stop)))
            if width:
                segments.append((bucket, width))
        chunks.append(tuple(segments))
    return tuple(chunks)


@functools.lru_cache(maxsize=1024)
def _slot_layout(key: StructureKey) -> tuple[str, ...]:
    """:meth:`StructureKey.slot_layout`, shared by equal keys."""
    training = key.phase is None
    kinds = [op.value for op in (_COMPUTE_OPS if training
                                 else _COMPUTE_OPS[:4])]
    slots: list[str] = []
    if key.granularity is Granularity.OPERATOR:
        slots += [f"op:{kind}" for kind in kinds]
    elif key.granularity is Granularity.KERNEL:
        kernels = dict(key.kernels)
        slots += [f"k:{kind}:{index}" for kind in kinds
                  for index in range(len(kernels[kind]))]
    if key.tensor_parallel:
        slots.append("tp_ar")
    slots += [f"pp:{boundary}" for boundary in range(key.pipeline - 1)]
    if key.virtual_stages > 1:
        slots.append("pp:wrap")
    chunks = range(key.virtual_stages)
    for stage in range(key.pipeline):
        if key.granularity is Granularity.STAGE:
            slots += [key.stage_slot("sf", stage, chunk) for chunk in chunks]
            if training:
                # Every backward is the last-synchronising one when there
                # is one micro-batch, so no plain backward chunk exists.
                if key.micro_batches > 1:
                    slots += [key.stage_slot("sb", stage, chunk)
                              for chunk in chunks]
                slots += [key.stage_slot("sbl", stage, chunk, bucket)
                          for chunk in chunks
                          for bucket, _ in key.bucket_segments(chunk)]
        if training:
            if key.data_parallel:
                slots += [f"dp:{stage}:{bucket}"
                          for bucket in range(len(key.bucket_sizes))]
            slots.append(f"wu:{stage}")
    return tuple(slots)


def structure_affinity(model: ModelConfig, plan: ParallelismConfig,
                       training: TrainingConfig | None,
                       granularity: Granularity) -> str | None:
    """Best-effort ``str(StructureKey.of(...))`` for sweep grouping.

    Returns ``None`` when the key cannot be derived here: without a
    training recipe (serving sweeps), at KERNEL granularity (its key
    holds kernel names, which need a profiling lookup), and for
    structurally invalid plans (they fail fast during evaluation
    anyway). The sweep loop sorts those last in their original order.
    """
    if training is None or granularity is Granularity.KERNEL:
        return None
    try:
        return str(StructureKey.of(model, plan, training, granularity))
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

    def __init__(self, slot_layout: tuple[str, ...]) -> None:
        self.device: list[np.ndarray] = []
        self.slot: list[np.ndarray] = []
        self.src: list[np.ndarray] = []
        self.dst: list[np.ndarray] = []
        self.slot_of = {key: index for index, key in enumerate(slot_layout)}
        self.num_tasks = 0

    def slot_ids(self, keys) -> np.ndarray:
        """Positions of timing-slot ``keys`` in the key's slot layout."""
        return np.array([self.slot_of[key] for key in keys], dtype=np.intp)

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


#: Kind of the tasks behind each slot tag; "op", "k" and "sf" tasks take
#: the phase's compute kind.
_SLOT_KINDS = {"sb": KIND_COMPUTE, "sbl": KIND_COMPUTE, "tp_ar": KIND_TP_COMM,
               "pp": KIND_PP_COMM, "dp": KIND_DP_COMM, "wu": KIND_WEIGHT_UPDATE}


class _Emitter:
    """Turns a :class:`StructureKey` into a step's tasks, edges and labels.

    The key is the constructor's only argument, so the emitter cannot
    read a setting the key lacks: plans with equal keys get equal
    structures, which is what makes the structure cache right.
    """

    def __init__(self, key: StructureKey) -> None:
        self.key = key
        self.lpc = key.layers_per_stage // key.virtual_stages
        self.bucket_layers = key.bucket_layers()
        self.kernels = dict(key.kernels)

    def attributes(self, slot: str) -> tuple[str, str]:
        """``(kind, stream)`` of the tasks drawing on timing ``slot``: a
        function of the slot's tag and the phase alone."""
        tag = slot.split(":", 1)[0]
        return (_SLOT_KINDS.get(tag, self.key.phase or KIND_COMPUTE),
                COMM_STREAM if tag in ("pp", "dp") else COMPUTE_STREAM)

    def last_backward(self) -> int:
        """Micro-batch whose backward units anchor the gradient buckets
        (``-1`` for inference phases, which have no backward)."""
        if self.key.phase is not None:
            return -1
        return last_backward_micro_batch(self.key.schedule,
                                         self.key.micro_batches)

    def chunk_body(self, stage: int, forward: bool, chunk: int,
                   last: bool) -> _ChunkBody:
        """Task template of one scheduled unit (see :class:`_ChunkBody`).

        ``last`` marks the backward units of the last-synchronising
        micro-batch, whose bodies carry the gradient-bucket anchors. A
        body depends on its stage only through whether it holds the
        embedding (stage 0, chunk 0) or the LM head (last stage, last
        chunk) — and, at STAGE granularity, through its per-stage slot
        keys — so a pipeline's thousands of units share a few bodies.
        """
        key = self.key
        if key.granularity is Granularity.STAGE:
            return self._stage_body(stage, forward, chunk, last)
        slots: list[str] = []
        suffixes: list[str] = []
        kernel = key.granularity is Granularity.KERNEL

        def comp(op: OpKind, suffix: str) -> None:
            name = op.value
            if not kernel:
                slots.append(f"op:{name}")
                suffixes.append(suffix)
                return
            for index, kernel_name in enumerate(self.kernels[name]):
                slots.append(f"k:{name}:{index}")
                suffixes.append(f"{suffix}/{kernel_name}")

        def tp_allreduce(suffix: str) -> None:
            # Inline tensor-parallel All-Reduce (sequential dependency).
            if key.tensor_parallel:
                slots.append("tp_ar")
                suffixes.append(suffix)

        embed = stage == 0 and chunk == 0
        head = stage == key.pipeline - 1 and chunk == key.virtual_stages - 1
        layers = range(chunk * self.lpc, (chunk + 1) * self.lpc)
        if forward:
            if embed:
                comp(OpKind.FWD_EMBEDDING, "/embed")
                tp_allreduce("/embed_ar")
            for layer in layers:
                comp(OpKind.FWD_MHA, f"/l{layer}/mha")
                tp_allreduce(f"/l{layer}/mha_ar")
                comp(OpKind.FWD_FFN, f"/l{layer}/ffn")
                tp_allreduce(f"/l{layer}/ffn_ar")
            if head:
                comp(OpKind.FWD_LM_HEAD, "/lm_head")
            return _ChunkBody(tuple(slots), tuple(suffixes), {})
        # Weight-gradient tail of each layer (-1: the embedding).
        tails: dict[int, int] = {}
        if head:
            comp(OpKind.BWD_LM_HEAD, "/lm_head")
        for layer in reversed(layers):
            comp(OpKind.BWD_FFN, f"/l{layer}/ffn")
            tp_allreduce(f"/l{layer}/ffn_ar")
            comp(OpKind.BWD_MHA, f"/l{layer}/mha")
            tails[layer] = len(slots) - 1
            tp_allreduce(f"/l{layer}/mha_ar")
        if embed:
            comp(OpKind.BWD_EMBEDDING, "/embed")
            tails[-1] = len(slots) - 1  # embedding grads complete last
        anchors: dict[int, int] = {}
        if last:
            # Backward visits layers deepest-first, so a bucket's
            # gradients are ready when its *shallowest* layer's
            # weight-gradient task retires (the embedding, on stage 0,
            # retires after layer 0) — in the chunk holding that layer.
            for bucket, bucket_layers in enumerate(self.bucket_layers):
                shallowest = bucket_layers.start
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
        key = self.key
        if forward:
            return _ChunkBody((key.stage_slot("sf", stage, chunk),), ("",),
                              {})
        if not last:
            return _ChunkBody((key.stage_slot("sb", stage, chunk),), ("",),
                              {})
        slots: list[str] = []
        suffixes: list[str] = []
        anchors: dict[int, int] = {}
        for bucket, _width in key.bucket_segments(chunk):
            if self.bucket_layers[bucket].start // self.lpc == chunk:
                anchors[bucket] = len(slots)
            slots.append(key.stage_slot("sbl", stage, chunk, bucket))
            suffixes.append(f"/bucket{bucket}")
        return _ChunkBody(tuple(slots), tuple(suffixes), anchors)

    def emit(self) -> dict[str, Any]:
        """Every :class:`GraphStructure` argument but the durations and
        the metadata.

        The units are the columns of
        :func:`~repro.graph.pipeline.issue_orders` (an inference phase's
        forward-only order makes a prefill graph exactly the forward
        subgraph of the matching training graph). Each distinct chunk
        body is emitted once (:meth:`chunk_body`) and tiled over them
        with numpy offsets, in the task-id order a per-task emitter
        gives them: every stage's units in issue order, then the
        pipeline Send-Receives, then each stage's gradient sync and
        weight update. Edges are added as arrays and sorted by (parent,
        child). Task slots are positions in the key's
        :meth:`~StructureKey.slot_layout`, kinds and streams come from
        one per-slot table, and :meth:`labels` formats from the unit
        columns on first use.
        """
        key = self.key
        p, v, nmb = key.pipeline, key.virtual_stages, key.micro_batches
        orders = issue_orders(key.schedule, p, nmb, virtual_stages=v)
        units = orders[0].shape[1]
        u_stage = np.repeat(np.arange(p), units)
        u_fwd, u_mb, u_chunk = (column.ravel() for column in orders)
        u_last = ~u_fwd & (u_mb == self.last_backward())
        # Units with equal (stage role, chunk, phase, last) share a
        # body; STAGE bodies name their stage in their slot keys.
        if key.granularity is Granularity.STAGE:
            role = u_stage
        else:
            role = (u_stage == 0) + 2 * (u_stage == p - 1)
        code = ((role * v + u_chunk) * 2 + u_fwd) * 2 + u_last
        _, first, u_body = np.unique(code, return_index=True,
                                     return_inverse=True)
        bodies = [self.chunk_body(int(u_stage[unit]), bool(u_fwd[unit]),
                                  int(u_chunk[unit]), bool(u_last[unit]))
                  for unit in first.tolist()]

        # Chunk tasks: each unit's body, stamped at the unit's offset.
        slot_keys = key.slot_layout()
        table = _TaskTable(slot_keys)
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
            slot for body in bodies for slot in body.slots)[local])
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
        if key.phase is None:
            anchor = np.zeros((p, len(key.bucket_sizes)), dtype=np.intp)
            for unit in np.flatnonzero(u_last).tolist():
                for bucket, offset in bodies[u_body[unit]].anchors.items():
                    anchor[u_stage[unit], bucket] = u_start[unit] + offset
            self._tile_gradient_sync(table, anchor,
                                     u_end[units - 1::units] - 1)

        task_slot = np.concatenate(table.slot)
        attributes = [self.attributes(slot) for slot in slot_keys]
        kind_of: dict[str, int] = {}
        slot_kind = np.array([kind_of.setdefault(kind, len(kind_of))
                              for kind, _ in attributes], dtype=np.intp)
        src = np.concatenate(table.src)
        dst = np.concatenate(table.dst)
        # Children in ascending task id within each parent: the order a
        # per-task emitter links them in (one stable sort by the pair).
        edge_order = np.argsort(src * table.num_tasks + dst, kind="stable")
        self._units = (orders, u_body, [body.suffixes for body in bodies])
        return dict(
            num_devices=p, device=np.concatenate(table.device),
            kinds=tuple(kind_of), kind=slot_kind[task_slot],
            src=src[edge_order], dst=dst[edge_order],
            slot_keys=slot_keys, slot=task_slot,
            stream={slot: stream
                    for slot, (_, stream) in zip(slot_keys, attributes)},
            label=self.labels)

    def labels(self) -> list[str]:
        """Task labels of the last :meth:`emit`, in task-id order,
        formatted only when a timeline, trace or the testbed asks for
        them."""
        key = self.key
        p, v, nmb = key.pipeline, key.virtual_stages, key.micro_batches
        orders, u_body, suffixes = self._units
        labels: list[str] = []
        bodies = iter(u_body.tolist())
        rows = zip(*(column.tolist() for column in orders))
        for stage, (forward, mbs, chunks) in enumerate(rows):
            for fwd, mb, chunk in zip(forward, mbs, chunks):
                prefix = _chunk_prefix(stage, chunk,
                                       FORWARD if fwd else BACKWARD, mb, v)
                labels.extend([prefix + suffix
                               for suffix in suffixes[next(bodies)]])
        if key.phase is not None:
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
        all_reduce_buckets = len(key.bucket_sizes) if key.data_parallel else 0
        for stage in range(p):
            labels.extend(f"s{stage}/dp_ar/bucket{bucket}" for bucket
                          in reversed(range(all_reduce_buckets)))
            labels.append(f"s{stage}/weight_update")
        return labels

    def _tile_pipeline_comm(self, table: _TaskTable, f_entry: np.ndarray,
                            f_exit: np.ndarray, b_entry: np.ndarray,
                            b_exit: np.ndarray) -> None:
        """Send-Receive tasks at every stage boundary, boundary-major,
        then micro-batch, then chunk, followed by the wrap-around hops;
        ``*_entry`` / ``*_exit`` map (stage, chunk, micro-batch) to a
        unit's first/last task."""
        key = self.key
        p, v, nmb = key.pipeline, key.virtual_stages, key.micro_batches
        pp_slot = table.slot_ids(f"pp:{boundary}" for boundary in range(p - 1))
        if key.phase is not None:
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
        p = self.key.pipeline
        num_buckets = len(self.key.bucket_sizes)
        per_stage = num_buckets if self.key.data_parallel else 0
        stages = np.arange(p)
        block = table.add(np.repeat(stages, per_stage + 1), table.slot_ids(
            slot for stage in range(p)
            for slot in [f"dp:{stage}:{bucket}"
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

    Attributes:
        key: The plan's :class:`StructureKey`.
        slot_durations: Seconds behind each slot of
            ``key.slot_layout()`` (float64, one entry per slot).
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
        self._seq, self._kv = _phase_shape(model, workload, phase)

        self.topology = ClusterTopology(system, plan)
        self.vocab = model.padded_vocab_size(plan.tensor)
        comp_args = self._comp_args()
        kernels = names = None
        if granularity is Granularity.KERNEL:
            # KERNEL labels end in kernel names, so KERNEL keys hold
            # them: the computation operators are built and profiled,
            # and their kernels time the KERNEL slots too.
            kernels = {args[0].value: lookup.tasks_for(CompOperator(*args))
                       for args in comp_args}
            names = {kind: [kernel.name for kernel in tasks]
                     for kind, tasks in kernels.items()}
        self.key = StructureKey.of(model, plan, training, granularity,
                                   workload=workload, phase=phase,
                                   kernels=names)
        self.nmb = self.key.micro_batches
        self.lps = self.key.layers_per_stage
        # Virtual pipelining: v model chunks of lpc layers per stage
        # (v == 1 means one chunk covering the whole stage).
        self.v = self.key.virtual_stages
        self.lpc = self.lps // self.v
        self.bucket_layers = self.key.bucket_layers()
        # The payload of a TP All-Reduce and of a pipeline hop.
        self._activation = activation_bytes(plan.micro_batch_size, self._seq,
                                            model.hidden_size)
        self.tp_ar_time = 0.0
        if plan.tensor > 1:
            self.tp_ar_time = self._comm_time(
                CommKind.ALL_REDUCE, CommScope.TENSOR, self._activation,
                plan.tensor, self.topology.tensor_link())
        self.slot_durations = self._slot_durations(comp_args, kernels)

    # ------------------------------------------------------------------
    # Timing tables
    # ------------------------------------------------------------------
    def _comp_args(self) -> list[tuple]:
        """:class:`CompOperator` arguments, in field order, of each
        computation operator in slot-layout order (``_COMPUTE_OPS``).

        Operators take the *phase* sequence length (== the model's
        seq_length for training), and the forward MHA carries the
        phase's KV depth; backward operators exist only for the
        training workload.
        """
        model, plan = self.model, self.plan
        shape = (plan.micro_batch_size, self._seq, model.hidden_size,
                 model.num_heads, plan.tensor)
        vocab, plain = self.vocab, RecomputeMode.NONE
        forward = [(OpKind.FWD_EMBEDDING, *shape, vocab, plain),
                   (OpKind.FWD_MHA, *shape, 0, plain, 0, self._kv),
                   (OpKind.FWD_FFN, *shape),
                   (OpKind.FWD_LM_HEAD, *shape, vocab, plain)]
        if self.phase is not None:
            return forward
        recompute = plan.recompute
        return forward + [(OpKind.BWD_LM_HEAD, *shape, vocab, plain),
                          (OpKind.BWD_FFN, *shape, 0, recompute),
                          (OpKind.BWD_MHA, *shape, 0, recompute),
                          (OpKind.BWD_EMBEDDING, *shape, vocab, plain)]

    def _op_time(self, *args, **fields) -> float:
        """Profiled duration of ``CompOperator(*args, **fields)``, read
        from the profile table by signature. The operator is built —
        validated, profiled and stored — only on its first sighting."""
        duration = self.lookup.cached_duration(comp_signature(*args,
                                                              **fields))
        if duration is None:
            duration = self.lookup.duration_of(CompOperator(*args, **fields))
        return duration

    def _comm_time(self, *args) -> float:
        """Latency of ``CommOperator(*args)``, read from the NCCL
        model's cost memo by signature. The operator is built and costed
        only when the memo lacks it."""
        cost = self.nccl.cached_time(comm_signature(*args))
        if cost is None:
            cost = self.nccl.time(CommOperator(*args))
        return cost

    def _slot_durations(self, comp_args: list[tuple],
                        kernels: Mapping[str, Sequence] | None,
                        ) -> np.ndarray:
        """The duration behind every slot of the key's
        :meth:`~StructureKey.slot_layout`, as one float64 vector;
        ``kernels`` maps each computation operator's kind to its
        profiled kernels at KERNEL granularity.

        Per-stage slots differ only by stage role: the first stage holds
        the embedding, the last the LM head and final norm, and the
        stages between hold neither (a one-stage pipeline's stage holds
        both). Each role's row is computed once and repeated over its
        stages; each operator is looked up, and each distinct
        pipeline-hop link and DP payload costed, once. Every value keeps
        the float operations, in their order, of the per-slot reference
        table in ``tests/graph_oracle.py``, so the two agree bit for bit.
        """
        plan, key = self.plan, self.key
        p = plan.pipeline
        granularity = self.granularity
        op_time: list[float] = []
        shared: list[float] = []
        if kernels is not None:
            shared += [kernel.duration for tasks in kernels.values()
                       for kernel in tasks]
        else:
            op_time = [self._op_time(*args) for args in comp_args]
            if granularity is Granularity.OPERATOR:
                shared += op_time
        if key.tensor_parallel:
            shared.append(self.tp_ar_time)
        links = [self.topology.pipeline_hop_link(boundary)
                 for boundary in range(p - 1)]
        if self.v > 1:
            links.append(self.topology.pipeline_wrap_link())
        hop_time = {link: self._comm_time(CommKind.SEND_RECV,
                                          CommScope.PIPELINE,
                                          self._activation, 2, link)
                    for link in dict.fromkeys(links)}
        shared += [hop_time[link] for link in links]

        # Stage roles as (holds the embedding, holds the LM head).
        roles = [(True, p == 1)]
        if p > 2:
            roles.append((False, False))
        if p > 1:
            roles.append((False, True))
        if granularity is Granularity.STAGE:
            segments = _chunk_segments(key)
            rows = [self._stage_chunks(op_time, segments, embed, head)
                    for embed, head in roles]
        else:
            rows = [[] for _ in roles]
        if self.phase is None:
            if key.data_parallel:
                payloads = [self._bucket_bytes(embed, head)
                            for embed, head in roles]
                link = self.topology.data_link()
                groups = self.topology.concurrent_data_groups_per_node()
                dp_time = {payload: self._comm_time(
                               CommKind.ALL_REDUCE, CommScope.DATA, payload,
                               plan.data, link, groups)
                           for payload in dict.fromkeys(
                               itertools.chain.from_iterable(payloads))}
                for row, role_payloads in zip(rows, payloads):
                    row += [dp_time[payload] for payload in role_payloads]
            for row, (embed, head) in zip(rows, roles):
                row.append(self._op_time(
                    OpKind.WEIGHT_UPDATE,
                    num_params=self._update_params(embed, head)))
        # Stage 0 takes the first role's row, the last stage the last
        # role's, and the stages between the middle role's.
        values = shared + rows[0]
        if p > 1:
            values += rows[1] * (p - 2) + rows[-1]
        return np.array(values, dtype=np.float64)

    def _stage_chunks(self, op_time: Sequence[float],
                      segments: Sequence[Sequence[tuple[int, int]]],
                      embed: bool, head: bool) -> list[float]:
        """STAGE chunk durations of a stage role, in slot-layout order;
        ``op_time`` holds the computation operators' durations in
        ``_COMPUTE_OPS`` order, and ``segments`` each chunk's
        :meth:`StructureKey.bucket_segments`. A chunk fuses its compute
        with its TP All-Reduces:

        * each chunk's forward;
        * each chunk's backward, with more than one micro-batch;
        * the last backward's bucket segments, chunk by chunk.
        """
        tp, lpc, last = self.tp_ar_time, self.lpc, self.v - 1
        fwd_embed, fwd_mha, fwd_ffn, fwd_head = op_time[:4]
        row: list[float] = []
        for chunk in range(self.v):
            dur = lpc * (fwd_mha + fwd_ffn + 2 * tp)
            if embed and chunk == 0:
                dur += fwd_embed + tp
            if head and chunk == last:
                dur += fwd_head
            row.append(dur)
        if self.phase is not None:
            return row
        bwd_head, bwd_ffn, bwd_mha, bwd_embed = op_time[4:]
        # One decoder layer's backward.
        layer = bwd_ffn + bwd_mha + 2 * tp
        if self.nmb > 1:
            for chunk in range(self.v):
                dur = lpc * layer
                if head and chunk == last:
                    dur += bwd_head
                if embed and chunk == 0:
                    dur += bwd_embed
                row.append(dur)
        for chunk, chunk_segments in enumerate(segments):
            for index, (bucket, width) in enumerate(chunk_segments):
                dur = width * layer
                if index == 0 and head and chunk == last:
                    dur += bwd_head
                if bucket == 0 and embed and chunk == 0:
                    dur += bwd_embed
                row.append(dur)
        return row

    def _update_params(self, embed: bool, head: bool) -> int:
        """Parameters one GPU's optimizer step updates on a stage
        holding the embedding and/or the LM head (whose final norm it
        also holds)."""
        model, plan = self.model, self.plan
        params = self.lps * (model.params_per_layer() // plan.tensor)
        if embed:
            params += model.embedding_params() // plan.tensor
        if head:
            params += 2 * model.hidden_size
        return params

    def _bucket_bytes(self, embed: bool, head: bool) -> list[float]:
        """FP16 gradient payload of each bucket on a stage role."""
        model, plan = self.model, self.plan
        per_layer = model.params_per_layer() // plan.tensor
        embedding = model.embedding_params() // plan.tensor
        last = len(self.bucket_layers) - 1
        payloads: list[float] = []
        for bucket, layers in enumerate(self.bucket_layers):
            params = len(layers) * per_layer
            if embed and 0 in layers:
                params += embedding
            if head and bucket == last:
                params += 2 * model.hidden_size
            payloads.append(FP16 * params)
        return payloads

    # ------------------------------------------------------------------
    # Metadata and refilling
    # ------------------------------------------------------------------
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
        operators, built here on demand (launch-overhead accounting in
        the testbed emulator).

        Slots absent from the map (comm tasks, per-kernel tasks,
        stage-granularity chunks) execute one kernel launch. Outside
        KERNEL granularity an operator's kernel count is not part of the
        structure key — the recompute mode changes it — so consumers
        resolve counts by slot against the plan actually being measured,
        never against the structure a cache hit returns.
        """
        counts: dict[str, int] = {}
        if self.granularity is Granularity.OPERATOR:
            for args in self._comp_args():
                counts[f"op:{args[0].value}"] = len(
                    self.lookup.tasks_for(CompOperator(*args)))
        if self.phase is None:
            last = self.plan.pipeline - 1
            for stage in range(self.plan.pipeline):
                wu_op = CompOperator(OpKind.WEIGHT_UPDATE,
                                     num_params=self._update_params(
                                         stage == 0, stage == last))
                counts[f"wu:{stage}"] = len(self.lookup.tasks_for(wu_op))
        return counts

    def fill_durations(self, structure: GraphStructure) -> np.ndarray:
        """Duration vector for ``structure`` under this builder's timings.

        The refill-without-rebuild fast path: one gather of
        :attr:`slot_durations` through the structure's per-task slot
        ids, valid only when the structure's slots are this key's
        layout — the same tuple whenever the key's layout is still
        memoized, else an equal one.

        Raises:
            SimulationError: The structure was compiled for another key
                (callers fall back to a full rebuild).
        """
        layout = self.key.slot_layout()
        slot_keys = structure.slot_keys
        if slot_keys is not layout and slot_keys != layout:
            raise SimulationError(
                "structure's timing slots are not the slot layout of "
                f"{self.key}; the structure does not match this builder")
        return self.slot_durations[structure.slot_index]

    # ------------------------------------------------------------------
    # Tiled compilation (the production path)
    # ------------------------------------------------------------------
    def compile(self) -> GraphStructure:
        """Compile the step: the emitter's columns plus this builder's
        durations and metadata. Any builder with an equal :attr:`key`
        can refill the result.

        Raises:
            SimulationError: A negative slot duration (named by the
                label of the first task using it).
        """
        columns = _Emitter(self.key).emit()
        duration = self.slot_durations[columns["slot"]]
        negative = np.flatnonzero(duration < 0)
        if negative.size:
            task = int(negative[0])
            raise SimulationError(
                f"negative duration for task {columns['label']()[task]!r}")
        return GraphStructure(**columns, duration=duration,
                              metadata=self.graph_metadata())

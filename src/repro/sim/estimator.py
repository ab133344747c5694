"""The vTrain facade: predict iteration time, utilization, days, dollars.

:class:`VTrain` wires the whole Figure-4 pipeline together — input
description, operator-granularity graph, profiling-backed lookup table,
task-granularity expansion, and the Algorithm-1 replay — behind two
calls::

    vtrain = VTrain(system)
    prediction = vtrain.predict(model, plan, training)       # one iteration
    estimate = vtrain.estimate_training(model, plan, training)  # end-to-end

Every prediction — ``predict``, ``predict_inference``, each DSE point
and each served job — takes the same two stages:
:meth:`VTrain.prepare_checked` (memory check, then compile or fetch the
phase graphs) and :meth:`VTrain.predict_prepared` (replay, then wrap).

Every simulator takes its profiling state from two process-wide
stores, :func:`~repro.profiling.lookup.profile_table` (per GPU) and
:func:`~repro.network.model.nccl_model_for` (per system), so sweeping
thousands of plans over many node counts profiles each necessary
operator once per process — the Section III-F performance story.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import SystemConfig
from repro.cost.pricing import (DEFAULT_PRICING, SECONDS_PER_DAY,
                                SECONDS_PER_HOUR, PricingModel)
from repro.errors import SimulationError
from repro.graph.builder import (Granularity, GraphBuilder,
                                 structure_cache_evict, structure_cache_get,
                                 structure_cache_put)
from repro.graph.structure import GraphStructure
from repro.memory.footprint import (MemoryFootprint, check_inference_memory,
                                    check_memory, inference_memory_footprint,
                                    memory_footprint)
from repro.network.model import nccl_model_for
from repro.profiling.lookup import profile_table
from repro.profiling.nccl import NcclModel
from repro.sim.engine import (simulate_retimed, simulate_retimed_batch,
                              use_batched_replay)
from repro.sim.results import (InferencePrediction, IterationPrediction,
                               SimulationResult, TrainingEstimate)
from repro.workload import (DECODE, PREFILL, TRAINING, InferenceWorkload,
                            TrainingWorkload, Workload)


@dataclass(frozen=True)
class PredictTiming:
    """Phase breakdown of one :meth:`VTrain.predict_prepared` call
    (seconds), summed over its plans and their phase graphs, including
    the :meth:`VTrain.prepare_checked` work behind them.

    ``builder_init_s`` is builder construction — network-model setup
    (NCCL timing tables) plus per-operator timing resolution — which
    runs on *every* predict, hit or miss; it used to go unreported, so
    cold breakdowns didn't add up. ``structure_s`` is graph assembly +
    compilation, level plan included, when the structure cache missed,
    ``0.0`` on a hit; ``fill_s`` is the duration refill, one gather
    (hits only).
    ``structure_cache_hit`` holds when every phase graph was a hit.
    Surfaced by ``repro predict --timing``.
    """

    memory_check_s: float
    builder_init_s: float
    structure_s: float
    fill_s: float
    replay_s: float
    total_s: float
    structure_cache_hit: bool

    @property
    def structure_source(self) -> str:
        """Where the replay topology came from."""
        return "cache hit" if self.structure_cache_hit else "built"

    def phases(self) -> dict[str, float]:
        """Ordered phase-name -> seconds mapping for reports, under the
        layer names of the repository benchmark's per-layer breakdown
        (``perfbench``, ``BENCHMARK.json``)."""
        return {
            "memory.check_s": self.memory_check_s,
            "graph.builder_init_s": self.builder_init_s,
            "graph.structure_build_s": self.structure_s,
            "graph.duration_fill_s": self.fill_s,
            "sim.replay_s": self.replay_s,
        }


@dataclass(frozen=True)
class PreparedPlan:
    """A compiled, timed plan ready for (re-)replay.

    ``durations`` is in the structure's replay order; consumers such as
    the testbed emulator replace it with perturbed copies and replay
    them through :meth:`VTrain.predict_prepared` without ever rebuilding
    the graph. ``structure`` may come from the structure cache, compiled
    by another plan with an equal structure key: everything in it but
    its baseline durations and metadata is this plan's too. ``durations``
    and ``metadata`` are this plan's own, and ``builder`` is the plan's
    (graph-free) builder — resolve anything else plan-specific, such as
    per-slot kernel counts, through it.
    """

    structure: GraphStructure
    durations: np.ndarray
    metadata: dict
    builder: GraphBuilder
    structure_cache_hit: bool
    structure_s: float
    fill_s: float
    builder_init_s: float = 0.0


@dataclass(frozen=True)
class CheckedPlan:
    """A memory-checked plan with every phase graph it replays prepared.

    Built by :meth:`VTrain.prepare_checked`, consumed by
    :meth:`VTrain.predict_prepared`. ``phases`` is the training
    iteration graph alone, or the prefill and decode graphs (in that
    order) of an inference ``workload``. ``prepare_s`` is the wall time
    of the whole preparation, memory check included.
    """

    model: ModelConfig
    plan: ParallelismConfig
    training: TrainingConfig | None
    workload: InferenceWorkload | None
    footprint: MemoryFootprint
    phases: tuple[PreparedPlan, ...]
    memory_check_s: float
    prepare_s: float


class VTrain:
    """Profiling-driven LLM training-time simulator (the paper's system).

    Args:
        system: Training-system description (GPUs, interconnects).
        granularity: Graph detail level. ``OPERATOR`` (default) matches
            the paper's reported accuracy at a fraction of the task count;
            ``KERNEL`` is the paper's full task-granularity replay;
            ``STAGE`` is the fast mode used for Figure-10-scale sweeps.
        nccl: Override the communication model (e.g. with interference,
            or a what-if ``TopologyAwareNcclModel(system,
            topology=...)``), used as given and never stored. By
            default the process's
            :func:`~repro.network.model.nccl_model_for` ``(system)``:
            the flat Equation-1 :class:`NcclModel` for ``flat`` or a
            :class:`~repro.network.model.TopologyAwareNcclModel` for
            ``rail`` / ``fat-tree:<ratio>`` fabrics.
        check_memory_feasibility: Reject plans that exceed GPU memory.
        zero_stage: ZeRO sharding stage (0-3) assumed by the memory
            model (see :func:`repro.memory.footprint.memory_footprint`).
            Defaults to stage 1, Megatron-DeepSpeed's configuration.

    The operator-to-task table is the process's
    :func:`~repro.profiling.lookup.profile_table` ``(system.gpu)``.
    Both stored objects are shared: never mutate them.
    """

    def __init__(self, system: SystemConfig, *,
                 granularity: Granularity = Granularity.OPERATOR,
                 nccl: NcclModel | None = None,
                 check_memory_feasibility: bool = True,
                 zero_stage: int = 1) -> None:
        self.system = system
        self.granularity = granularity
        self.lookup = profile_table(system.gpu)
        self.nccl = nccl if nccl is not None else nccl_model_for(system)
        self.check_memory_feasibility = check_memory_feasibility
        self.zero_stage = zero_stage
        self.num_predictions = 0
        self.structure_cache_hits = 0
        self.structure_cache_misses = 0
        self.last_predict_timing: PredictTiming | None = None
        # Concurrent predicts (the `repro serve` daemon) race on the
        # instance counters above; `int +=` is not atomic across the
        # load/store, so keep the accounting exact under contention.
        # last_predict_timing stays last-writer-wins by design.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def prepare(self, model: ModelConfig, plan: ParallelismConfig,
                training: TrainingConfig | None, *,
                workload: InferenceWorkload | None = None,
                phase: str | None = None) -> PreparedPlan:
        """Compiled structure + durations for one plan, ready to replay.

        Consults the process-wide structure cache: on a hit only the
        duration vector is refilled, one gather of this builder's
        per-slot durations (refill-without-rebuild); a cached structure
        whose slots are not this key's layout is evicted and rebuilt.
        On a miss the graph is assembled, compiled, and cached for
        every later predict that shares its
        :class:`~repro.graph.builder.StructureKey` — across micro-batch
        sizes, parallel degrees, systems, and VTrain instances alike.

        Pass ``workload``/``phase`` together to compile an inference
        phase graph (prefill or decode) instead of the training
        iteration graph; ``training`` may then be ``None``.
        """
        tick = time.perf_counter()
        with obs.span("builder_init", granularity=self.granularity.value):
            builder = GraphBuilder(model, self.system, plan, training,
                                   self.lookup, self.nccl, self.granularity,
                                   workload=workload, phase=phase)
        builder_init_s = time.perf_counter() - tick
        key = str(builder.key)
        structure = structure_cache_get(key)
        cache_hit = structure is not None
        build_s = 0.0
        fill_s = 0.0
        if structure is not None:
            tick = time.perf_counter()
            try:
                with obs.span("duration_fill", tasks=structure.num_tasks):
                    durations = builder.fill_durations(structure)
            except SimulationError:
                # A structure compiled for another key (its slots are
                # not this key's layout): drop the stale entry and
                # rebuild from scratch.
                structure_cache_evict(key)
                structure = None
                cache_hit = False
            else:
                fill_s = time.perf_counter() - tick
        if structure is None:
            tick = time.perf_counter()
            with obs.span("structure_build") as tags:
                structure = builder.compile()
                tags["tasks"] = structure.num_tasks
            build_s = time.perf_counter() - tick
            structure_cache_put(key, structure)
            durations = structure.duration
        if cache_hit:
            with self._stats_lock:
                self.structure_cache_hits += 1
            obs.observe("graph.duration_fill_s", fill_s)
        else:
            with self._stats_lock:
                self.structure_cache_misses += 1
            obs.observe("graph.structure_build_s", build_s)
        obs.observe("graph.builder_init_s", builder_init_s)
        return PreparedPlan(structure=structure, durations=durations,
                            metadata=builder.graph_metadata(),
                            builder=builder,
                            structure_cache_hit=cache_hit,
                            structure_s=build_s, fill_s=fill_s,
                            builder_init_s=builder_init_s)

    # ------------------------------------------------------------------
    # Prediction: prepare_checked -> predict_prepared
    # ------------------------------------------------------------------
    def predict(self, model: ModelConfig, plan: ParallelismConfig,
                training: TrainingConfig | None = None, *,
                workload: Workload | None = None,
                record_timeline: bool = False,
                ) -> IterationPrediction | InferencePrediction:
        """Predict one design point's latency for its workload.

        The default workload is training — ``predict(model, plan,
        training)`` is byte-for-byte the classic single-iteration
        path and returns an :class:`IterationPrediction`. Passing
        ``workload=TrainingWorkload(...)`` is the same path with the
        training shape drawn from the workload object. Passing an
        :class:`~repro.workload.InferenceWorkload` replays its prefill
        and decode graphs and returns an :class:`InferencePrediction`
        (see :meth:`predict_inference`).

        One :meth:`prepare_checked` followed by one
        :meth:`predict_prepared`, inside a ``predict`` span.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) per-GPU memory overflow.
        """
        with obs.span("predict",
                      plan=f"t{plan.tensor} d{plan.data} p{plan.pipeline}"):
            checked = self.prepare_checked(model, plan, training,
                                           workload=workload)
            return self.predict_prepared(
                [checked], record_timeline=record_timeline)[0]

    def predict_inference(self, model: ModelConfig, plan: ParallelismConfig,
                          workload: InferenceWorkload, *,
                          record_timeline: bool = False,
                          ) -> InferencePrediction:
        """Predict serving latencies for one static-batch design point.

        Replays two phase graphs through the shared structure cache: the
        prefill graph (full-prompt pipelined forward; makespan is the
        time to first token) and the decode-step graph (single-token
        forward with KV-scaled attention; makespan is the time per
        output token). ``plan.data`` is read as the number of
        data-parallel server replicas — it multiplies throughput, never
        latency, the vLLM-style TP-vs-DP trade-off.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) weights + KV cache exceeding HBM.
        """
        return self.predict(model, plan, workload=workload,
                            record_timeline=record_timeline)

    def prepare_checked(self, model: ModelConfig, plan: ParallelismConfig,
                        training: TrainingConfig | None = None, *,
                        workload: Workload | None = None) -> CheckedPlan:
        """The front half of every prediction: memory check, then compile.

        The memory check comes first, so an infeasible plan raises
        before any graph work: the KV-cache check for an
        :class:`~repro.workload.InferenceWorkload` (``training`` is
        then ignored), the training check otherwise. Then every phase
        graph the workload replays is prepared (:meth:`prepare`). Hand
        the results to :meth:`predict_prepared`.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) per-GPU memory overflow.
            SimulationError: A training prediction without a
                :class:`TrainingConfig`.
        """
        started = time.perf_counter()
        if isinstance(workload, TrainingWorkload):
            training = workload.training
        if not isinstance(workload, InferenceWorkload):
            workload = None
        if workload is None and training is None:
            raise SimulationError(
                "predict() needs a TrainingConfig (or a workload)")
        with obs.span("memory_check"):
            if workload is not None:
                footprint = (
                    check_inference_memory(model, plan, workload, self.system)
                    if self.check_memory_feasibility
                    else inference_memory_footprint(model, plan, workload))
            elif self.check_memory_feasibility:
                footprint = check_memory(model, plan, training, self.system,
                                         zero_stage=self.zero_stage)
            else:
                footprint = memory_footprint(model, plan, training,
                                             zero_stage=self.zero_stage)
        memory_check_s = time.perf_counter() - started
        if workload is None:
            phases = (self.prepare(model, plan, training),)
        else:
            phases = tuple(self.prepare(model, plan, None, workload=workload,
                                        phase=phase)
                           for phase in (PREFILL, DECODE))
        return CheckedPlan(model=model, plan=plan, training=training,
                           workload=workload, footprint=footprint,
                           phases=phases, memory_check_s=memory_check_s,
                           prepare_s=time.perf_counter() - started)

    def predict_prepared(self, entries: Sequence[CheckedPlan], *,
                         record_timeline: bool = False,
                         ) -> list[IterationPrediction | InferencePrediction]:
        """The back half of every prediction: replay, then wrap.

        ``entries`` come from :meth:`prepare_checked`. Phase graphs are
        grouped by compiled :class:`~repro.graph.structure.GraphStructure`
        object (the process-wide structure cache returns one instance
        per topology), and :func:`~repro.sim.engine.use_batched_replay`
        picks each group's engine: columns holding at least
        :data:`~repro.sim.engine.WIDTH` tasks per level are stacked into
        a ``(tasks x N)`` matrix for one
        :func:`~repro.sim.engine.simulate_retimed_batch` sweep — a wide
        structure such as MT-NLG at OPERATOR granularity even for one
        column — and every other group replays column by column on the
        scalar :func:`~repro.sim.engine.simulate_retimed`, as does every
        phase when ``record_timeline`` is set (only the scalar engine
        records events). Either engine yields bit-identical predictions,
        returned in entry order.

        Also records the replay spans and histograms, counts one
        prediction per entry, and sets :attr:`last_predict_timing` to
        the breakdown summed over all entries and their phases.
        """
        started = time.perf_counter()
        groups: dict[int, list[tuple[int, int]]] = {}
        for index, entry in enumerate(entries):
            for phase, prepared in enumerate(entry.phases):
                groups.setdefault(id(prepared.structure), []).append(
                    (index, phase))
        results: list[list[SimulationResult | None]] = [
            [None] * len(entry.phases) for entry in entries]
        replay_s = 0.0
        for members in groups.values():
            prepared = [entries[index].phases[phase]
                        for index, phase in members]
            structure = prepared[0].structure
            tags = {"tasks": structure.num_tasks,
                    "phase": prepared[0].metadata.get("phase", TRAINING)}
            tick = time.perf_counter()
            if use_batched_replay(structure, len(members),
                                  record_timeline=record_timeline):
                matrix = np.stack([p.durations for p in prepared], axis=1)
                with obs.span("replay_batch", columns=len(members), **tags):
                    batch = simulate_retimed_batch(structure, matrix)
                replayed = [batch.column(column, metadata=p.metadata)
                            for column, p in enumerate(prepared)]
                obs.observe("sim.batch_columns", len(members))
            else:
                replayed = []
                for p in prepared:
                    with obs.span("replay", **tags):
                        replayed.append(simulate_retimed(
                            structure, p.durations,
                            record_timeline=record_timeline,
                            metadata=p.metadata))
            elapsed = time.perf_counter() - tick
            replay_s += elapsed
            obs.observe("sim.replay_s", elapsed)
            if elapsed > 0.0:
                obs.observe("sim.replay_tasks_per_s",
                            structure.num_tasks * len(members) / elapsed)
            for (index, phase), result in zip(members, replayed):
                results[index][phase] = result
        predictions = [self._prediction(entry, phase_results)
                       for entry, phase_results in zip(entries, results)]
        phases = [prepared for entry in entries for prepared in entry.phases]
        total_s = (sum(entry.prepare_s for entry in entries)
                   + time.perf_counter() - started)
        obs.observe("sim.predict_total_s", total_s)
        self.last_predict_timing = PredictTiming(
            memory_check_s=sum(entry.memory_check_s for entry in entries),
            builder_init_s=sum(p.builder_init_s for p in phases),
            structure_s=sum(p.structure_s for p in phases),
            fill_s=sum(p.fill_s for p in phases),
            replay_s=replay_s,
            total_s=total_s,
            structure_cache_hit=all(p.structure_cache_hit for p in phases))
        with self._stats_lock:
            self.num_predictions += len(entries)
        return predictions

    def _prediction(self, entry: CheckedPlan,
                    results: list[SimulationResult],
                    ) -> IterationPrediction | InferencePrediction:
        """Wrap one entry's phase replays in the predict() output."""
        plan, workload = entry.plan, entry.workload
        if workload is not None:
            prefill, decode = results
            return InferencePrediction(
                prefill_time=prefill.iteration_time,
                decode_step_time=decode.iteration_time,
                batch_size=workload.batch_size,
                prompt_len=workload.prompt_len,
                gen_len=workload.gen_len,
                num_replicas=plan.data,
                num_gpus=plan.total_gpus,
                memory_per_gpu=entry.footprint.total,
                prefill_simulation=prefill,
                decode_simulation=decode,
            )
        [result] = results
        tokens = entry.training.tokens_per_iteration(entry.model)
        model_flops = entry.model.model_flops_per_iteration(tokens)
        peak = plan.total_gpus * self.system.gpu.peak_fp16_flops
        utilization = model_flops / (peak * result.iteration_time)
        return IterationPrediction(
            iteration_time=result.iteration_time,
            gpu_compute_utilization=utilization,
            tokens_per_iteration=tokens,
            model_flops=model_flops,
            num_gpus=plan.total_gpus,
            memory_per_gpu=entry.footprint.total,
            simulation=result,
        )

    def predict_description(self, description: InputDescription,
                            ) -> IterationPrediction:
        """Predict from a paper-style input description file."""
        description.validate()
        return self.predict(description.model, description.plan,
                            description.training)

    # ------------------------------------------------------------------
    # End-to-end estimation
    # ------------------------------------------------------------------
    def estimate_training(self, model: ModelConfig, plan: ParallelismConfig,
                          training: TrainingConfig, *,
                          pricing: PricingModel = DEFAULT_PRICING,
                          ) -> TrainingEstimate:
        """End-to-end wall-clock time and dollar cost (Table I columns).

        Total time = predicted iteration time x (total tokens / tokens
        per iteration), as in Section III-E.
        """
        prediction = self.predict(model, plan, training)
        iterations = training.num_iterations(model)
        total_seconds = prediction.iteration_time * iterations
        dollars_per_hour = pricing.dollars_per_hour(plan.total_gpus)
        dollars_total = pricing.cost(plan.total_gpus, total_seconds)
        return TrainingEstimate(
            iteration_time=prediction.iteration_time,
            num_iterations=iterations,
            total_days=total_seconds / SECONDS_PER_DAY,
            gpu_compute_utilization=prediction.gpu_compute_utilization,
            num_gpus=plan.total_gpus,
            dollars_per_hour=dollars_per_hour,
            dollars_total=dollars_total,
        )

    # ------------------------------------------------------------------
    # Profiling introspection (Section III-F)
    # ------------------------------------------------------------------
    @property
    def profiling_stats(self) -> dict[str, int]:
        """Necessary-operator counters proving the O(1) profiling cost,
        plus this instance's structure-cache hit/miss split.

        The profiling counters (``operators_profiled``,
        ``lookups_served_from_table``, ``kernels_traced``) are per GPU
        per process: every simulator on this GPU reports the same
        totals. ``predictions`` and the structure-cache counts are this
        instance's own.
        """
        return {
            "operators_profiled": self.lookup.num_profiled,
            "lookups_served_from_table": self.lookup.num_reused,
            "kernels_traced": self.lookup.tracer.stats.kernels_traced,
            "predictions": self.num_predictions,
            "structure_cache_hits": self.structure_cache_hits,
            "structure_cache_misses": self.structure_cache_misses,
        }


def training_days_for_utilization(model: ModelConfig, total_tokens: int,
                                  num_gpus: int, utilization: float,
                                  peak_flops_per_gpu: float) -> float:
    """Closed-form training days at a given achieved utilization.

    The Figure-1 curve: total FLOPs to train the LLM divided by the
    aggregate *effective* FLOPS of the cluster.
    """
    if not 0.0 < utilization <= 1.0:
        raise ValueError("utilization must be in (0, 1]")
    total_flops = model.flops_per_token() * total_tokens
    effective = num_gpus * peak_flops_per_gpu * utilization
    return total_flops / effective / SECONDS_PER_DAY


def cost_for_utilization(model: ModelConfig, total_tokens: int,
                         num_gpus: int, utilization: float,
                         peak_flops_per_gpu: float, *,
                         pricing: PricingModel = DEFAULT_PRICING) -> float:
    """Training cost in dollars at a given achieved utilization."""
    days = training_days_for_utilization(model, total_tokens, num_gpus,
                                         utilization, peak_flops_per_gpu)
    return pricing.dollars_per_hour(num_gpus) * days * (SECONDS_PER_DAY
                                                        / SECONDS_PER_HOUR)

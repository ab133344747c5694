"""The vTrain facade: predict iteration time, utilization, days, dollars.

:class:`VTrain` wires the whole Figure-4 pipeline together — input
description, operator-granularity graph, profiling-backed lookup table,
task-granularity expansion, and the Algorithm-1 replay — behind two
calls::

    vtrain = VTrain(system)
    prediction = vtrain.predict(model, plan, training)       # one iteration
    estimate = vtrain.estimate_training(model, plan, training)  # end-to-end

The profiling state (CUPTI traces, operator-to-task table, NCCL profile
tables) is shared across predictions, so sweeping thousands of plans only
profiles each necessary operator once — the Section III-F performance
story.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

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
from repro.graph.structure import ExecutionGraph, GraphStructure
from repro.hardware.kernels import DeviceModel
from repro.memory.footprint import (MemoryFootprint, check_inference_memory,
                                    check_memory, inference_memory_footprint,
                                    memory_footprint)
from repro.network.model import nccl_model_for
from repro.profiling.cupti import CuptiTracer
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.sim.engine import simulate_retimed, simulate_retimed_batch
from repro.sim.results import (InferencePrediction, IterationPrediction,
                               SimulationResult, TrainingEstimate)
from repro.workload import (DECODE, PREFILL, InferenceWorkload,
                            TrainingWorkload, Workload)


@dataclass(frozen=True)
class PredictTiming:
    """Phase breakdown of one :meth:`VTrain.predict` call (seconds).

    ``builder_init_s`` is builder construction — network-model setup
    (NCCL timing tables) plus per-operator timing resolution — which
    runs on *every* predict, hit or miss; it used to go unreported, so
    cold breakdowns didn't add up. ``structure_s`` is graph assembly +
    compilation when the structure cache missed, ``0.0`` on a hit;
    ``fill_s`` is the slot-broadcast duration refill (hits only).
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

    @property
    def accounted_s(self) -> float:
        """Sum of the attributed phases.

        Tracks ``total_s`` to within bookkeeping noise on both cold and
        warm paths now that builder construction is attributed —
        previously cold calls could leave >30% of ``total_s``
        unaccounted for.
        """
        return sum(self.phases().values())

    def phases(self) -> dict[str, float]:
        """Ordered phase-name -> seconds mapping for reports, named like
        the layers of the per-layer performance breakdown."""
        return {
            "memory check": self.memory_check_s,
            "builder init": self.builder_init_s,
            "structure build": self.structure_s,
            "duration fill": self.fill_s,
            "replay": self.replay_s,
        }


@dataclass(frozen=True)
class PreparedPlan:
    """A compiled, timed plan ready for (re-)replay.

    ``durations`` is in the structure's replay order; consumers such as
    the testbed emulator perturb it and call
    :func:`~repro.sim.engine.simulate_retimed` without ever rebuilding
    the graph. ``builder`` is the plan's own (graph-free) builder —
    resolve anything plan-specific (timing table, per-slot kernel
    counts) through it, not through the cached structure's
    representative ``payload`` objects, which may originate from a
    different build sharing the same topology.
    """

    structure: GraphStructure
    durations: np.ndarray
    metadata: dict
    builder: GraphBuilder
    structure_cache_hit: bool
    structure_s: float
    fill_s: float
    builder_init_s: float = 0.0


class VTrain:
    """Profiling-driven LLM training-time simulator (the paper's system).

    Args:
        system: Training-system description (GPUs, interconnects).
        granularity: Graph detail level. ``OPERATOR`` (default) matches
            the paper's reported accuracy at a fraction of the task count;
            ``KERNEL`` is the paper's full task-granularity replay;
            ``STAGE`` is the fast mode used for Figure-10-scale sweeps.
        device: Override the analytical device model (e.g. a testbed's
            perturbed model).
        nccl: Override the communication model (e.g. with interference).
            When omitted, the model follows ``system.network``: the flat
            Equation-1 :class:`NcclModel` for ``flat`` (the default,
            bit-identical to prior behavior) or a
            :class:`~repro.network.model.TopologyAwareNcclModel` for
            ``rail`` / ``fat-tree:<ratio>`` fabrics.
        check_memory_feasibility: Reject plans that exceed GPU memory.
        zero1_sharding: Deprecated alias for ``zero_stage``: True means
            ZeRO stage 1, False stage 0. Ignored when ``zero_stage`` is
            given.
        zero_stage: ZeRO sharding stage (0-3) assumed by the memory
            model (see :func:`repro.memory.footprint.memory_footprint`).
            Defaults to stage 1, Megatron-DeepSpeed's configuration.
    """

    def __init__(self, system: SystemConfig, *,
                 granularity: Granularity = Granularity.OPERATOR,
                 device: DeviceModel | None = None,
                 nccl: NcclModel | None = None,
                 check_memory_feasibility: bool = True,
                 zero1_sharding: bool = True,
                 zero_stage: int | None = None) -> None:
        self.system = system
        self.granularity = granularity
        self.device = device if device is not None else DeviceModel(system.gpu)
        self.tracer = CuptiTracer(self.device)
        self.lookup = OperatorToTaskTable(self.tracer)
        self.nccl = nccl if nccl is not None else nccl_model_for(system)
        self.check_memory_feasibility = check_memory_feasibility
        self.zero_stage = (zero_stage if zero_stage is not None
                           else (1 if zero1_sharding else 0))
        self.zero1_sharding = self.zero_stage >= 1  # legacy alias
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
    def build_graph(self, model: ModelConfig, plan: ParallelismConfig,
                    training: TrainingConfig) -> ExecutionGraph:
        """Build the execution graph for one iteration of this plan."""
        builder = GraphBuilder(model, self.system, plan, training,
                               self.lookup, self.nccl, self.granularity)
        return builder.build()

    def prepare(self, model: ModelConfig, plan: ParallelismConfig,
                training: TrainingConfig | None, *,
                workload: InferenceWorkload | None = None,
                phase: str | None = None) -> PreparedPlan:
        """Compiled structure + durations for one plan, ready to replay.

        Consults the process-wide structure cache: on a hit only the
        duration vector is refilled from this builder's timing table
        (retime-without-rebuild); on a miss the graph is assembled,
        compiled, and cached for every later predict that shares its
        structural fingerprint — across micro-batch sizes, parallel
        degrees, systems, and VTrain instances alike.

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
        key = builder.structure_key
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
                # Structural drift the fingerprint failed to capture:
                # drop the stale entry and rebuild from scratch.
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
            obs.observe("sim.duration_fill_s", fill_s)
        else:
            with self._stats_lock:
                self.structure_cache_misses += 1
            obs.observe("sim.structure_build_s", build_s)
        obs.observe("sim.builder_init_s", builder_init_s)
        return PreparedPlan(structure=structure, durations=durations,
                            metadata=builder.graph_metadata(),
                            builder=builder,
                            structure_cache_hit=cache_hit,
                            structure_s=build_s, fill_s=fill_s,
                            builder_init_s=builder_init_s)

    # ------------------------------------------------------------------
    # Prediction
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
        :class:`~repro.workload.InferenceWorkload` dispatches to
        :meth:`predict_inference` and returns an
        :class:`InferencePrediction`.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) per-GPU memory overflow.
        """
        if isinstance(workload, InferenceWorkload):
            return self.predict_inference(model, plan, workload,
                                          record_timeline=record_timeline)
        if isinstance(workload, TrainingWorkload):
            training = workload.training
        if training is None:
            raise SimulationError(
                "predict() needs a TrainingConfig (or a workload)")
        with self._stats_lock:
            self.num_predictions += 1
        started = time.perf_counter()
        with obs.span(
                "predict",
                plan=f"t{plan.tensor} d{plan.data} p{plan.pipeline}") as span:
            with obs.span("memory_check"):
                if self.check_memory_feasibility:
                    footprint = check_memory(model, plan, training,
                                             self.system,
                                             zero_stage=self.zero_stage)
                else:
                    footprint = memory_footprint(
                        model, plan, training, zero_stage=self.zero_stage)
            memory_s = time.perf_counter() - started
            prepared = self.prepare(model, plan, training)
            tick = time.perf_counter()
            with obs.span("replay", tasks=prepared.structure.num_tasks):
                result = simulate_retimed(prepared.structure,
                                          prepared.durations,
                                          record_timeline=record_timeline,
                                          metadata=prepared.metadata)
            replay_s = time.perf_counter() - tick
            span["structure"] = ("cache hit" if prepared.structure_cache_hit
                                 else "built")
        total_s = time.perf_counter() - started
        obs.observe("sim.replay_s", replay_s)
        obs.observe("sim.predict_total_s", total_s)
        if replay_s > 0.0:
            obs.observe("sim.replay_tasks_per_s",
                        prepared.structure.num_tasks / replay_s)
        self.last_predict_timing = PredictTiming(
            memory_check_s=memory_s,
            builder_init_s=prepared.builder_init_s,
            structure_s=prepared.structure_s,
            fill_s=prepared.fill_s,
            replay_s=replay_s,
            total_s=total_s,
            structure_cache_hit=prepared.structure_cache_hit)
        return self._prediction(model, plan, training, footprint, result)

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
        with self._stats_lock:
            self.num_predictions += 1
        with obs.span(
                "predict_inference",
                plan=f"t{plan.tensor} d{plan.data} p{plan.pipeline}"):
            with obs.span("memory_check"):
                if self.check_memory_feasibility:
                    footprint = check_inference_memory(model, plan, workload,
                                                       self.system)
                else:
                    footprint = inference_memory_footprint(model, plan,
                                                           workload)
            phases = {}
            for phase in (PREFILL, DECODE):
                prepared = self.prepare(model, plan, None,
                                        workload=workload, phase=phase)
                with obs.span("replay", phase=phase,
                              tasks=prepared.structure.num_tasks):
                    phases[phase] = simulate_retimed(
                        prepared.structure, prepared.durations,
                        record_timeline=record_timeline,
                        metadata=prepared.metadata)
        return InferencePrediction(
            prefill_time=phases[PREFILL].iteration_time,
            decode_step_time=phases[DECODE].iteration_time,
            batch_size=workload.batch_size,
            prompt_len=workload.prompt_len,
            gen_len=workload.gen_len,
            num_replicas=plan.data,
            num_gpus=plan.total_gpus,
            memory_per_gpu=footprint.total,
            prefill_simulation=phases[PREFILL],
            decode_simulation=phases[DECODE],
        )

    @staticmethod
    def _observe_replay(tasks: int, columns: int, elapsed: float) -> None:
        """Record replay latency/throughput histograms (gated; a batch
        sweep counts ``tasks x columns`` replayed tasks)."""
        if not obs.enabled():
            return
        obs.observe("sim.replay_s", elapsed)
        if elapsed > 0.0:
            obs.observe("sim.replay_tasks_per_s",
                        tasks * columns / elapsed)

    def _prediction(self, model: ModelConfig, plan: ParallelismConfig,
                    training: TrainingConfig, footprint: MemoryFootprint,
                    result: SimulationResult) -> IterationPrediction:
        """Wrap one replay result in the predict() output contract."""
        tokens = training.tokens_per_iteration(model)
        model_flops = model.model_flops_per_iteration(tokens)
        peak = plan.total_gpus * self.system.gpu.peak_fp16_flops
        utilization = model_flops / (peak * result.iteration_time)
        return IterationPrediction(
            iteration_time=result.iteration_time,
            gpu_compute_utilization=utilization,
            tokens_per_iteration=tokens,
            model_flops=model_flops,
            num_gpus=plan.total_gpus,
            memory_per_gpu=footprint.total,
            simulation=result,
        )

    def prepare_checked(self, model: ModelConfig, plan: ParallelismConfig,
                        training: TrainingConfig,
                        ) -> tuple[MemoryFootprint, PreparedPlan]:
        """:meth:`predict`'s front half: memory check, then compile.

        Performs exactly the checks :meth:`predict` performs, in the
        same order (so infeasible plans raise before any graph work),
        and returns the pieces a batched replay needs. Callers that
        group several structure-affine plans hand the results to
        :meth:`predict_prepared`.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) per-GPU memory overflow.
        """
        if self.check_memory_feasibility:
            footprint = check_memory(model, plan, training, self.system,
                                     zero_stage=self.zero_stage)
        else:
            footprint = memory_footprint(model, plan, training,
                                         zero_stage=self.zero_stage)
        return footprint, self.prepare(model, plan, training)

    def predict_prepared(
            self, model: ModelConfig, training: TrainingConfig,
            entries: list[tuple[ParallelismConfig, MemoryFootprint,
                                PreparedPlan]],
    ) -> list[IterationPrediction]:
        """Replay already-prepared plans, batching structure-affine runs.

        ``entries`` come from :meth:`prepare_checked`. Runs sharing one
        compiled :class:`~repro.graph.structure.GraphStructure` object
        (the common case inside an affinity-sorted DSE sweep, where the
        process-wide structure cache returns the same instance) are
        stacked into a ``(tasks x N)`` matrix and replayed by a single
        :func:`~repro.sim.engine.simulate_retimed_batch` sweep; the rest
        replay through the scalar engine. Either path yields
        bit-identical :class:`IterationPrediction` values, returned in
        entry order.
        """
        groups: dict[int, list[int]] = {}
        for position, (_, _, prepared) in enumerate(entries):
            groups.setdefault(id(prepared.structure), []).append(position)
        results: list[SimulationResult | None] = [None] * len(entries)
        for positions in groups.values():
            if len(positions) == 1:
                _, _, prepared = entries[positions[0]]
                tick = time.perf_counter()
                with obs.span("replay", tasks=prepared.structure.num_tasks):
                    results[positions[0]] = simulate_retimed(
                        prepared.structure, prepared.durations,
                        metadata=prepared.metadata)
                self._observe_replay(prepared.structure.num_tasks, 1,
                                     time.perf_counter() - tick)
                continue
            structure = entries[positions[0]][2].structure
            matrix = np.stack(
                [entries[p][2].durations for p in positions], axis=1)
            tick = time.perf_counter()
            with obs.span("replay_batch", tasks=structure.num_tasks,
                          columns=len(positions)):
                batch = simulate_retimed_batch(structure, matrix)
            self._observe_replay(structure.num_tasks, len(positions),
                                 time.perf_counter() - tick)
            obs.observe("sim.batch_columns", len(positions))
            for column, position in enumerate(positions):
                results[position] = batch.column(
                    column, metadata=entries[position][2].metadata)
        with self._stats_lock:
            self.num_predictions += len(entries)
        return [self._prediction(model, plan, training, footprint, result)
                for (plan, footprint, _), result in zip(entries, results)]

    def predict_batch(self, model: ModelConfig,
                      plans: list[ParallelismConfig],
                      training: TrainingConfig) -> list[IterationPrediction]:
        """Predict several plans for one model, batching shared structures.

        Equivalent to ``[self.predict(model, p, training) for p in
        plans]`` — bit-identical predictions in plan order — but plans
        whose compiled structures coincide replay in one vectorized
        sweep. Like :meth:`predict`, raises on the first infeasible
        plan; callers that need per-plan feasibility (the DSE explorers)
        call :meth:`prepare_checked` / :meth:`predict_prepared`
        themselves.
        """
        entries = []
        for plan in plans:
            footprint, prepared = self.prepare_checked(model, plan, training)
            entries.append((plan, footprint, prepared))
        return self.predict_prepared(model, training, entries)

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
        plus this instance's structure-cache hit/miss split."""
        return {
            "operators_profiled": self.lookup.num_profiled,
            "lookups_served_from_table": self.lookup.num_reused,
            "kernels_traced": self.tracer.stats.kernels_traced,
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

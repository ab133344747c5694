"""Per-GPU memory-footprint model and feasibility filter.

The paper's design-space exploration (Section V-A) only considers plans
that actually fit on the GPUs ("making sure the overall memory usage fits
within the GPU memory" is one of the systems chores the serverless
studies automate). This module implements the standard Megatron-style
accounting:

* **Model states** — FP16 weights (2 B) + FP16 gradients (2 B, the
  Megatron-DeepSpeed mixed-precision configuration MT-NLG trained with)
  + Adam optimizer states (FP32 master copy, momentum, variance: 12 B).
  ZeRO sharding divides slabs by the data-parallel degree: stage 1
  shards the optimizer states (Megatron-DeepSpeed's default for
  MT-NLG-scale runs), stage 2 adds gradients, stage 3 adds weights.
* **Activations** — the Korthikanti et al. per-layer formulas:
  no recompute stores ``s*b*h*(10 + 24/t + 5*n*s/(h*t))`` bytes/layer,
  selective recompute drops the attention quadratic term
  (``s*b*h*(10 + 24/t)``), and full recompute keeps only the layer input
  (``2*s*b*h``). In-flight windows per stage follow the schedule: every
  micro-batch under GPipe, at most the remaining pipeline depth under
  1F1B (Section II-B), and under the interleaved schedule
  ``2*(p - stage - 1) + (v - 1)*p + 1`` windows of ``1/v`` the layers
  each — the activation cost of the smaller bubble.

Peak feasibility is evaluated at the boundary stages: stage 0 holds the
embedding table plus the deepest in-flight window *and* the live
embedding outputs, while the last stage holds the final LayerNorm and —
when the pipeline is deeper than one stage — the untied output-embedding
(LM-head) copy Megatron materialises there. The reported footprint is
the larger of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      RecomputeMode, TrainingConfig,
                                      layers_per_stage, num_micro_batches)
from repro.config.system import SystemConfig
from repro.errors import InfeasibleConfigError
from repro.graph.pipeline import max_in_flight_micro_batches

FP16_BYTES = 2.0
GRAD_BYTES = 2.0       # FP16 gradient buffer (Megatron-DeepSpeed default)
OPTIMIZER_BYTES = 12.0  # FP32 master weights + Adam momentum + variance

#: Fraction of HBM usable by the framework (CUDA context, NCCL buffers,
#: workspace, fragmentation).
USABLE_MEMORY_FRACTION = 0.96


@dataclass(frozen=True)
class MemoryFootprint:
    """Peak per-GPU memory demand, broken down by category (bytes).

    Training footprints populate gradients/optimizer states and leave
    ``kv_cache`` at zero; inference footprints do the reverse — the
    KV cache replaces the gradient and optimizer terms as the dominant
    non-weight resident (see :func:`inference_memory_footprint`).
    """

    weights: float
    gradients: float
    optimizer_states: float
    activations: float
    kv_cache: float = 0.0

    @property
    def model_states(self) -> float:
        """Weights + gradients + optimizer states."""
        return self.weights + self.gradients + self.optimizer_states

    @property
    def total(self) -> float:
        """Total peak bytes per GPU."""
        return self.model_states + self.activations + self.kv_cache

    @property
    def total_gib(self) -> float:
        """Total in GiB (for reporting)."""
        return self.total / float(1 << 30)


def activation_bytes_per_layer(model: ModelConfig,
                               plan: ParallelismConfig) -> float:
    """Stored activation bytes of one decoder layer, one micro-batch.

    Follows Korthikanti et al.: without sequence parallelism the
    LayerNorm/dropout regions replicate across tensor ranks (the ``10``
    bytes/token term); with it every per-layer term divides by ``t``.
    """
    s = model.seq_length
    b = plan.micro_batch_size
    h = model.hidden_size
    n = model.num_heads
    t = plan.tensor
    if plan.recompute is RecomputeMode.FULL:
        stored_input = 2.0 * s * b * h
        if plan.sequence_parallel:
            stored_input /= t
        return stored_input
    if plan.sequence_parallel:
        per_token = 34.0 / t
    else:
        per_token = 10.0 + 24.0 / t
    if plan.recompute is RecomputeMode.NONE:
        per_token += 5.0 * n * s / (h * t)
    return s * b * h * per_token


def stage_zero_params(model: ModelConfig, plan: ParallelismConfig) -> int:
    """Per-GPU parameter count on pipeline stage 0 (layers + embedding)."""
    per_layer = model.params_per_layer() // plan.tensor
    embed = model.embedding_params() // plan.tensor
    return layers_per_stage(model, plan) * per_layer + embed


def last_stage_params(model: ModelConfig, plan: ParallelismConfig) -> int:
    """Per-GPU parameter count on the last pipeline stage.

    Beyond its layer slice the last stage holds the final LayerNorm and,
    when the pipeline is deeper than one stage, the untied
    output-embedding (LM-head) copy that Megatron materialises on the
    last rank (with ``p == 1`` the head is tied to the input embedding,
    so nothing is duplicated).
    """
    per_layer = model.params_per_layer() // plan.tensor
    params = layers_per_stage(model, plan) * per_layer
    params += 2 * model.hidden_size  # final LayerNorm
    if plan.pipeline > 1:
        params += model.embedding_params() // plan.tensor
    return params


def _stage_footprint(model: ModelConfig, plan: ParallelismConfig,
                     training: TrainingConfig, stage: int,
                     zero_stage: int) -> MemoryFootprint:
    """Footprint of one boundary stage (0 or the last)."""
    if stage == 0:
        params = stage_zero_params(model, plan)
    else:
        params = last_stage_params(model, plan)
    weights = FP16_BYTES * params
    gradients = GRAD_BYTES * params
    optimizer = OPTIMIZER_BYTES * params
    if zero_stage >= 1:
        optimizer /= plan.data
    if zero_stage >= 2:
        gradients /= plan.data
    if zero_stage >= 3:
        weights /= plan.data
    nmb = num_micro_batches(plan, training)
    v = plan.virtual_stages
    # In-flight windows are schedule units: whole micro-batches for
    # GPipe/1F1B, model chunks of lps/v layers under interleaving.
    in_flight = max_in_flight_micro_batches(plan.schedule, stage,
                                            plan.pipeline, nmb,
                                            virtual_stages=v)
    per_layer = activation_bytes_per_layer(model, plan)
    layers_per_window = layers_per_stage(model, plan) // v
    activations = layers_per_window * in_flight * per_layer
    if stage == 0:
        # Embedding output of in-flight micro-batches (stage 0 only);
        # with sequence parallelism the stage-0 embedding output is
        # already scattered ``s/t`` before the first layer consumes it.
        embed_out = (FP16_BYTES * plan.micro_batch_size
                     * model.seq_length * model.hidden_size)
        if plan.sequence_parallel:
            embed_out /= plan.tensor
        # Express the window count in micro-batch equivalents (one
        # embedding output per micro-batch, not per chunk).
        activations += -(-in_flight // v) * embed_out
    return MemoryFootprint(weights=weights,
                           gradients=gradients,
                           optimizer_states=optimizer,
                           activations=activations)


def memory_footprint(model: ModelConfig, plan: ParallelismConfig,
                     training: TrainingConfig, *,
                     zero_stage: int = 1) -> MemoryFootprint:
    """Peak per-GPU footprint of a plan.

    Evaluated at both boundary stages — stage 0 (embedding + deepest
    in-flight window) and the last stage (final LayerNorm + untied
    LM-head copy) — returning whichever peaks higher, so LM-head-heavy
    configurations are not under-checked.

    Args:
        zero_stage: ZeRO stage: 0 = no sharding; 1 = optimizer
            states sharded across the data-parallel group
            (Megatron-DeepSpeed's default); 2 = plus gradient sharding;
            3 = plus parameter sharding. Stages 2/3 model the *memory*
            effect only: the graph emits no ZeRO-3 All-Gather or
            Reduce-Scatter, and the communication models cost only the
            All-Reduce and Send-Receive it does emit.

    Raises:
        InfeasibleConfigError: ``zero_stage`` outside 0-3.
    """
    if not 0 <= zero_stage <= 3:
        raise InfeasibleConfigError(f"unknown ZeRO stage {zero_stage}")
    first = _stage_footprint(model, plan, training, 0, zero_stage)
    if plan.pipeline == 1:
        return first
    last = _stage_footprint(model, plan, training, plan.pipeline - 1,
                            zero_stage)
    return last if last.total > first.total else first


def fits_in_memory(model: ModelConfig, plan: ParallelismConfig,
                   training: TrainingConfig, system: SystemConfig, *,
                   zero_stage: int = 1) -> bool:
    """Whether the plan's peak footprint fits the GPU's usable HBM."""
    footprint = memory_footprint(model, plan, training,
                                 zero_stage=zero_stage)
    return footprint.total <= system.gpu.memory_bytes * USABLE_MEMORY_FRACTION


def check_memory(model: ModelConfig, plan: ParallelismConfig,
                 training: TrainingConfig, system: SystemConfig, *,
                 zero_stage: int = 1) -> MemoryFootprint:
    """Footprint if feasible, else :class:`InfeasibleConfigError`."""
    footprint = memory_footprint(model, plan, training,
                                 zero_stage=zero_stage)
    budget = system.gpu.memory_bytes * USABLE_MEMORY_FRACTION
    if footprint.total > budget:
        raise InfeasibleConfigError(
            f"plan {plan.way} m={plan.micro_batch_size} needs "
            f"{footprint.total_gib:.1f} GiB/GPU, budget is "
            f"{budget / float(1 << 30):.1f} GiB ({system.gpu.name})")
    return footprint


def inference_memory_footprint(model: ModelConfig, plan: ParallelismConfig,
                               workload) -> MemoryFootprint:
    """Peak per-GPU footprint of serving one inference batch.

    Inference holds no gradients or optimizer states; the KV cache
    replaces them as the dominant non-weight resident:

    ``kv = 2 * (L/p) * (prompt + gen) * batch * (h/t) * FP16_BYTES``

    — the factor 2 covers keys and values, each pipeline stage caches
    only its ``L/p`` layers, attention heads (and with them the ``h``
    dimension) shard across the ``t`` tensor ranks, and the cache must
    be provisioned for the *end-of-generation* sequence length. The
    activation term is the transient forward working set: one
    full-prompt hidden-state buffer per in-flight micro-batch.

    Args:
        workload: An :class:`~repro.workload.InferenceWorkload`
            (``batch_size`` is per replica; data parallelism replicates
            servers and does not shard the cache).
    """
    weights = FP16_BYTES * max(stage_zero_params(model, plan),
                               last_stage_params(model, plan))
    kv_cache = (2.0 * layers_per_stage(model, plan)
                * workload.max_kv_length * workload.batch_size
                * (model.hidden_size / plan.tensor) * FP16_BYTES)
    proxy = workload.training_proxy(plan.data)
    nmb = num_micro_batches(plan, proxy)
    in_flight = min(nmb, plan.pipeline)
    activations = (FP16_BYTES * plan.micro_batch_size * workload.prompt_len
                   * model.hidden_size * in_flight)
    return MemoryFootprint(weights=weights, gradients=0.0,
                           optimizer_states=0.0, activations=activations,
                           kv_cache=kv_cache)


def fits_inference_memory(model: ModelConfig, plan: ParallelismConfig,
                          workload, system: SystemConfig) -> bool:
    """Whether a serving plan's peak footprint fits usable HBM."""
    footprint = inference_memory_footprint(model, plan, workload)
    return footprint.total <= system.gpu.memory_bytes * USABLE_MEMORY_FRACTION


def check_inference_memory(model: ModelConfig, plan: ParallelismConfig,
                           workload,
                           system: SystemConfig) -> MemoryFootprint:
    """Footprint if feasible, else :class:`InfeasibleConfigError`."""
    footprint = inference_memory_footprint(model, plan, workload)
    budget = system.gpu.memory_bytes * USABLE_MEMORY_FRACTION
    if footprint.total > budget:
        raise InfeasibleConfigError(
            f"serving plan {plan.way} batch={workload.batch_size} "
            f"kv={workload.max_kv_length} needs "
            f"{footprint.total_gib:.1f} GiB/GPU, budget is "
            f"{budget / float(1 << 30):.1f} GiB ({system.gpu.name})")
    return footprint


def suggest_schedule_for_memory(model: ModelConfig, plan: ParallelismConfig,
                                training: TrainingConfig,
                                system: SystemConfig) -> PipelineSchedule:
    """Pick 1F1B when GPipe's full-batch activation residency would not
    fit — the PipeDream motivation retold as a helper.

    Interleaved plans (``virtual_stages > 1``) already require 1F1B —
    GPipe has no interleaved variant, so suggesting it would hand back
    a schedule the plan cannot adopt.
    """
    if plan.virtual_stages > 1:
        return PipelineSchedule.ONE_F_ONE_B
    gpipe = plan.replaced(schedule=PipelineSchedule.GPIPE)
    if fits_in_memory(model, gpipe, training, system):
        return PipelineSchedule.GPIPE
    return PipelineSchedule.ONE_F_ONE_B

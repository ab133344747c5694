"""Design-space enumeration for (t, d, p, m)-way 3D parallelism.

Section V-A sweeps tensor parallelism up to 16-way, data parallelism up
to 32-way, and pipeline parallelism up to 105-way for MT-NLG. A plan is
*structurally valid* when ``t`` divides the attention heads, ``p`` divides
the layer count, ``d`` divides the global batch, and the micro-batch size
divides the per-replica batch; it is *feasible* when it additionally fits
per-GPU memory (checked by the explorer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      RecomputeMode, TrainingConfig)
from repro.errors import ConfigError


def powers_of_two(limit: int) -> list[int]:
    """All powers of two up to and including ``limit``."""
    if limit < 1:
        raise ConfigError("limit must be >= 1")
    values = []
    value = 1
    while value <= limit:
        values.append(value)
        value *= 2
    return values


def divisors(value: int) -> list[int]:
    """All positive divisors of ``value`` in ascending order."""
    if value <= 0:
        raise ConfigError("value must be positive")
    small, large = [], []
    probe = 1
    while probe * probe <= value:
        if value % probe == 0:
            small.append(probe)
            if probe != value // probe:
                large.append(value // probe)
        probe += 1
    return small + large[::-1]


@dataclass(frozen=True)
class SearchSpace:
    """Bounds of the 3D-parallelism sweep (paper defaults for MT-NLG).

    Attributes:
        max_tensor: Upper bound on tensor-parallel degree (t_max=16).
        max_data: Upper bound on data-parallel degree (d_max=32).
        max_pipeline: Upper bound on pipeline degree (p_max, the paper
            uses L=105).
        micro_batch_sizes: Candidate micro-batch sizes.
        schedule: Pipeline schedule applied to every plan.
        recompute: Activation recompute mode applied to every plan.
        virtual_stages: Candidate virtual-pipeline (interleaving) chunk
            counts. The default ``(1,)`` sweeps only plain schedules;
            values above 1 add Megatron-interleaved variants of every
            plan that satisfies the interleave constraints (``p > 1``,
            ``p*v | L``, ``p | NMB``) and require the 1F1B schedule.
    """

    max_tensor: int = 16
    max_data: int = 32
    max_pipeline: int = 105
    micro_batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16)
    schedule: PipelineSchedule = PipelineSchedule.ONE_F_ONE_B
    recompute: RecomputeMode = RecomputeMode.SELECTIVE
    virtual_stages: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        for field_name in ("max_tensor", "max_data", "max_pipeline"):
            if getattr(self, field_name) < 1:
                raise ConfigError(f"{field_name} must be >= 1")
        if not self.micro_batch_sizes:
            raise ConfigError("micro_batch_sizes must not be empty")
        for size in self.micro_batch_sizes:
            if type(size) is not int or size < 1:
                raise ConfigError(
                    f"micro-batch sizes must be positive ints, got {size!r}")
        if not self.virtual_stages:
            raise ConfigError("virtual_stages must not be empty")
        for count in self.virtual_stages:
            if type(count) is not int or count < 1:
                raise ConfigError(
                    f"virtual-stage counts must be positive ints, "
                    f"got {count!r}")
        if (max(self.virtual_stages) > 1
                and self.schedule is not PipelineSchedule.ONE_F_ONE_B):
            raise ConfigError(
                "virtual_stages > 1 requires the 1f1b schedule")


def tensor_candidates(model: ModelConfig, space: SearchSpace) -> list[int]:
    """Valid tensor degrees: powers of two dividing the attention heads."""
    return [t for t in powers_of_two(space.max_tensor)
            if model.num_heads % t == 0]


def pipeline_candidates(model: ModelConfig, space: SearchSpace) -> list[int]:
    """Valid pipeline degrees: divisors of the layer count within bound."""
    return [p for p in divisors(model.num_layers) if p <= space.max_pipeline]


def enumerate_plans(model: ModelConfig, training: TrainingConfig, *,
                    space: SearchSpace = SearchSpace(),
                    num_gpus: int | None = None,
                    max_gpus: int | None = None,
                    ) -> Iterator[ParallelismConfig]:
    """Yield every structurally-valid plan in the search space.

    Exactly one of ``num_gpus`` (plans using exactly that many GPUs) or
    ``max_gpus`` (plans using at most that many) must be given.
    """
    if (num_gpus is None) == (max_gpus is None):
        raise ConfigError("specify exactly one of num_gpus / max_gpus")
    budget = num_gpus if num_gpus is not None else max_gpus
    if budget <= 0:
        raise ConfigError("GPU budget must be positive")
    for t in tensor_candidates(model, space):
        for p in pipeline_candidates(model, space):
            for d in range(1, space.max_data + 1):
                total = t * d * p
                if total > budget:
                    break
                if num_gpus is not None and total != num_gpus:
                    continue
                if training.global_batch_size % d != 0:
                    continue
                per_replica = training.global_batch_size // d
                for m in space.micro_batch_sizes:
                    if per_replica % m != 0:
                        continue
                    for v in space.virtual_stages:
                        if v > 1:
                            # Megatron's interleave constraints: a real
                            # pipeline, equal-size model chunks, and a
                            # micro-batch count in whole groups of p.
                            if (p == 1
                                    or (model.num_layers // p) % v != 0
                                    or (per_replica // m) % p != 0):
                                continue
                        yield ParallelismConfig(
                            tensor=t, data=d, pipeline=p, micro_batch_size=m,
                            schedule=space.schedule, virtual_stages=v,
                            recompute=space.recompute)


def enumerate_serving_plans(model: ModelConfig, workload, *,
                            space: SearchSpace = SearchSpace(),
                            num_gpus: int | None = None,
                            max_gpus: int | None = None,
                            ) -> Iterator[ParallelismConfig]:
    """Yield every structurally-valid serving plan for a workload.

    The serving analogue of :func:`enumerate_plans` for an
    :class:`~repro.workload.InferenceWorkload`. The ``d`` axis counts
    data-parallel *server replicas* (each holding a full model copy and
    serving its own ``workload.batch_size`` requests), so unlike
    training it imposes no batch-divisibility constraint; the
    micro-batch size must divide the per-replica serving batch, and
    virtual pipelining is excluded (phase graphs are plain forward
    pipelines).
    """
    if (num_gpus is None) == (max_gpus is None):
        raise ConfigError("specify exactly one of num_gpus / max_gpus")
    budget = num_gpus if num_gpus is not None else max_gpus
    if budget <= 0:
        raise ConfigError("GPU budget must be positive")
    for t in tensor_candidates(model, space):
        for p in pipeline_candidates(model, space):
            for d in range(1, space.max_data + 1):
                total = t * d * p
                if total > budget:
                    break
                if num_gpus is not None and total != num_gpus:
                    continue
                for m in space.micro_batch_sizes:
                    if workload.batch_size % m != 0:
                        continue
                    yield ParallelismConfig(
                        tensor=t, data=d, pipeline=p, micro_batch_size=m,
                        schedule=space.schedule,
                        recompute=space.recompute)


def count_plans(model: ModelConfig, training: TrainingConfig, *,
                space: SearchSpace = SearchSpace(),
                num_gpus: int | None = None,
                max_gpus: int | None = None) -> int:
    """Size of the structurally-valid design space."""
    return sum(1 for _ in enumerate_plans(model, training, space=space,
                                          num_gpus=num_gpus,
                                          max_gpus=max_gpus))


@dataclass(frozen=True)
class GridAxes:
    """Axes of the Figure-10 heatmap grid."""

    tensor: tuple[int, ...] = field(default=(4, 8, 16))
    pipeline: tuple[int, ...] = field(default=(3, 5, 7, 15, 21, 35, 105))
    data: tuple[int, ...] = field(default=(1, 2, 3, 4, 5, 6, 8, 10, 12, 15,
                                           16, 20, 24, 30))

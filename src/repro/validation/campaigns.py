"""Validation campaigns: the Figure 9 predicted-vs-measured studies.

* **Single-node** (Figure 9a): LLM configurations and (t, d, p, m) plans
  on one 8-GPU node — the paper collected 1,440 data points on an AWS
  p4d instance. The generator sweeps hidden sizes, depths, sequence
  lengths, every 8-GPU plan shape, and micro-batch sizes, yielding the
  same order of magnitude of valid points.
* **Multi-node** (Figure 9b): Megatron-LM-scale models on 64-512 GPUs —
  the paper secured 116 measurements from an industrial cluster. The
  generator walks the Megatron scale-down zoo across 8/16/32/64-node
  systems and plan shapes, then truncates to 116 points
  deterministically.

``run_campaign`` evaluates each point with vTrain (prediction) and the
testbed emulator (measurement) and reports MAPE / R^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, RecomputeMode,
                                      TrainingConfig, validate_plan)
from repro.config.presets import (MEGATRON_18_4B, MEGATRON_39_1B,
                                  MEGATRON_76_1B, MEGATRON_145_6B)
from repro.config.system import SystemConfig, multi_node, single_node
from repro.errors import InfeasibleConfigError
from repro.graph.builder import Granularity
from repro.memory.footprint import fits_in_memory
from repro.sim.estimator import VTrain
from repro.testbed.emulator import TestbedConfig, TestbedEmulator
from repro.validation.metrics import Accuracy, accuracy


@dataclass(frozen=True)
class ValidationPoint:
    """One predicted-vs-measured experiment."""

    model: ModelConfig
    plan: ParallelismConfig
    training: TrainingConfig
    num_nodes: int

    def system(self, gpus_per_node: int = 8) -> SystemConfig:
        """The training system this point runs on."""
        if self.num_nodes == 1:
            return single_node(gpus_per_node)
        return multi_node(self.num_nodes, gpus_per_node=gpus_per_node)


@dataclass
class CampaignResult:
    """Outcome of one validation campaign."""

    points: list[ValidationPoint] = field(default_factory=list)
    predicted: list[float] = field(default_factory=list)
    measured: list[float] = field(default_factory=list)

    @property
    def accuracy(self) -> Accuracy:
        """MAPE / R^2 summary over the campaign."""
        return accuracy(self.measured, self.predicted)

    def scatter(self) -> list[tuple[float, float]]:
        """(measured, predicted) pairs — the Figure 9 scatter plot."""
        return list(zip(self.measured, self.predicted))


# ---------------------------------------------------------------------------
# Point generators
# ---------------------------------------------------------------------------

#: Every (t, d, p) factorisation of 8 GPUs (single-node plans).
SINGLE_NODE_WAYS = ((1, 8, 1), (2, 4, 1), (4, 2, 1), (8, 1, 1),
                    (1, 4, 2), (2, 2, 2), (4, 1, 2),
                    (1, 2, 4), (2, 1, 4), (1, 1, 8))


def single_node_points(*, limit: int | None = None) -> list[ValidationPoint]:
    """The Figure 9(a) campaign: ~1,440 single-node configurations."""
    points: list[ValidationPoint] = []
    system = single_node()
    hidden_sizes = (1024, 1536, 2048, 2560, 3072, 4096)
    depths = (2, 4, 8, 16)
    seq_lengths = (1024, 2048)
    micro_batches = (1, 2, 4)
    global_batch = 64
    for h in hidden_sizes:
        for num_layers in depths:
            for s in seq_lengths:
                model = ModelConfig(hidden_size=h, num_layers=num_layers,
                                    seq_length=s, num_heads=max(8, h // 128),
                                    name=f"val-{h}x{num_layers}x{s}")
                for way in SINGLE_NODE_WAYS:
                    t, d, p = way
                    if num_layers % p or model.num_heads % t:
                        continue
                    for m in micro_batches:
                        plan = ParallelismConfig(
                            tensor=t, data=d, pipeline=p, micro_batch_size=m,
                            recompute=RecomputeMode.SELECTIVE)
                        training = TrainingConfig(global_batch_size=global_batch)
                        if not _valid(model, plan, training, system):
                            continue
                        points.append(ValidationPoint(model, plan, training,
                                                      num_nodes=1))
                        if limit is not None and len(points) >= limit:
                            return points
    return points


def multi_node_points(*, limit: int | None = 116) -> list[ValidationPoint]:
    """The Figure 9(b) campaign: 116 points on 64-512 GPU systems.

    Configurations follow the Megatron-LM model zoo ([40]), the same
    source the paper drew its multi-node validation models from, with
    each model's published global batch size. The full valid set is
    generated first, then subsampled evenly (deterministically) so the
    116 points span all four models, node counts, and plan shapes — and
    with them an iteration-time range from a couple of seconds to over a
    minute, matching the spread of the paper's scatter plot.
    """
    all_points: list[ValidationPoint] = []
    recipes = (
        (MEGATRON_18_4B, 1024),
        (MEGATRON_39_1B, 1536),
        (MEGATRON_76_1B, 1792),
        (MEGATRON_145_6B, 2048),
    )
    node_counts = (8, 16, 32, 64)
    tensor_degrees = (4, 8)
    pipeline_degrees = (1, 2, 4, 8, 16)
    micro_batches = (1, 2, 4, 8)
    for model, global_batch in recipes:
        training = TrainingConfig(global_batch_size=global_batch)
        for num_nodes in node_counts:
            num_gpus = num_nodes * 8
            system = multi_node(num_nodes)
            for t in tensor_degrees:
                for p in pipeline_degrees:
                    if model.num_layers % p or num_gpus % (t * p):
                        continue
                    d = num_gpus // (t * p)
                    if d < 4 or global_batch % d:
                        # d < 4 under these batch sizes yields multi-minute
                        # iterations far outside the paper's measured range.
                        continue
                    for m in micro_batches:
                        # gradient_bucketing=False: the multi-node runs
                        # use Megatron-LM ([40]), which reduces gradients
                        # in one exposed All-Reduce at the end of the
                        # backward pass (the Figure 5(b) pattern), unlike
                        # PyTorch DDP's overlapped buckets.
                        plan = ParallelismConfig(
                            tensor=t, data=d, pipeline=p, micro_batch_size=m,
                            gradient_bucketing=False,
                            recompute=RecomputeMode.SELECTIVE)
                        if not _valid(model, plan, training, system):
                            continue
                        all_points.append(
                            ValidationPoint(model, plan, training,
                                            num_nodes=num_nodes))
    if limit is None or len(all_points) <= limit:
        return all_points
    step = len(all_points) / limit
    return [all_points[int(i * step)] for i in range(limit)]


def _valid(model: ModelConfig, plan: ParallelismConfig,
           training: TrainingConfig, system: SystemConfig) -> bool:
    try:
        validate_plan(model, plan, training, plan.total_gpus)
    except InfeasibleConfigError:
        return False
    return fits_in_memory(model, plan, training, system)


# ---------------------------------------------------------------------------
# Campaign runner
# ---------------------------------------------------------------------------

def run_campaign(points: Sequence[ValidationPoint], *,
                 granularity: Granularity = Granularity.OPERATOR,
                 testbed_config: TestbedConfig = TestbedConfig(),
                 ) -> CampaignResult:
    """Predict and measure every point; returns the paired results.

    One vTrain predictor and one testbed emulator serve each system
    size. Every predictor takes the process's profile table for its GPU
    (see :class:`VTrain`), so the campaign profiles each necessary
    operator once, exactly as in a real campaign. Each emulator
    perturbs the durations it replays, never the shared profiles.
    """
    result = CampaignResult()
    simulators: dict[int, VTrain] = {}
    testbeds: dict[int, TestbedEmulator] = {}
    for point in points:
        system = point.system()
        key = point.num_nodes
        if key not in simulators:
            simulators[key] = VTrain(system, granularity=granularity,
                                     check_memory_feasibility=False)
            testbeds[key] = TestbedEmulator(system, config=testbed_config,
                                            granularity=granularity)
        prediction = simulators[key].predict(point.model, point.plan,
                                             point.training)
        measured = testbeds[key].measure_time(point.model, point.plan,
                                              point.training)
        result.points.append(point)
        result.predicted.append(prediction.iteration_time)
        result.measured.append(measured)
    return result

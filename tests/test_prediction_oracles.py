"""Closed-form and metamorphic oracles on whole predictions.

* With t = d = p = 1 on one node there is no communication and no
  overlap, so an iteration is one chain of tasks: its time is the left
  fold ``0.0 + d0 + d1 + ...`` of the prepared durations in replay
  order, bit for bit, and within 1e-12 of their exactly rounded sum.
* A faster GPU (peak FP16 FLOP/s and HBM bandwidth scaled together)
  never makes an iteration slower, for any plan, granularity or
  pipeline schedule.
"""

import math
from dataclasses import replace

import pytest

from repro import ParallelismConfig, TrainingConfig, VTrain
from repro.config.parallelism import PipelineSchedule
from repro.config.presets import MEGATRON_1_7B, MEGATRON_7_5B
from repro.config.system import SystemConfig, multi_node, single_node
from repro.graph.builder import Granularity

MODELS = pytest.mark.parametrize("model", [MEGATRON_1_7B, MEGATRON_7_5B],
                                 ids=lambda model: model.name)


@MODELS
@pytest.mark.parametrize("granularity", list(Granularity),
                         ids=lambda granularity: granularity.value)
@pytest.mark.parametrize("micro_batch,global_batch", [(1, 4), (2, 8), (4, 4)])
def test_single_gpu_iteration_is_the_sum_of_its_durations(
        model, granularity, micro_batch, global_batch):
    vtrain = VTrain(single_node(), granularity=granularity,
                    check_memory_feasibility=False)
    plan = ParallelismConfig(tensor=1, data=1, pipeline=1,
                             micro_batch_size=micro_batch)
    training = TrainingConfig(global_batch_size=global_batch)
    durations = vtrain.prepare(model, plan, training).durations.tolist()
    folded = 0.0
    for duration in durations:
        folded += duration
    iteration_time = vtrain.predict(model, plan, training).iteration_time
    assert iteration_time == folded
    assert iteration_time == pytest.approx(math.fsum(durations), rel=1e-12,
                                           abs=0.0)


#: How much faster each GPU variant is than the A100 it derives from.
SPEEDUPS = (1.0, 1.25, 1.5, 2.0, 4.0)


def faster(system: SystemConfig, factor: float) -> SystemConfig:
    """``system`` with its GPU's FLOP/s and HBM bandwidth x ``factor``."""
    gpu = system.gpu
    return replace(system, gpu=replace(
        gpu, peak_fp16_flops=gpu.peak_fp16_flops * factor,
        memory_bandwidth=gpu.memory_bandwidth * factor))


@MODELS
@pytest.mark.parametrize("granularity",
                         [Granularity.OPERATOR, Granularity.STAGE],
                         ids=lambda granularity: granularity.value)
@pytest.mark.parametrize("schedule", list(PipelineSchedule),
                         ids=lambda schedule: schedule.value)
@pytest.mark.parametrize("tensor,data,pipeline,micro_batch",
                         [(1, 1, 1, 1), (2, 2, 2, 1), (4, 2, 2, 2),
                          (1, 4, 4, 1), (8, 2, 2, 1), (2, 8, 4, 2)])
def test_faster_gpu_never_slows_an_iteration(model, granularity, schedule,
                                             tensor, data, pipeline,
                                             micro_batch):
    plan = ParallelismConfig(tensor=tensor, data=data, pipeline=pipeline,
                             micro_batch_size=micro_batch, schedule=schedule)
    system = multi_node(max(1, plan.total_gpus // 8))
    training = TrainingConfig(global_batch_size=64)
    times = [VTrain(faster(system, factor), granularity=granularity,
                    check_memory_feasibility=False).predict(
                        model, plan, training).iteration_time
             for factor in SPEEDUPS]
    assert times == sorted(times, reverse=True)
    assert times[-1] < times[0]

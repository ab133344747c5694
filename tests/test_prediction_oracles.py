"""Closed-form and metamorphic oracles on whole predictions.

* With t = d = p = 1 on one node there is no communication and no
  overlap, so an iteration is one chain of tasks: its time is the left
  fold ``0.0 + d0 + d1 + ...`` of the prepared durations in replay
  order, bit for bit, and within 1e-12 of their exactly rounded sum.
* A faster GPU (peak FP16 FLOP/s and HBM bandwidth scaled together)
  never makes an iteration slower, for any plan, granularity or
  pipeline schedule.
* More inter-node bandwidth never makes a training iteration, a
  prefill or a decode step slower, on any fabric.
"""

import itertools
import math
from dataclasses import replace

import pytest

from repro import ParallelismConfig, TrainingConfig, VTrain
from repro.config.parallelism import PipelineSchedule
from repro.config.presets import MEGATRON_1_7B, MEGATRON_7_5B
from repro.config.system import SystemConfig, multi_node, single_node
from repro.errors import ConfigError, InfeasibleConfigError
from repro.graph.builder import Granularity
from repro.workload import InferenceWorkload

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


#: How much more inter-node bandwidth each fabric variant has.
BANDWIDTHS = (1.0, 1.25, 1.5, 2.0, 4.0)
FABRICS = ("flat", "rail", "fat-tree", "fat-tree:4")
#: (t, d, p, micro-batch); the first four fit in two nodes.
FABRIC_PLANS = [(8, 2, 1, 1), (4, 2, 2, 2), (2, 4, 2, 1), (8, 1, 2, 2),
                (8, 2, 2, 1), (4, 4, 2, 1), (8, 4, 2, 1), (2, 8, 4, 1)]
#: Training at B=64 under both schedules, and 1F1B serving.
FABRIC_WORKLOADS = {
    PipelineSchedule.GPIPE: TrainingConfig(global_batch_size=64),
    PipelineSchedule.ONE_F_ONE_B: TrainingConfig(global_batch_size=64),
    "serving": InferenceWorkload(batch_size=8, prompt_len=256, gen_len=32),
}


def bandwidth_sweep(model, nodes, fabric, granularity, workload, plan):
    """Per bandwidth multiplier: the iteration time, or the prefill and
    decode-step times of a serving workload."""
    system = multi_node(nodes, network=fabric)
    rows = []
    for factor in BANDWIDTHS:
        vtrain = VTrain(replace(system, internode_bandwidth=(
            system.internode_bandwidth * factor)), granularity=granularity,
            check_memory_feasibility=False)
        if isinstance(workload, InferenceWorkload):
            served = vtrain.predict(model, plan, workload=workload)
            rows.append((served.prefill_time, served.decode_step_time))
        else:
            rows.append((vtrain.predict(model, plan,
                                        workload).iteration_time,))
    return rows


def check_bandwidth_monotone(models, node_counts, plans) -> tuple[int, int]:
    """Assert the property over a grid; returns how many configurations
    it checked and how many got strictly faster at the widest fabric."""
    checked = faster = 0
    grid = itertools.product(models, node_counts, FABRICS,
                             (Granularity.STAGE, Granularity.OPERATOR),
                             FABRIC_WORKLOADS.items(), plans)
    for model, nodes, fabric, granularity, (schedule, workload), \
            (tensor, data, pipeline, micro_batch) in grid:
        plan = ParallelismConfig(
            tensor=tensor, data=data, pipeline=pipeline,
            micro_batch_size=micro_batch,
            schedule=(schedule if isinstance(schedule, PipelineSchedule)
                      else PipelineSchedule.ONE_F_ONE_B))
        try:
            rows = bandwidth_sweep(model, nodes, fabric, granularity,
                                   workload, plan)
        except (ConfigError, InfeasibleConfigError):
            continue  # the plan needs more GPUs than the nodes hold
        for narrow, wide in zip(rows, rows[1:]):
            assert all(after <= before
                       for before, after in zip(narrow, wide)), (
                model.name, nodes, fabric, granularity, schedule, plan,
                rows)
        checked += 1
        faster += rows[-1] != rows[0]
    return checked, faster


def test_more_internode_bandwidth_never_slows_a_prediction():
    checked, faster = check_bandwidth_monotone(
        [MEGATRON_1_7B], (2, 4), FABRIC_PLANS[:4])
    assert checked == 192
    assert faster >= checked // 2  # the fabric axis is live


@pytest.mark.slow
def test_more_internode_bandwidth_never_slows_the_full_grid():
    checked, faster = check_bandwidth_monotone(
        [MEGATRON_1_7B, MEGATRON_7_5B], (2, 4, 8), FABRIC_PLANS)
    assert checked == 864
    assert faster >= checked // 2

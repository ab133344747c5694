"""Ablation: graph granularity (kernel vs operator vs stage).

The paper replays kernel-granularity task graphs; this reproduction adds
two aggregation levels (README.md, "Substitutions"). The ablation
quantifies the accuracy/speed trade-off: kernel and operator granularity
agree exactly (kernels run back-to-back on one stream, so summation is
lossless), and the stage fast path stays within a couple of percent
while simulating an order of magnitude fewer tasks.
"""

import time

from _helpers import emit_table

from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import multi_node
from repro.graph.builder import Granularity
from repro.sim.estimator import VTrain

MODEL = ModelConfig(hidden_size=4096, num_layers=32, seq_length=2048,
                    num_heads=32, name="ablation-7B")
PLAN = ParallelismConfig(tensor=4, data=4, pipeline=4, micro_batch_size=2)
TRAINING = TrainingConfig(global_batch_size=128)


def run_granularity_ablation():
    rows = []
    reference = None
    for granularity in (Granularity.KERNEL, Granularity.OPERATOR,
                        Granularity.STAGE):
        system = multi_node(PLAN.total_gpus // 8)
        vtrain = VTrain(system, granularity=granularity)
        vtrain.predict(MODEL, PLAN, TRAINING)  # warm profiles
        start = time.perf_counter()
        prediction = vtrain.predict(MODEL, PLAN, TRAINING)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = prediction.iteration_time
        rows.append({"granularity": granularity.value,
                     "tasks": prediction.simulation.num_tasks,
                     "iteration_s": prediction.iteration_time,
                     "vs_kernel_pct":
                         100 * (prediction.iteration_time / reference - 1),
                     "sim_seconds": elapsed})
    return rows


def test_ablation_granularity(benchmark):
    rows = benchmark.pedantic(run_granularity_ablation, rounds=1,
                              iterations=1)
    emit_table("ablation_granularity",
               "Ablation: graph granularity accuracy/speed trade-off", rows)
    by_name = {row["granularity"]: row for row in rows}
    # Kernel and operator granularity agree exactly.
    assert abs(by_name["operator"]["vs_kernel_pct"]) < 0.01
    # Stage granularity stays within a few percent...
    assert abs(by_name["stage"]["vs_kernel_pct"]) < 5.0
    # ...while simulating far fewer tasks, far faster.
    assert by_name["stage"]["tasks"] < by_name["kernel"]["tasks"] / 10
    assert by_name["stage"]["sim_seconds"] < by_name["kernel"]["sim_seconds"]

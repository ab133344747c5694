"""repro — a reproduction of vTrain (MICRO 2024).

A profiling-driven simulation framework for evaluating cost-effective and
compute-optimal large language model training. See README.md for a tour,
its "Layout" section for the module inventory, and its "Substitutions"
section for what stands in for the paper's hardware and traces.

Quickstart::

    from repro import VTrain, ParallelismConfig, TrainingConfig, multi_node
    from repro.config.presets import MT_NLG_530B, MT_NLG_TRAINING

    system = multi_node(num_nodes=280)          # 2,240 A100 GPUs
    plan = ParallelismConfig(tensor=8, data=8, pipeline=35)
    vtrain = VTrain(system)
    estimate = vtrain.estimate_training(MT_NLG_530B, plan, MT_NLG_TRAINING)
    print(estimate.as_row())
"""

from repro.config import (InputDescription, ModelConfig, NetworkSpec,
                          ParallelismConfig, PipelineSchedule, RecomputeMode,
                          SystemConfig, TrainingConfig, multi_node,
                          single_node)
from repro.dse import DesignSpaceExplorer, SearchSpace
from repro.graph.builder import Granularity
from repro.network import TopologyAwareNcclModel, nccl_model_for
from repro.sim.estimator import VTrain
from repro.sim.results import (IterationPrediction, SimulationResult,
                               TrainingEstimate)
from repro.testbed import TestbedEmulator

__version__ = "1.0.0"

__all__ = [
    "DesignSpaceExplorer",
    "Granularity",
    "InputDescription",
    "IterationPrediction",
    "ModelConfig",
    "NetworkSpec",
    "ParallelismConfig",
    "PipelineSchedule",
    "RecomputeMode",
    "SearchSpace",
    "SimulationResult",
    "SystemConfig",
    "TestbedEmulator",
    "TopologyAwareNcclModel",
    "TrainingConfig",
    "TrainingEstimate",
    "VTrain",
    "multi_node",
    "nccl_model_for",
    "single_node",
    "__version__",
]

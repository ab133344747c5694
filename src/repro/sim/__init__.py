"""Simulation core: Algorithm-1 engine, results, and the VTrain facade."""

from repro.sim.analysis import (DeviceProfile, critical_device,
                                device_profiles, exposed_dp_fraction,
                                pipeline_bubble_time,
                                stage_utilization_profile, summarize)
from repro.sim.engine import (BatchSimulationResult, compute_idle_fraction,
                              simulate_retimed, simulate_retimed_batch)
from repro.sim.estimator import (PredictTiming, PreparedPlan, VTrain,
                                 cost_for_utilization,
                                 training_days_for_utilization)
from repro.sim.results import (IterationPrediction, SimulationResult,
                               TimelineEvent, TrainingEstimate)

__all__ = [
    "DeviceProfile",
    "critical_device",
    "device_profiles",
    "exposed_dp_fraction",
    "pipeline_bubble_time",
    "stage_utilization_profile",
    "summarize",
    "IterationPrediction",
    "PredictTiming",
    "PreparedPlan",
    "SimulationResult",
    "TimelineEvent",
    "TrainingEstimate",
    "VTrain",
    "BatchSimulationResult",
    "compute_idle_fraction",
    "cost_for_utilization",
    "simulate_retimed",
    "simulate_retimed_batch",
    "training_days_for_utilization",
]

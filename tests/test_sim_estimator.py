"""Unit tests for the VTrain facade and end-to-end estimation."""

import pytest

from repro.config.description import InputDescription
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import multi_node, single_node
from repro.cost.pricing import PricingModel
from repro.errors import ConfigError, InfeasibleConfigError
from repro.graph.builder import Granularity
from repro.hardware.gpu import H100_80GB
from repro.network.model import TopologyAwareNcclModel
from repro.sim.estimator import (VTrain, cost_for_utilization,
                                 training_days_for_utilization)


class TestPredict:
    def test_prediction_fields(self, vtrain, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        prediction = vtrain.predict(tiny_model, plan, training)
        assert prediction.iteration_time > 0
        assert 0 < prediction.gpu_compute_utilization < 1
        assert prediction.num_gpus == 8
        assert prediction.tokens_per_iteration == 16 * 128
        assert prediction.memory_per_gpu > 0
        assert prediction.achieved_flops_per_gpu > 0
        assert prediction.tokens_per_second > 0

    def test_memory_check_can_reject(self, training):
        from repro.config.model import ModelConfig
        huge = ModelConfig(hidden_size=16384, num_layers=8, seq_length=2048,
                           num_heads=128, name="too-big")
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=1, data=8, pipeline=1)
        with pytest.raises(InfeasibleConfigError, match="GiB"):
            vtrain.predict(huge, plan, TrainingConfig(global_batch_size=8))

    def test_memory_check_can_be_disabled(self, training):
        from repro.config.model import ModelConfig
        huge = ModelConfig(hidden_size=16384, num_layers=8, seq_length=2048,
                           num_heads=128, name="too-big")
        vtrain = VTrain(single_node(), check_memory_feasibility=False)
        plan = ParallelismConfig(tensor=1, data=8, pipeline=1)
        prediction = vtrain.predict(huge, plan,
                                    TrainingConfig(global_batch_size=8))
        assert prediction.iteration_time > 0

    def test_structural_violation_raises(self, vtrain, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=3)  # 12 != 8
        with pytest.raises(InfeasibleConfigError):
            vtrain.predict(tiny_model, plan, training)

    def test_predict_from_description(self, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        desc = InputDescription(model=tiny_model, system=single_node(),
                                plan=plan, training=training)
        prediction = VTrain(single_node()).predict_description(desc)
        assert prediction.iteration_time > 0

    def test_more_gpus_faster(self, tiny_model, training):
        slow = VTrain(single_node()).predict(
            tiny_model, ParallelismConfig(tensor=1, data=2, pipeline=1),
            training)
        # same model, 8-way data parallel
        fast = VTrain(single_node()).predict(
            tiny_model, ParallelismConfig(tensor=1, data=8, pipeline=1),
            training)
        assert fast.iteration_time < slow.iteration_time


class TestGranularities:
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_all_granularities_run(self, tiny_model, training, granularity):
        vtrain = VTrain(single_node(), granularity=granularity)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        prediction = vtrain.predict(tiny_model, plan, training)
        assert prediction.iteration_time > 0


class TestEndToEnd:
    def test_estimate_training_days_and_cost(self, vtrain, tiny_model,
                                             training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        estimate = vtrain.estimate_training(tiny_model, plan, training)
        iterations = training.num_iterations(tiny_model)
        assert estimate.num_iterations == iterations
        expected_days = estimate.iteration_time * iterations / 86_400
        assert estimate.total_days == pytest.approx(expected_days)
        assert estimate.dollars_per_hour == pytest.approx(8 * 5.0)
        expected_total = (estimate.dollars_per_hour * estimate.total_days
                          * 24)
        assert estimate.dollars_total == pytest.approx(expected_total,
                                                       rel=1e-6)

    def test_custom_pricing(self, vtrain, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        estimate = vtrain.estimate_training(
            tiny_model, plan, training, pricing=PricingModel(10.0))
        assert estimate.dollars_per_hour == pytest.approx(80.0)

    def test_as_row_keys(self, vtrain, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        row = vtrain.estimate_training(tiny_model, plan, training).as_row()
        assert set(row) == {"iteration_time_s", "total_days",
                            "utilization_pct", "num_gpus",
                            "dollars_per_hour", "dollars_total_millions"}


class TestProfilingAmortisation:
    def test_shared_lookup_across_predictions(self, tiny_model, training):
        """Predicting many plans profiles each necessary operator once."""
        vtrain = VTrain(single_node())
        plans = [ParallelismConfig(tensor=2, data=2, pipeline=2,
                                   micro_batch_size=m) for m in (1, 2, 4)]
        for plan in plans:
            vtrain.predict(tiny_model, plan, training)
        stats = vtrain.profiling_stats
        # 3 micro-batch sizes x ~9 operator kinds, not x plans x layers.
        assert stats["operators_profiled"] <= 3 * 9
        # Re-predicting profiles nothing new: every operator duration is
        # served from the lookup table (the builder's timing table
        # consults it O(#operators) times per build, not per task).
        before = stats["operators_profiled"]
        vtrain.predict(tiny_model, plans[0], training)
        after = vtrain.profiling_stats
        assert after["operators_profiled"] == before
        assert after["lookups_served_from_table"] > \
            stats["lookups_served_from_table"]

    def test_structure_cache_amortises_graph_builds(self, tiny_model,
                                                    training):
        """A repeated predict reuses the compiled structure: only the
        duration vector is refilled, and the prediction is identical."""
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        first = vtrain.predict(tiny_model, plan, training)
        assert vtrain.last_predict_timing is not None
        second = vtrain.predict(tiny_model, plan, training)
        stats = vtrain.profiling_stats
        assert stats["structure_cache_hits"] >= 1
        assert vtrain.last_predict_timing.structure_cache_hit
        assert vtrain.last_predict_timing.structure_s == 0.0
        assert vtrain.last_predict_timing.structure_source == "cache hit"
        assert second.iteration_time == first.iteration_time
        assert second.simulation.device_timeline == \
            first.simulation.device_timeline


class TestForSystem:
    def test_shares_the_profiling_stack_and_settings(self, tiny_model,
                                                     training):
        base = VTrain(single_node(), granularity=Granularity.STAGE,
                      check_memory_feasibility=False, zero_stage=2)
        derived = base.for_system(multi_node(4, network="rail"))
        assert derived.system == multi_node(4, network="rail")
        assert (derived.device, derived.tracer, derived.lookup) == \
            (base.device, base.tracer, base.lookup)
        assert derived.granularity is Granularity.STAGE
        assert derived.zero_stage == 2
        assert derived.check_memory_feasibility is False
        assert isinstance(derived.nccl, TopologyAwareNcclModel)
        assert derived.nccl.system == derived.system
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2)
        base.predict(tiny_model, plan, training)
        profiled = base.profiling_stats["operators_profiled"]
        derived.predict(tiny_model, plan, training)
        assert derived.profiling_stats["operators_profiled"] == profiled
        assert derived.profiling_stats["predictions"] == 1

    def test_predictions_match_an_independent_simulator(self, small_model,
                                                        training):
        base = VTrain(single_node(), granularity=Granularity.OPERATOR)
        plan = ParallelismConfig(tensor=2, data=4, pipeline=2)
        for network in ("flat", "rail", "fat-tree:4"):
            system = multi_node(2, network=network)
            shared = base.for_system(system).predict(small_model, plan,
                                                     training)
            alone = VTrain(system).predict(small_model, plan, training)
            assert shared.iteration_time == alone.iteration_time

    def test_rejects_another_gpu(self):
        base = VTrain(single_node())
        with pytest.raises(ConfigError, match="H100"):
            base.for_system(multi_node(2, gpu=H100_80GB))


class TestFigure1Helpers:
    def test_days_inverse_in_utilization(self):
        from repro.config.presets import GPT3_175B
        days_40 = training_days_for_utilization(GPT3_175B, 300e9, 1024, 0.40,
                                                312e12)
        days_50 = training_days_for_utilization(GPT3_175B, 300e9, 1024, 0.50,
                                                312e12)
        assert days_40 == pytest.approx(days_50 * 50 / 40)

    def test_figure1_magnitude(self):
        """GPT-3 at 50% utilization on 1,024 A100s: tens of days
        (Figure 1 shows ~25 days at 50%)."""
        from repro.config.presets import GPT3_175B
        days = training_days_for_utilization(GPT3_175B, 300e9, 1024, 0.50,
                                             312e12)
        assert 15 < days < 40

    def test_cost_scales_with_days(self):
        from repro.config.presets import GPT3_175B
        cost_40 = cost_for_utilization(GPT3_175B, 300e9, 1024, 0.40, 312e12)
        cost_50 = cost_for_utilization(GPT3_175B, 300e9, 1024, 0.50, 312e12)
        assert cost_40 > cost_50

    def test_bad_utilization_rejected(self):
        from repro.config.presets import GPT3_175B
        with pytest.raises(ValueError):
            training_days_for_utilization(GPT3_175B, 300e9, 1024, 0.0, 312e12)

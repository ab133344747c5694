"""Unit tests for the VTrain facade and end-to-end estimation."""

import dataclasses
import sys
import threading

import pytest

from repro.config.description import InputDescription
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import GBPS, multi_node, single_node
from repro.cost.pricing import PricingModel
from repro.errors import InfeasibleConfigError
from repro.graph.builder import Granularity
from repro.hardware.gpu import A100_80GB, H100_80GB
from repro.network.model import TopologyAwareNcclModel, nccl_model_for
from repro.network.topology import build_topology
from repro.profiling.advanced import ContentionAwareNcclModel
from repro.profiling.lookup import PROFILE_TABLES, profile_table
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
        profile_table.cache_clear()  # count this model's profiles only
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


class TestProcessStores:
    """Every simulator takes its profile table from the process's store
    for its GPU and its communication model from the store for its
    system."""

    def test_simulators_on_one_gpu_share_one_table(self, tiny_model,
                                                   training):
        base = VTrain(single_node(), granularity=Granularity.STAGE)
        other = VTrain(multi_node(4, network="rail"),
                       granularity=Granularity.STAGE,
                       check_memory_feasibility=False, zero_stage=2)
        h100 = VTrain(multi_node(2, gpu=H100_80GB),
                      granularity=Granularity.STAGE)
        assert other.lookup is base.lookup is profile_table(A100_80GB)
        assert h100.lookup is profile_table(H100_80GB)
        assert h100.lookup is not base.lookup
        assert other.nccl is nccl_model_for(multi_node(4, network="rail"))
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2)
        base.predict(tiny_model, plan, training)
        profiled = base.profiling_stats["operators_profiled"]
        other.predict(tiny_model, plan, training)
        assert other.profiling_stats["operators_profiled"] == profiled
        assert other.profiling_stats["predictions"] == 1
        h100.predict(tiny_model, plan, training)
        assert h100.profiling_stats["operators_profiled"] > 0
        assert base.profiling_stats["operators_profiled"] == profiled

    def test_predictions_match_fresh_stores(self, small_model, training):
        plan = ParallelismConfig(tensor=2, data=4, pipeline=2)
        for network in ("flat", "rail", "fat-tree:4"):
            system = multi_node(2, network=network)
            VTrain(multi_node(4, network=network)).predict(
                small_model, plan, training)
            shared = VTrain(system).predict(small_model, plan, training)
            profile_table.cache_clear()
            nccl_model_for.cache_clear()
            alone = VTrain(system).predict(small_model, plan, training)
            assert shared.iteration_time == alone.iteration_time

    def test_explicit_model_stays_out_of_the_store(self, tiny_model,
                                                   training):
        """A model passed as ``nccl=`` is used as given: a predict on
        it leaves the process's model for the system untouched."""
        system = multi_node(4)
        nccl_model_for.cache_clear()
        shared = nccl_model_for(system)
        vtrain = VTrain(system, nccl=ContentionAwareNcclModel(system))
        vtrain.predict(tiny_model, ParallelismConfig(tensor=2, data=8,
                                                     pipeline=2), training)
        costed = vtrain.nccl._cost_memo()
        assert costed
        assert all(shared.cached_time(signature) is None
                   for signature in costed)
        assert nccl_model_for(system) is shared

    def test_whatif_topology_changes_only_its_own_simulator(
            self, tiny_model, training):
        """A what-if fabric goes into a model of its own, passed as
        ``nccl=``: the process's model for the system keeps its
        topology and every simulator that takes it keeps its costs."""
        system = multi_node(4, network="rail")
        plan = ParallelismConfig(tensor=2, data=8, pipeline=2)
        shared = nccl_model_for(system)
        before = VTrain(system).predict(tiny_model, plan, training)
        slow = build_topology(dataclasses.replace(
            system, internode_bandwidth=8 * GBPS))
        whatif = VTrain(system, nccl=TopologyAwareNcclModel(
            system, topology=slow)).predict(tiny_model, plan, training)
        after = VTrain(system).predict(tiny_model, plan, training)
        assert whatif.iteration_time > before.iteration_time
        assert after.iteration_time == before.iteration_time
        assert nccl_model_for(system) is shared
        assert shared.topology is not slow

    def test_threads_sharing_one_table_predict_sequential_results(
            self, tiny_model, training):
        """Simulators on several threads share one table: threads that
        miss one signature at once profile it twice, equally, and every
        prediction equals a sequential one."""
        plans = [ParallelismConfig(tensor=t, data=2, pipeline=2,
                                   micro_batch_size=m)
                 for t in (1, 2) for m in (1, 2)]
        expected = [VTrain(single_node()).predict(tiny_model, plan,
                                                  training).iteration_time
                    for plan in plans]
        profile_table.cache_clear()
        start = threading.Barrier(8)
        results, errors = [], []

        def worker():
            try:
                start.wait(timeout=10)
                vtrain = VTrain(single_node())
                results.append([vtrain.predict(tiny_model, plan,
                                               training).iteration_time
                                for plan in plans])
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, daemon=True)
                    for _ in range(8)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        assert results == [expected] * 8

    def test_table_store_evicts_past_its_bound_and_rebuilds_equal(
            self, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2)
        profile_table.cache_clear()
        vtrain = VTrain(single_node())
        expected = vtrain.predict(tiny_model, plan, training)
        first = vtrain.lookup
        for index in range(PROFILE_TABLES):
            profile_table(dataclasses.replace(A100_80GB, name=f"gpu{index}"))
        assert profile_table.cache_info().currsize == PROFILE_TABLES
        rebuilt = profile_table(A100_80GB)
        assert rebuilt is not first and len(rebuilt) == 0
        again = VTrain(single_node()).predict(tiny_model, plan, training)
        assert again.iteration_time == expected.iteration_time
        assert rebuilt.signatures == first.signatures
        assert all(rebuilt.cached_duration(signature)
                   == first.cached_duration(signature)
                   for signature in first.signatures)


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

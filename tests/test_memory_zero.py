"""Tests for the ZeRO-stage memory extension."""

import pytest

from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.errors import InfeasibleConfigError
from repro.memory.footprint import memory_footprint, stage_zero_params


@pytest.fixture
def plan():
    return ParallelismConfig(tensor=1, data=8, pipeline=1)


@pytest.fixture
def batch():
    return TrainingConfig(global_batch_size=16)


class TestZeroStages:
    def test_stage0_nothing_sharded(self, tiny_model, plan, batch):
        fp = memory_footprint(tiny_model, plan, batch, zero_stage=0)
        params = stage_zero_params(tiny_model, plan)
        assert fp.weights == pytest.approx(2.0 * params)
        assert fp.gradients == pytest.approx(2.0 * params)
        assert fp.optimizer_states == pytest.approx(12.0 * params)

    def test_stage1_shards_optimizer_only(self, tiny_model, plan, batch):
        fp = memory_footprint(tiny_model, plan, batch, zero_stage=1)
        params = stage_zero_params(tiny_model, plan)
        assert fp.optimizer_states == pytest.approx(12.0 * params / 8)
        assert fp.gradients == pytest.approx(2.0 * params)

    def test_stage2_also_shards_gradients(self, tiny_model, plan, batch):
        fp = memory_footprint(tiny_model, plan, batch, zero_stage=2)
        params = stage_zero_params(tiny_model, plan)
        assert fp.gradients == pytest.approx(2.0 * params / 8)
        assert fp.weights == pytest.approx(2.0 * params)

    def test_stage3_also_shards_weights(self, tiny_model, plan, batch):
        fp = memory_footprint(tiny_model, plan, batch, zero_stage=3)
        params = stage_zero_params(tiny_model, plan)
        assert fp.weights == pytest.approx(2.0 * params / 8)

    def test_stages_are_monotone(self, tiny_model, plan, batch):
        totals = [memory_footprint(tiny_model, plan, batch,
                                   zero_stage=stage).total
                  for stage in (0, 1, 2, 3)]
        assert totals == sorted(totals, reverse=True)

    def test_activations_unaffected(self, tiny_model, plan, batch):
        fp0 = memory_footprint(tiny_model, plan, batch, zero_stage=0)
        fp3 = memory_footprint(tiny_model, plan, batch, zero_stage=3)
        assert fp0.activations == fp3.activations

    def test_default_is_stage1(self, tiny_model, plan, batch):
        default = memory_footprint(tiny_model, plan, batch)
        explicit = memory_footprint(tiny_model, plan, batch, zero_stage=1)
        assert default.total == explicit.total
        unsharded = memory_footprint(tiny_model, plan, batch, zero_stage=0)
        assert unsharded.optimizer_states == pytest.approx(
            explicit.optimizer_states * plan.data)
        assert unsharded.total > explicit.total

    def test_sharding_pointless_without_data_parallel(self, tiny_model,
                                                      batch):
        solo = ParallelismConfig(tensor=1, data=1, pipeline=1)
        training = TrainingConfig(global_batch_size=16)
        fp0 = memory_footprint(tiny_model, solo, training, zero_stage=0)
        fp3 = memory_footprint(tiny_model, solo, training, zero_stage=3)
        assert fp0.total == fp3.total

    def test_unknown_stage_rejected(self, tiny_model, plan, batch):
        with pytest.raises(InfeasibleConfigError):
            memory_footprint(tiny_model, plan, batch, zero_stage=4)

    def test_zero3_enables_otherwise_infeasible_model(self, batch):
        """A model that overflows at stage 1 can fit at stage 3 — the
        ZeRO paper's motivating scenario."""
        from repro.config.model import ModelConfig
        from repro.config.system import single_node
        big = ModelConfig(hidden_size=12288, num_layers=16, seq_length=2048,
                          num_heads=96, name="zero-demo-29B")
        plan = ParallelismConfig(tensor=1, data=8, pipeline=1)
        training = TrainingConfig(global_batch_size=8)
        budget = single_node().gpu.memory_bytes * 0.96
        stage1 = memory_footprint(big, plan, training, zero_stage=1)
        stage3 = memory_footprint(big, plan, training, zero_stage=3)
        assert stage1.total > budget
        assert stage3.total < budget


ZERO_DEMO_KWARGS = dict(hidden_size=12288, num_layers=16, seq_length=2048,
                        num_heads=96, name="zero-demo-29B")


class TestZeroStageThreading:
    """ZeRO stages 2/3 must be reachable through the feasibility filter,
    VTrain, and the DSE — not just ``memory_footprint`` itself."""

    @pytest.fixture
    def big_model(self):
        from repro.config.model import ModelConfig
        return ModelConfig(**ZERO_DEMO_KWARGS)

    @pytest.fixture
    def plan8(self):
        return ParallelismConfig(tensor=1, data=8, pipeline=1)

    @pytest.fixture
    def batch8(self):
        return TrainingConfig(global_batch_size=8)

    def test_fits_in_memory_accepts_zero_stage(self, big_model, plan8,
                                               batch8):
        from repro.config.system import single_node
        from repro.memory.footprint import check_memory, fits_in_memory
        system = single_node()
        assert not fits_in_memory(big_model, plan8, batch8, system)
        assert fits_in_memory(big_model, plan8, batch8, system,
                              zero_stage=3)
        footprint = check_memory(big_model, plan8, batch8, system,
                                 zero_stage=3)
        unsharded = memory_footprint(big_model, plan8, batch8, zero_stage=0)
        assert footprint.weights == pytest.approx(unsharded.weights / 8)

    def test_vtrain_threads_zero_stage(self, big_model, plan8, batch8):
        from repro.config.system import single_node
        from repro.errors import InfeasibleConfigError
        from repro.sim.estimator import VTrain
        default = VTrain(single_node())
        assert default.zero_stage == 1
        with pytest.raises(InfeasibleConfigError):
            default.predict(big_model, plan8, batch8)
        sharded = VTrain(single_node(), zero_stage=3)
        prediction = sharded.predict(big_model, plan8, batch8)
        assert prediction.iteration_time > 0

    def test_vtrain_zero_stage_is_the_only_setting(self, big_model, plan8,
                                                   batch8):
        from repro.config.system import single_node
        from repro.sim.estimator import VTrain
        assert VTrain(single_node()).zero_stage == 1
        assert VTrain(single_node(), zero_stage=0).zero_stage == 0
        assert not hasattr(VTrain(single_node()), "zero1_sharding")
        with pytest.raises(TypeError):
            VTrain(single_node(), zero1_sharding=False)
        for stage in (-1, 4):
            for check in (True, False):
                vtrain = VTrain(single_node(), zero_stage=stage,
                                check_memory_feasibility=check)
                with pytest.raises(InfeasibleConfigError, match="ZeRO"):
                    vtrain.predict(big_model, plan8, batch8)

    def test_explorer_threads_zero_stage(self, big_model, batch8):
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.dse.space import SearchSpace
        space = SearchSpace(max_tensor=1, max_data=8, max_pipeline=1,
                            micro_batch_sizes=(1,))
        plain = DesignSpaceExplorer(big_model, batch8).explore(
            space=space, num_gpus=8)
        sharded = DesignSpaceExplorer(big_model, batch8, zero_stage=3
                                      ).explore(space=space, num_gpus=8)
        assert sharded.num_feasible > plain.num_feasible

    def test_parallel_explorer_cache_key_covers_zero_stage(self, big_model,
                                                           batch8):
        """Different ZeRO stages must not share cached predictions; the
        default stage keeps the pre-existing fingerprint."""
        from repro.dse.cache import fingerprint
        from repro.dse.explorer import DesignSpaceExplorer
        plan = ParallelismConfig(tensor=1, data=8, pipeline=1)
        default = DesignSpaceExplorer(big_model, batch8)
        stage3 = DesignSpaceExplorer(big_model, batch8, zero_stage=3)
        assert default.fingerprint_for(plan) != stage3.fingerprint_for(plan)
        system = default.system_for(plan.total_gpus)
        from repro.graph.builder import Granularity
        assert default.fingerprint_for(plan) == fingerprint(
            big_model, plan, batch8, system, Granularity.STAGE)

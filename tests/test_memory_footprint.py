"""Unit tests for the per-GPU memory model and feasibility filter."""

import pytest

from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      RecomputeMode, TrainingConfig)
from repro.config.presets import MT_NLG_530B, MT_NLG_TRAINING
from repro.errors import InfeasibleConfigError
from repro.memory.footprint import (activation_bytes_per_layer, check_memory,
                                    fits_in_memory, memory_footprint,
                                    stage_zero_params,
                                    suggest_schedule_for_memory)


class TestModelStates:
    def test_weights_are_fp16(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        footprint = memory_footprint(tiny_model, plan, training)
        assert footprint.weights == pytest.approx(
            2.0 * stage_zero_params(tiny_model, plan))

    def test_zero1_divides_optimizer_by_d(self, tiny_model, training):
        base = ParallelismConfig(tensor=1, data=1, pipeline=1)
        sharded = ParallelismConfig(tensor=1, data=4, pipeline=1)
        full = memory_footprint(tiny_model, base, training, zero_stage=1)
        split = memory_footprint(tiny_model, sharded, training, zero_stage=1)
        assert split.optimizer_states == pytest.approx(
            full.optimizer_states / 4)

    def test_without_zero1_optimizer_unsharded(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=4, pipeline=1)
        footprint = memory_footprint(tiny_model, plan, training,
                                     zero_stage=0)
        assert footprint.optimizer_states == pytest.approx(
            12.0 * stage_zero_params(tiny_model, plan))

    def test_tensor_parallel_shrinks_states(self, tiny_model, training):
        t1 = memory_footprint(tiny_model,
                              ParallelismConfig(tensor=1, data=1, pipeline=1),
                              training)
        t4 = memory_footprint(tiny_model,
                              ParallelismConfig(tensor=4, data=1, pipeline=1),
                              training)
        assert t4.model_states < t1.model_states / 3

    def test_pipeline_shrinks_states(self, tiny_model, training):
        p1 = memory_footprint(tiny_model,
                              ParallelismConfig(tensor=1, data=1, pipeline=1),
                              training)
        p4 = memory_footprint(tiny_model,
                              ParallelismConfig(tensor=1, data=1, pipeline=4),
                              training)
        assert p4.weights < p1.weights


class TestActivations:
    def _plan(self, recompute, m=1, schedule=PipelineSchedule.ONE_F_ONE_B):
        return ParallelismConfig(tensor=1, data=1, pipeline=1,
                                 micro_batch_size=m, recompute=recompute,
                                 schedule=schedule)

    def test_recompute_ordering(self, tiny_model):
        none = activation_bytes_per_layer(tiny_model,
                                          self._plan(RecomputeMode.NONE))
        selective = activation_bytes_per_layer(
            tiny_model, self._plan(RecomputeMode.SELECTIVE))
        full = activation_bytes_per_layer(tiny_model,
                                          self._plan(RecomputeMode.FULL))
        assert full < selective < none

    def test_full_recompute_stores_layer_input_only(self, tiny_model):
        plan = self._plan(RecomputeMode.FULL)
        expected = 2.0 * tiny_model.seq_length * tiny_model.hidden_size
        assert activation_bytes_per_layer(tiny_model, plan) == expected

    def test_micro_batch_scales_activations(self, tiny_model):
        one = activation_bytes_per_layer(tiny_model,
                                         self._plan(RecomputeMode.SELECTIVE))
        four = activation_bytes_per_layer(
            tiny_model, self._plan(RecomputeMode.SELECTIVE, m=4))
        assert four == pytest.approx(4 * one)

    def test_gpipe_holds_all_micro_batches(self, tiny_model, training):
        gpipe = memory_footprint(
            tiny_model, ParallelismConfig(
                tensor=1, data=1, pipeline=2, micro_batch_size=1,
                schedule=PipelineSchedule.GPIPE), training)
        one_f = memory_footprint(
            tiny_model, ParallelismConfig(
                tensor=1, data=1, pipeline=2, micro_batch_size=1,
                schedule=PipelineSchedule.ONE_F_ONE_B), training)
        assert gpipe.activations > one_f.activations


class TestEmbeddingOutputWithSequenceParallel:
    def test_sp_shards_the_stage0_embedding_output(self, training):
        """With SP the embedding output is scattered ``s/t`` before the
        first layer consumes it; the activation delta between SP on/off
        must therefore include the sharded (not full) embedding term."""
        from repro.config.model import ModelConfig
        from repro.memory.footprint import activation_bytes_per_layer
        model = ModelConfig(hidden_size=2048, num_layers=8, seq_length=2048,
                            num_heads=16, name="sp-embed")
        t = 8
        base = ParallelismConfig(tensor=t, data=1, pipeline=1,
                                 sequence_parallel=False)
        sp = base.replaced(sequence_parallel=True)
        batch = TrainingConfig(global_batch_size=1)
        embed_out = 2.0 * 1 * model.seq_length * model.hidden_size
        expected_sp = (model.num_layers
                       * activation_bytes_per_layer(model, sp)
                       + embed_out / t)
        footprint = memory_footprint(model, sp, batch)
        assert footprint.activations == pytest.approx(expected_sp)
        # Without SP the embedding output stays replicated.
        expected_base = (model.num_layers
                         * activation_bytes_per_layer(model, base)
                         + embed_out)
        assert memory_footprint(model, base, batch).activations == \
            pytest.approx(expected_base)

    def test_sp_fix_unlocks_feasibility(self):
        """A plan the old (replicated-embedding-output) model wrongly
        rejected: GPipe holds every micro-batch's embedding output in
        flight, so the un-sharded term alone overflowed the budget."""
        from repro.config.model import ModelConfig
        from repro.config.system import single_node
        from repro.memory.footprint import (USABLE_MEMORY_FRACTION,
                                            fits_in_memory)
        model = ModelConfig(hidden_size=8192, num_layers=8, seq_length=16384,
                            num_heads=64, name="long-ctx")
        plan = ParallelismConfig(tensor=8, data=1, pipeline=1,
                                 micro_batch_size=4, sequence_parallel=True,
                                 schedule=PipelineSchedule.GPIPE,
                                 recompute=RecomputeMode.FULL)
        training = TrainingConfig(global_batch_size=192)  # 48 micro-batches
        system = single_node()
        footprint = memory_footprint(model, plan, training)
        budget = system.gpu.memory_bytes * USABLE_MEMORY_FRACTION
        replication_delta = (48 * 2.0 * 4 * model.seq_length
                             * model.hidden_size * (1 - 1 / plan.tensor))
        assert footprint.total <= budget < footprint.total + replication_delta
        assert fits_in_memory(model, plan, training, system)


class TestLastStageFeasibility:
    def _tiny_seq_model(self):
        """b*s*h activations tiny against the last stage's extra params
        (final LayerNorm + untied LM-head copy)."""
        from repro.config.model import ModelConfig
        return ModelConfig(hidden_size=4096, num_layers=4, seq_length=8,
                           num_heads=8, vocab_size=512_000,
                           name="head-heavy")

    def test_peak_is_max_over_boundary_stages(self, training):
        from repro.memory.footprint import last_stage_params
        model = self._tiny_seq_model()
        plan = ParallelismConfig(tensor=1, data=1, pipeline=2,
                                 micro_batch_size=1)
        batch = TrainingConfig(global_batch_size=1)  # NMB=1: tiny windows
        footprint = memory_footprint(model, plan, batch)
        # The last stage dominates here: its params carry the untied
        # LM-head copy plus the final LayerNorm, while stage 0's only
        # edge is the (tiny, b*s=8) embedding-output activation.
        assert last_stage_params(model, plan) > stage_zero_params(model,
                                                                  plan)
        assert footprint.weights == pytest.approx(
            2.0 * last_stage_params(model, plan))

    def test_single_stage_pipeline_unchanged(self, tiny_model, training):
        """With p=1 the head is tied to the input embedding — the old
        stage-0 accounting must be reproduced exactly."""
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        footprint = memory_footprint(tiny_model, plan, training)
        assert footprint.weights == pytest.approx(
            2.0 * stage_zero_params(tiny_model, plan))

    def test_last_stage_params_p1_has_no_head_copy(self, tiny_model):
        from repro.memory.footprint import last_stage_params
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        assert last_stage_params(tiny_model, plan) == (
            tiny_model.num_layers * tiny_model.params_per_layer()
            + 2 * tiny_model.hidden_size)


class TestFeasibility:
    def test_tiny_model_fits(self, tiny_model, training, node_system):
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        assert fits_in_memory(tiny_model, plan, training, node_system)
        footprint = check_memory(tiny_model, plan, training, node_system)
        assert footprint.total_gib < 80

    def test_mtnlg_needs_model_parallelism(self, node_system):
        plan = ParallelismConfig(tensor=8, data=1, pipeline=1)
        assert not fits_in_memory(MT_NLG_530B, plan, MT_NLG_TRAINING,
                                  node_system)

    def test_mtnlg_baseline_plan_fits(self):
        """The (8, 8, 35) MT-NLG plan must be feasible (Table I)."""
        from repro.config.presets import MT_NLG_BASELINE_PLANS
        from repro.config.system import multi_node
        system = multi_node(280)
        assert fits_in_memory(MT_NLG_530B, MT_NLG_BASELINE_PLANS[0],
                              MT_NLG_TRAINING, system)

    def test_mtnlg_vtrain_plans_fit(self):
        from repro.config.presets import MT_NLG_VTRAIN_PLANS
        from repro.config.system import multi_node
        for plan in MT_NLG_VTRAIN_PLANS:
            system = multi_node(plan.total_gpus // 8)
            assert fits_in_memory(MT_NLG_530B, plan, MT_NLG_TRAINING, system)

    def test_check_memory_raises_with_reason(self, node_system):
        plan = ParallelismConfig(tensor=8, data=1, pipeline=1)
        with pytest.raises(InfeasibleConfigError, match="GiB"):
            check_memory(MT_NLG_530B, plan, MT_NLG_TRAINING, node_system)

    def test_suggest_schedule(self, tiny_model, training, node_system):
        plan = ParallelismConfig(tensor=1, data=1, pipeline=2)
        schedule = suggest_schedule_for_memory(tiny_model, plan, training,
                                               node_system)
        assert schedule is PipelineSchedule.GPIPE  # tiny model fits either

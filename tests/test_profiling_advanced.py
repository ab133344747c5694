"""Unit tests for the contention-aware communication model extension."""

import pytest

from repro.config.system import multi_node, single_node
from repro.errors import ConfigError
from repro.graph.operators import (CommKind, CommOperator, CommScope,
                                   data_allreduce, pipeline_send_recv)
from repro.hardware.interconnect import LinkType
from repro.profiling.advanced import ContentionAwareNcclModel
from repro.profiling.nccl import MIB, NcclModel


@pytest.fixture
def advanced():
    return ContentionAwareNcclModel(multi_node(8))


class TestCorrections:
    def test_contention_factor_grows_logarithmically(self, advanced):
        assert advanced.contention_factor(1) == 1.0
        f2 = advanced.contention_factor(2)
        f4 = advanced.contention_factor(4)
        f8 = advanced.contention_factor(8)
        assert 1.0 < f2 < f4 < f8
        # Logarithmic: equal increments per doubling.
        assert f4 - f2 == pytest.approx(f8 - f4)

    def test_straggler_margin_grows_with_group(self, advanced):
        assert advanced.straggler_margin(1) == 0.0
        assert advanced.straggler_margin(64) > advanced.straggler_margin(8)

    def test_internode_allreduce_slower_than_basic(self, advanced):
        basic = NcclModel(multi_node(8))
        size = 256 * MIB
        base = basic.time(data_allreduce(size, 8, LinkType.INTER_NODE))
        corrected = advanced.internode_allreduce_time(size, 8,
                                                      concurrent_groups=8)
        assert corrected > base

    def test_no_contention_adds_only_overheads(self, advanced):
        basic = NcclModel(multi_node(8))
        size = 256 * MIB
        base = basic.time(data_allreduce(size, 8, LinkType.INTER_NODE))
        corrected = advanced.internode_allreduce_time(size, 8,
                                                      concurrent_groups=1)
        extra = corrected - base
        assert extra == pytest.approx(advanced.launch_overhead
                                      + advanced.straggler_margin(8))


class TestDispatch:
    def test_time_is_the_only_public_cost(self, advanced):
        """One collective has one cost: the per-kind methods, which
        returned the uncorrected Equation-1 cost (4.731 ms here, where
        ``time`` charges 5.146 ms), are private to ``_dispatch``."""
        comm = data_allreduce(256 * MIB, 8, LinkType.INTER_NODE)
        assert not hasattr(advanced, "allreduce_time")
        assert not hasattr(advanced, "sendrecv_time")
        corrected = advanced.time(comm)
        assert corrected == advanced.internode_allreduce_time(256 * MIB, 8)
        assert corrected > NcclModel(multi_node(8)).time(comm)

    def test_internode_dp_allreduce_uses_corrections(self, advanced):
        comm = data_allreduce(256 * MIB, 8, LinkType.INTER_NODE,
                              concurrent_groups=8)
        plain = data_allreduce(256 * MIB, 8, LinkType.INTER_NODE,
                               concurrent_groups=1)
        assert advanced.time(comm) > advanced.time(plain)

    def test_intranode_path_falls_back_to_profile_table(self):
        system = single_node()
        advanced = ContentionAwareNcclModel(system)
        basic = NcclModel(system)
        comm = CommOperator(kind=CommKind.ALL_REDUCE, scope=CommScope.TENSOR,
                            size_bytes=64 * MIB, group_size=8,
                            link=LinkType.INTRA_NODE)
        assert advanced.time(comm) == pytest.approx(basic.time(comm))

    def test_sendrecv_unchanged(self, advanced):
        basic = NcclModel(multi_node(8))
        comm = pipeline_send_recv(2, 2048, 4096, LinkType.INTER_NODE)
        assert advanced.time(comm) == pytest.approx(basic.time(comm))

    def test_repeat_predict_reads_corrections_from_the_memo(
            self, monkeypatch):
        """The corrected inter-node All-Reduce is memoized by signature
        like every other cost: a second predict of the same plan
        computes none of them again and returns the same bits (it used
        to recompute its three DP-bucket All-Reduces on every
        predict)."""
        from repro.config.parallelism import ParallelismConfig, TrainingConfig
        from repro.config.presets import MEGATRON_1_7B
        from repro.sim.estimator import VTrain

        calls = []
        corrected = ContentionAwareNcclModel.internode_allreduce_time

        def counting(self, *args, **kwargs):
            calls.append(args)
            return corrected(self, *args, **kwargs)

        monkeypatch.setattr(ContentionAwareNcclModel,
                            "internode_allreduce_time", counting)
        system = multi_node(4)
        vtrain = VTrain(system, nccl=ContentionAwareNcclModel(system))
        plan = ParallelismConfig(tensor=1, data=32, pipeline=1,
                                 micro_batch_size=1)
        training = TrainingConfig(global_batch_size=64)
        first = vtrain.predict(MEGATRON_1_7B, plan, training)
        computed = len(calls)
        assert computed > 0
        second = vtrain.predict(MEGATRON_1_7B, plan, training)
        assert len(calls) == computed
        assert second.iteration_time == first.iteration_time

    def test_interference_passes_through_to_intranode(self):
        system = single_node()
        noisy = ContentionAwareNcclModel(system, interference=1.3)
        clean = ContentionAwareNcclModel(system)
        comm = CommOperator(kind=CommKind.ALL_REDUCE, scope=CommScope.TENSOR,
                            size_bytes=64 * MIB, group_size=8,
                            link=LinkType.INTRA_NODE)
        assert noisy.time(comm) == pytest.approx(1.3 * clean.time(comm))


class TestValidation:
    def test_rejects_negative_knobs(self):
        with pytest.raises(ConfigError):
            ContentionAwareNcclModel(multi_node(2), contention_per_group=-0.1)
        with pytest.raises(ConfigError):
            ContentionAwareNcclModel(multi_node(2), launch_overhead=-1e-6)

    def test_improves_multinode_prediction(self):
        """End-to-end: the corrected model's prediction sits closer to
        the testbed measurement than the basic model's."""
        from repro.config.parallelism import ParallelismConfig, TrainingConfig
        from repro.config.presets import MEGATRON_18_4B
        from repro.graph.builder import Granularity
        from repro.sim.estimator import VTrain
        from repro.testbed.emulator import TestbedEmulator

        system = multi_node(8)
        plan = ParallelismConfig(tensor=8, data=8, pipeline=1,
                                 micro_batch_size=4,
                                 gradient_bucketing=False)
        training = TrainingConfig(global_batch_size=1024)
        measured = TestbedEmulator(system).measure_time(MEGATRON_18_4B, plan,
                                                        training)
        basic = VTrain(system, granularity=Granularity.OPERATOR,
                       check_memory_feasibility=False).predict(
            MEGATRON_18_4B, plan, training).iteration_time
        corrected = VTrain(system, granularity=Granularity.OPERATOR,
                           check_memory_feasibility=False,
                           nccl=ContentionAwareNcclModel(
                               system, interference=1.30,
                               straggler_slack=0.04)).predict(
            MEGATRON_18_4B, plan, training).iteration_time
        assert abs(corrected - measured) < abs(basic - measured)

"""Unit tests for the NCCL communication models (Section III-D, Eq. 1)."""

import pytest

from repro.config.system import multi_node, single_node
from repro.errors import ConfigError
from repro.graph.operators import data_allreduce, pipeline_send_recv
from repro.hardware.interconnect import LinkType, infiniband_ring
from repro.profiling.nccl import MIB, PROFILE_SIZES, NcclModel


@pytest.fixture
def nccl():
    return NcclModel(single_node())


def allreduce(model, size, group, link):
    """The model's cost of one All-Reduce, through its one public entry."""
    return model.time(data_allreduce(size, group, link))


class TestProfileTable:
    def test_covers_1mb_to_1024mb(self, nccl):
        sizes, latencies = nccl.profile_table(8)
        assert sizes[0] == MIB
        assert sizes[-1] == 1024 * MIB
        assert len(sizes) == len(PROFILE_SIZES)
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_table_is_cached(self, nccl):
        first = nccl.profile_table(4)
        second = nccl.profile_table(4)
        assert first is second

    def test_rejects_trivial_group(self, nccl):
        with pytest.raises(ConfigError):
            nccl.profile_table(1)


class TestInterpolation:
    def test_exact_at_profiled_points(self, nccl):
        sizes, latencies = nccl.profile_table(8)
        for size, expected in zip(sizes, latencies):
            assert allreduce(nccl, size, 8, LinkType.INTRA_NODE) == \
                pytest.approx(expected)

    def test_midpoint_between_neighbours(self, nccl):
        sizes, latencies = nccl.profile_table(8)
        mid = (sizes[3] * sizes[4]) ** 0.5  # log-midpoint
        value = allreduce(nccl, mid, 8, LinkType.INTRA_NODE)
        assert latencies[3] < value < latencies[4]

    def test_below_range_scales_down(self, nccl):
        tiny = allreduce(nccl, MIB / 8, 8, LinkType.INTRA_NODE)
        at_1mb = allreduce(nccl, MIB, 8, LinkType.INTRA_NODE)
        assert 0 < tiny < at_1mb

    def test_above_range_extrapolates_linearly(self, nccl):
        at_max = allreduce(nccl, 1024 * MIB, 8, LinkType.INTRA_NODE)
        doubled = allreduce(nccl, 2048 * MIB, 8, LinkType.INTRA_NODE)
        assert doubled == pytest.approx(2 * at_max, rel=0.05)


class TestEquation1:
    def test_internode_matches_equation(self):
        system = multi_node(4)
        model = NcclModel(system)
        size = 256 * MIB
        expected = infiniband_ring(system).allreduce_time(size, 4)
        assert allreduce(model, size, 4, LinkType.INTER_NODE) == \
            pytest.approx(expected)

    def test_alpha_scales_internode_time(self):
        import dataclasses
        fast = multi_node(4)
        slow = dataclasses.replace(fast, bandwidth_effectiveness=0.5)
        size = 256 * MIB
        t_fast = allreduce(NcclModel(fast), size, 4, LinkType.INTER_NODE)
        t_slow = allreduce(NcclModel(slow), size, 4, LinkType.INTER_NODE)
        assert t_slow == pytest.approx(2 * t_fast, rel=0.01)

    def test_group_size_factor(self):
        """2(n-1)/n grows with n."""
        model = NcclModel(multi_node(8))
        size = 512 * MIB
        t2 = allreduce(model, size, 2, LinkType.INTER_NODE)
        t8 = allreduce(model, size, 8, LinkType.INTER_NODE)
        assert t8 > t2


class TestInterference:
    def test_interference_multiplies_intranode(self):
        clean = NcclModel(single_node())
        noisy = NcclModel(single_node(), interference=1.3)
        size = 64 * MIB
        assert allreduce(noisy, size, 8, LinkType.INTRA_NODE) == \
            pytest.approx(1.3 * allreduce(clean, size, 8,
                                          LinkType.INTRA_NODE))

    def test_interference_does_not_touch_internode(self):
        system = multi_node(2)
        clean = NcclModel(system)
        noisy = NcclModel(system, interference=1.3)
        size = 64 * MIB
        assert allreduce(noisy, size, 2, LinkType.INTER_NODE) == \
            pytest.approx(allreduce(clean, size, 2, LinkType.INTER_NODE))

    def test_rejects_speedup_interference(self):
        with pytest.raises(ConfigError):
            NcclModel(single_node(), interference=0.9)


class TestDispatch:
    def test_time_dispatches_all_kinds(self, nccl):
        ar = data_allreduce(8 * MIB, 4, LinkType.INTRA_NODE)
        send = pipeline_send_recv(1, 128, 512, LinkType.INTRA_NODE)
        assert nccl.time(ar) > 0
        assert nccl.time(send) > 0

    def test_trivial_groups_free(self, nccl):
        assert allreduce(nccl, MIB, 1, LinkType.INTRA_NODE) == 0.0
        assert allreduce(nccl, 0, 8, LinkType.INTRA_NODE) == 0.0

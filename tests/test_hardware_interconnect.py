"""Unit tests for link models and the Equation-1 All-Reduce formula."""

import pytest

from dataclasses import replace

from repro.config.system import SystemConfig, single_node, multi_node
from repro.errors import ConfigError
from repro.hardware.interconnect import (NVLINK_EFFICIENCY_FLOOR, LinkType,
                                         RingParameters, infiniband_ring,
                                         log2_ceil, nvlink_ring, p2p_time)


class TestRingParameters:
    def test_equation_1_shape(self):
        """t = S/B * 2(n-1)/n: doubling n from 2 raises transfer toward
        2S/B asymptote."""
        ring = RingParameters(bus_bandwidth=100e9, base_latency=0.0,
                              hop_latency=0.0)
        size = 1 << 30
        t2 = ring.allreduce_time(size, 2)
        t8 = ring.allreduce_time(size, 8)
        assert t2 == pytest.approx(size / 100e9 * 1.0)
        assert t8 == pytest.approx(size / 100e9 * 1.75)

    def test_single_worker_is_free(self):
        ring = RingParameters(100e9, 1e-6, 1e-6)
        assert ring.allreduce_time(1 << 20, 1) == 0.0

    def test_zero_bytes_is_free(self):
        ring = RingParameters(100e9, 1e-6, 1e-6)
        assert ring.allreduce_time(0, 8) == 0.0

    def test_latency_dominates_small_messages(self):
        ring = RingParameters(100e9, 10e-6, 1e-6)
        tiny = ring.allreduce_time(1024, 8)
        assert tiny > 10e-6

    def test_allgather_half_of_allreduce_transfer(self):
        ring = RingParameters(100e9, 0.0, 0.0)
        size = 1 << 30
        assert ring.allgather_time(size, 8) == pytest.approx(
            ring.allreduce_time(size, 8) / 2)

    def test_reduce_scatter_equals_allgather(self):
        ring = RingParameters(100e9, 2e-6, 1e-6)
        assert ring.reduce_scatter_time(1 << 20, 4) == ring.allgather_time(
            1 << 20, 4)

    def test_rejects_bad_group(self):
        ring = RingParameters(100e9, 0.0, 0.0)
        with pytest.raises(ConfigError):
            ring.allreduce_time(1024, 0)


class TestLinkFactories:
    def test_nvlink_8gpu_busbw_in_published_range(self):
        """A100/NVSwitch all-reduce busbw is ~230 GB/s in nccl-tests."""
        ring = nvlink_ring(single_node(), 8)
        assert 200e9 < ring.bus_bandwidth < 260e9

    def test_nvlink_smaller_rings_more_efficient(self):
        sys = single_node()
        assert nvlink_ring(sys, 2).bus_bandwidth > nvlink_ring(
            sys, 8).bus_bandwidth

    def test_infiniband_uses_alpha(self):
        base = multi_node(2)
        ring = infiniband_ring(base)
        assert ring.bus_bandwidth == pytest.approx(100e9)  # 800 Gbps

    def test_nvlink_efficiency_clamped_for_large_domains(self):
        """Regression: the linear overhead term must not degrade without
        bound (it went negative past ~200 GPUs before the clamp)."""
        system = replace(single_node(), num_gpus=256, gpus_per_node=256)
        ring = nvlink_ring(system, 256)
        assert ring.bus_bandwidth == pytest.approx(
            system.gpu.nvlink_bandwidth * NVLINK_EFFICIENCY_FLOOR)
        assert ring.allreduce_time(1 << 30, 256) > 0.0

    def test_nvlink_efficiency_unchanged_below_floor(self):
        """The clamp must not move the profiled 8-GPU operating point."""
        ring = nvlink_ring(single_node(), 8)
        expected = 0.80 - 0.004 * 6
        assert ring.bus_bandwidth == pytest.approx(
            single_node().gpu.nvlink_bandwidth * expected)

    def test_p2p_internode_uses_single_hca(self):
        system = multi_node(2)
        inter = p2p_time(system, 1 << 30, LinkType.INTER_NODE)
        intra = p2p_time(system, 1 << 30, LinkType.INTRA_NODE)
        assert inter > intra  # one HCA << NVLink

    def test_p2p_bandwidth_derived_from_nics_per_node(self):
        """Regression: per-HCA bandwidth is aggregate / nics_per_node,
        not a hard-coded quarter."""
        four = multi_node(2)
        eight = SystemConfig(num_gpus=16, nics_per_node=8)
        size = 1 << 30
        t4 = p2p_time(four, size, LinkType.INTER_NODE)
        t8 = p2p_time(eight, size, LinkType.INTER_NODE)
        assert t4 == pytest.approx(
            size / (four.effective_internode_bandwidth / 4)
            + four.internode_latency)
        assert t8 > t4  # more HCAs, thinner slices of the same aggregate

    def test_p2p_zero_bytes(self):
        assert p2p_time(single_node(), 0, LinkType.INTRA_NODE) == 0.0

    def test_p2p_rejects_negative(self):
        with pytest.raises(ConfigError):
            p2p_time(single_node(), -1, LinkType.INTRA_NODE)


class TestHelpers:
    def test_log2_ceil(self):
        assert log2_ceil(1) == 0
        assert log2_ceil(5) == 3

    def test_log2_ceil_rejects_zero(self):
        with pytest.raises(ConfigError):
            log2_ceil(0)

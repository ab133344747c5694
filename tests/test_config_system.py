"""Unit tests for the training-system configuration."""

import math
from dataclasses import replace

import pytest

from repro.config.system import GBPS, SystemConfig, multi_node, single_node
from repro.errors import ConfigError
from repro.hardware.gpu import A100_40GB, A100_80GB


class TestSystemConfig:
    def test_defaults_match_paper_cluster(self):
        system = multi_node(64)
        assert system.num_gpus == 512
        assert system.gpus_per_node == 8
        assert system.gpu is A100_80GB
        assert system.internode_bandwidth == pytest.approx(800 * GBPS)

    def test_num_nodes(self):
        assert multi_node(4).num_nodes == 4
        assert single_node().num_nodes == 1

    def test_effective_bandwidth_scales_with_alpha(self):
        system = SystemConfig(num_gpus=16, bandwidth_effectiveness=0.5)
        assert system.effective_internode_bandwidth == pytest.approx(
            0.5 * system.internode_bandwidth)

    def test_peak_system_flops(self):
        system = single_node()
        assert system.peak_system_flops() == pytest.approx(8 * 312e12)

    def test_with_gpus_resizes(self):
        system = multi_node(2)
        bigger = system.with_gpus(64)
        assert bigger.num_gpus == 64
        assert bigger.gpu is system.gpu

    def test_rejects_partial_nodes(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=12, gpus_per_node=8)

    def test_single_gpu_allowed(self):
        assert SystemConfig(num_gpus=4, gpus_per_node=8).num_nodes == 1

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=8, bandwidth_effectiveness=0.0)
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=8, bandwidth_effectiveness=1.5)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            multi_node(0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "num_gpus", "gpus_per_node", "internode_bandwidth",
        "internode_latency", "bandwidth_effectiveness", "intranode_latency",
        "nics_per_node"])
    def test_rejects_non_finite_fields(self, name, value):
        """NaN used to pass every range check (``nan <= 0`` is false)
        and come back as a NaN iteration time."""
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            replace(single_node(), **{name: value})
        payload = single_node().to_dict() | {name: value}
        with pytest.raises(ConfigError, match=name):
            SystemConfig.from_dict(payload)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "peak_fp16_flops", "memory_bytes", "memory_bandwidth", "num_sms",
        "kernel_launch_overhead", "nvlink_bandwidth"])
    def test_gpu_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            replace(A100_80GB, **{name: value})

    def test_describe_mentions_gpu_and_nodes(self):
        text = multi_node(2, gpu=A100_40GB).describe()
        assert "A100-SXM4-40GB" in text
        assert "2 nodes" in text


class TestNetworkFields:
    def test_defaults_are_flat_four_hca(self):
        system = multi_node(2)
        assert system.nics_per_node == 4
        assert system.network == "flat"
        assert system.nic_bandwidth == pytest.approx(
            system.effective_internode_bandwidth / 4)

    def test_multi_node_threads_network(self):
        assert multi_node(2, network="rail").network_spec.kind == "rail"
        assert multi_node(2, network="fat-tree:4").network_spec \
            .oversubscription == 4.0

    def test_rejects_bad_network(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=16, network="torus")

    def test_rejects_bad_nics(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=16, nics_per_node=0)

    def test_to_dict_omits_defaults_for_cache_stability(self):
        """Default systems must serialize exactly as they did before
        these fields existed, so PR-1 prediction caches stay valid."""
        payload = multi_node(2).to_dict()
        assert "network" not in payload
        assert "nics_per_node" not in payload

    def test_to_dict_round_trips_non_defaults(self):
        system = SystemConfig(num_gpus=16, nics_per_node=8,
                              network="fat-tree:2")
        payload = system.to_dict()
        assert payload["nics_per_node"] == 8
        assert payload["network"] == "fat-tree:2"
        assert SystemConfig.from_dict(payload) == system

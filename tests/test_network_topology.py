"""Unit tests for the network topology graphs and their routing."""

import pytest

from repro.config.system import NetworkSpec, multi_node
from repro.errors import ConfigError
from repro.network.topology import (FatTreeTopology, RailOptimizedTopology,
                                    Topology, build_topology, gpu_id)


def rail_topology(num_nodes=4, gpus=8, nics=4):
    return RailOptimizedTopology(num_nodes, gpus, nics,
                                 nvlink_bandwidth=300e9, nic_bandwidth=25e9,
                                 intranode_latency=3e-6,
                                 internode_latency=5e-6)


def fat_tree_topology(num_nodes=8, gpus=8, nics=4, ratio=1.0,
                      nodes_per_leaf=4):
    return FatTreeTopology(num_nodes, gpus, nics,
                           nvlink_bandwidth=300e9, nic_bandwidth=25e9,
                           intranode_latency=3e-6, internode_latency=5e-6,
                           oversubscription=ratio,
                           nodes_per_leaf=nodes_per_leaf)


class TestNetworkSpec:
    def test_parse_flat_rail(self):
        assert NetworkSpec.parse("flat").kind == "flat"
        assert NetworkSpec.parse("rail").kind == "rail"

    def test_parse_fat_tree_ratio(self):
        spec = NetworkSpec.parse("fat-tree:4")
        assert spec.kind == "fat-tree"
        assert spec.oversubscription == 4.0
        assert NetworkSpec.parse("fat-tree").oversubscription == 1.0

    def test_canonical_round_trips(self):
        for text in ("flat", "rail", "fat-tree", "fat-tree:2.5"):
            spec = NetworkSpec.parse(text)
            assert NetworkSpec.parse(spec.canonical()) == spec

    @pytest.mark.parametrize("bad", ["", "mesh", "rail:2", "fat-tree:x",
                                     "fat-tree:0.5", "fat-tree:nan",
                                     "fat-tree:inf"])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            NetworkSpec.parse(bad)

    def test_canonical_normalizes_unit_ratio(self):
        """fat-tree:1 and fat-tree are the same fabric; to_dict emits
        the canonical spelling so cache fingerprints agree."""
        assert NetworkSpec.parse("fat-tree:1").canonical() == "fat-tree"
        one = multi_node(2, network="fat-tree:1").to_dict()
        bare = multi_node(2, network="fat-tree").to_dict()
        assert one == bare


class TestTopologyGraph:
    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_link("a", "b", 1e9, 1e-6)
        with pytest.raises(ConfigError):
            topo.add_link("a", "b", 1e9, 1e-6)

    def test_missing_link_rejected(self):
        topo = Topology()
        topo.add_link("a", "b", 1e9, 1e-6)
        with pytest.raises(ConfigError):
            topo.link("a", "c")

    def test_bfs_route_finds_shortest_path(self):
        topo = Topology()
        topo.add_link("a", "b", 1e9, 1e-6)
        topo.add_link("b", "c", 1e9, 1e-6)
        topo.add_link("a", "c", 1e9, 1e-6)  # direct shortcut
        route = topo.route("a", "c")
        assert [link.dst for link in route] == ["c"]

    def test_bfs_route_unreachable(self):
        topo = Topology()
        topo.add_link("a", "b", 1e9, 1e-6)
        topo.add_link("c", "d", 1e9, 1e-6)
        with pytest.raises(ConfigError):
            topo.route("a", "d")


class TestNvSwitchNode:
    """A same-node pair routes through its node's NVSwitch, on either
    fabric and on any channel."""

    @pytest.fixture(params=[rail_topology, fat_tree_topology],
                    ids=["rail", "fat-tree"])
    def topo(self, request):
        return request.param()

    def test_route_through_switch(self, topo):
        route = topo.route(gpu_id(1, 0), gpu_id(1, 7), channel=2)
        assert [link.dst for link in route] == ["nvswitch:1", gpu_id(1, 7)]
        assert sum(link.latency for link in route) == pytest.approx(3e-6)

    def test_self_route_is_empty(self, topo):
        assert topo.route(gpu_id(1, 3), gpu_id(1, 3)) == []


class TestRailOptimized:
    def test_channel_selects_rail(self):
        topo = rail_topology()
        for channel in range(4):
            route = topo.route(gpu_id(0, 0), gpu_id(1, 0), channel=channel)
            assert f"rail:{channel}" in [link.dst for link in route]

    def test_rails_are_disjoint(self):
        topo = rail_topology()
        r0 = set(topo.route(gpu_id(0, 0), gpu_id(1, 0), channel=0))
        r1 = set(topo.route(gpu_id(0, 0), gpu_id(1, 0), channel=1))
        inter_r0 = {link for link in r0 if "rail" in link.dst or "rail" in link.src}
        inter_r1 = {link for link in r1 if "rail" in link.dst or "rail" in link.src}
        assert not inter_r0 & inter_r1

    def test_intra_node_route_stays_on_nvswitch(self):
        topo = rail_topology()
        route = topo.route(gpu_id(2, 0), gpu_id(2, 5), channel=3)
        assert [link.dst for link in route] == ["nvswitch:2", gpu_id(2, 5)]

    def test_rejects_non_gpu_endpoints(self):
        topo = rail_topology()
        with pytest.raises(ConfigError):
            topo.route("nvswitch:0", gpu_id(1, 0))


class TestFatTree:
    def test_same_leaf_skips_spine(self):
        topo = fat_tree_topology()
        route = topo.route(gpu_id(0, 0), gpu_id(1, 0))
        assert not any("spine" in link.dst for link in route)

    def test_cross_leaf_goes_through_spine(self):
        topo = fat_tree_topology()
        route = topo.route(gpu_id(0, 0), gpu_id(4, 0), channel=1)
        assert "spine:1" in [link.dst for link in route]

    def test_oversubscription_shrinks_uplinks(self):
        blocking = fat_tree_topology(ratio=4.0)
        nonblocking = fat_tree_topology(ratio=1.0)
        assert blocking.uplink_bandwidth == pytest.approx(
            nonblocking.uplink_bandwidth / 4.0)

    def test_single_leaf_cluster_has_no_spine(self):
        topo = fat_tree_topology(num_nodes=4, nodes_per_leaf=4)
        assert topo.num_leaves == 1
        assert not any(node.startswith("spine") for node in topo.nodes)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            fat_tree_topology(ratio=0.5)


class TestBuildTopology:
    def test_rail_system(self):
        topo = build_topology(multi_node(4, network="rail"))
        assert isinstance(topo, RailOptimizedTopology)
        assert topo.num_nodes == 4
        assert topo.nics_per_node == 4

    def test_fat_tree_system_carries_ratio(self):
        topo = build_topology(multi_node(8, network="fat-tree:2"))
        assert isinstance(topo, FatTreeTopology)
        assert topo.oversubscription == 2.0

    def test_nic_bandwidth_derived_from_aggregate(self):
        system = multi_node(4, network="rail")
        topo = build_topology(system)
        assert topo.nic_bandwidth == pytest.approx(
            system.effective_internode_bandwidth / system.nics_per_node)

    def test_flat_has_no_graph(self):
        with pytest.raises(ConfigError):
            build_topology(multi_node(4))

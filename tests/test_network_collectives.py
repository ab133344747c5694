"""Unit tests for contention-costed collective algorithms."""

import pytest

from repro.errors import ConfigError
from repro.hardware.interconnect import RingParameters
from repro.network.collectives import (StepPlan, flat_ring_lower_bound,
                                       hierarchical_allreduce_time,
                                       point_to_point_time,
                                       ring_allreduce_time,
                                       tree_allreduce_time)
from repro.network.topology import (RailOptimizedTopology, Topology, gpu_id)

MIB = float(1 << 20)
NIC = 25e9


def rail(num_nodes=4, gpus=8, nics=4):
    return RailOptimizedTopology(num_nodes, gpus, nics,
                                 nvlink_bandwidth=300e9, nic_bandwidth=NIC,
                                 intranode_latency=3e-6,
                                 internode_latency=5e-6)


def one_per_node(topo, count):
    return [gpu_id(node, 0) for node in range(count)]


class TestTransferTime:
    """A routed step's transfer time (:class:`StepPlan`)."""

    def test_single_flow_is_payload_over_bandwidth(self):
        topo = Topology()
        topo.add_link("a", "b", 100e9, 2e-6)
        step = StepPlan.route(topo, [("a", "b", 0, 1)])
        assert step.time(100e9) == pytest.approx(1.0 + 2e-6)

    def test_contended_link_splits_bandwidth(self):
        """Two flows over one link each get B/2 — twice the time."""
        topo = Topology()
        topo.add_link("a", "b", 100e9, 0.0)
        step = StepPlan.route(topo, [("a", "b", 0, 1)] * 2)
        assert step.time(100e9) == pytest.approx(2.0)

    def test_disjoint_flows_do_not_contend(self):
        topo = Topology()
        topo.add_link("a", "b", 100e9, 0.0)
        topo.add_link("c", "d", 100e9, 0.0)
        step = StepPlan.route(topo, [("a", "b", 0, 1), ("c", "d", 0, 1)])
        assert step.time(100e9) == pytest.approx(1.0)

    def test_bottleneck_is_the_minimum_share(self):
        topo = Topology()
        topo.add_link("a", "b", 100e9, 0.0)
        topo.add_link("b", "c", 10e9, 0.0)  # narrow second hop
        step = StepPlan.route(topo, [("a", "c", 0, 1)])
        assert step.time(10e9) == pytest.approx(1.0)

    def test_empty_flow_costs_its_latency(self):
        topo = Topology()
        topo.add_link("a", "b", 100e9, 2e-6)
        assert StepPlan.route(topo, [("a", "a", 0, 1)]).time(0.0) == 0.0

    def test_parts_split_the_payload(self):
        """A flow of a ``parts``-member ring carries ``payload / parts``."""
        topo = Topology()
        topo.add_link("a", "b", 100e9, 0.0)
        step = StepPlan.route(topo, [("a", "b", 0, 4)])
        assert step.time(400e9) == pytest.approx(1.0)

    def test_equal_flows_are_kept_once(self):
        topo = Topology()
        topo.add_link("a", "b", 100e9, 1e-6)
        topo.add_link("c", "d", 100e9, 1e-6)
        step = StepPlan.route(topo, [("a", "b", 0, 2), ("c", "d", 0, 2)])
        assert step.flows == ((100e9, 1e-6, 2),)


class TestRingAllReduce:
    def test_matches_aggregate_closed_form_on_rails(self):
        """Striped over all 4 rails, an uncontended inter-node ring
        reaches the node's aggregate bandwidth: the transfer part is the
        Equation-1 term over 4 x NIC."""
        topo = rail()
        size = 256 * MIB
        count = 4
        time = ring_allreduce_time(topo, one_per_node(topo, count), size,
                                   channels=4)
        transfer = flat_ring_lower_bound(4 * NIC, size, count)
        assert time > transfer
        assert time == pytest.approx(transfer, rel=0.05)  # latency is small

    def test_fewer_channels_are_slower(self):
        topo = rail()
        gpus = one_per_node(topo, 4)
        one = ring_allreduce_time(topo, gpus, 64 * MIB, channels=1)
        four = ring_allreduce_time(topo, gpus, 64 * MIB, channels=4)
        assert one > four

    def test_trivial_cases_are_free(self):
        topo = rail()
        assert ring_allreduce_time(topo, [gpu_id(0, 0)], MIB) == 0.0
        assert ring_allreduce_time(topo, one_per_node(topo, 4), 0.0) == 0.0

    def test_repeated_members_rejected(self):
        topo = rail()
        with pytest.raises(ConfigError):
            ring_allreduce_time(topo, [gpu_id(0, 0), gpu_id(0, 0)], MIB)


class TestTreeAllReduce:
    def test_beats_ring_on_small_payloads(self):
        topo = rail(num_nodes=16)
        gpus = one_per_node(topo, 16)
        size = 64 * 1024  # latency-dominated
        assert tree_allreduce_time(topo, gpus, size, channels=4) < \
            ring_allreduce_time(topo, gpus, size, channels=4)

    def test_loses_to_ring_on_large_payloads(self):
        topo = rail(num_nodes=16)
        gpus = one_per_node(topo, 16)
        size = 512 * MIB  # bandwidth-dominated
        assert tree_allreduce_time(topo, gpus, size, channels=4) > \
            ring_allreduce_time(topo, gpus, size, channels=4)

    def test_two_members_is_one_exchange_up_and_down(self):
        topo = rail(num_nodes=2)
        gpus = one_per_node(topo, 2)
        time = tree_allreduce_time(topo, gpus, 4 * MIB, channels=1)
        single = point_to_point_time(topo, gpus[1], gpus[0], 4 * MIB)
        assert time == pytest.approx(2 * single)


class TestHierarchicalAllReduce:
    INTRA = RingParameters(bus_bandwidth=230e9, base_latency=3e-6,
                           hop_latency=1e-6)

    def test_combines_intra_and_inter_phases(self):
        topo = rail(num_nodes=4)
        slots = [[gpu_id(n, s) for s in range(8)] for n in range(4)]
        size = 128 * MIB
        total = hierarchical_allreduce_time(topo, slots, size,
                                            intra_ring=self.INTRA)
        intra = (self.INTRA.reduce_scatter_time(size, 8)
                 + self.INTRA.allgather_time(size, 8))
        assert total > intra
        assert total > flat_ring_lower_bound(4 * NIC, size, 4)

    def test_slot_rings_share_rails(self):
        """8 slots over 4 rails: each rail carries two concurrent rings,
        so the inter phase still moves S total per node at aggregate
        speed (2 rings x half bandwidth each)."""
        topo = rail(num_nodes=4)
        full = [[gpu_id(n, s) for s in range(8)] for n in range(4)]
        half = [[gpu_id(n, s) for s in range(4)] for n in range(4)]
        size = 128 * MIB
        t_full = hierarchical_allreduce_time(topo, full, size,
                                             intra_ring=self.INTRA)
        t_half = hierarchical_allreduce_time(topo, half, size,
                                             intra_ring=self.INTRA)
        # Same inter-phase wire time either way; only intra ring length
        # differs, so the two are close but not equal.
        assert t_full != t_half
        assert t_full == pytest.approx(t_half, rel=0.2)

    def test_rejects_single_node_groups(self):
        topo = rail(num_nodes=2)
        with pytest.raises(ConfigError):
            hierarchical_allreduce_time(topo, [[gpu_id(0, 0), gpu_id(0, 1)]],
                                        MIB, intra_ring=self.INTRA)

    def test_ragged_slots_are_costed_not_padded(self):
        """A group that does not divide across its nodes keeps its true
        member count: the extra slot's ring just spans fewer nodes."""
        topo = rail(num_nodes=2)
        ragged = hierarchical_allreduce_time(
            topo, [[gpu_id(0, 0), gpu_id(0, 1)], [gpu_id(1, 0)]],
            64 * MIB, intra_ring=self.INTRA)
        even = hierarchical_allreduce_time(
            topo, [[gpu_id(0, 0), gpu_id(0, 1)],
                   [gpu_id(1, 0), gpu_id(1, 1)]],
            64 * MIB, intra_ring=self.INTRA)
        assert 0.0 < ragged <= even

    def test_rejects_empty_slot_lists(self):
        topo = rail(num_nodes=2)
        with pytest.raises(ConfigError):
            hierarchical_allreduce_time(
                topo, [[gpu_id(0, 0), gpu_id(0, 1)], []],
                MIB, intra_ring=self.INTRA)

    def test_intra_interference_scales_intra_phases_only(self):
        topo = rail(num_nodes=4)
        slots = [[gpu_id(n, s) for s in range(8)] for n in range(4)]
        size = 128 * MIB
        quiet = hierarchical_allreduce_time(topo, slots, size,
                                            intra_ring=self.INTRA)
        noisy = hierarchical_allreduce_time(topo, slots, size,
                                            intra_ring=self.INTRA,
                                            intra_interference=1.3)
        intra = (self.INTRA.reduce_scatter_time(size, 8)
                 + self.INTRA.allgather_time(size, 8))
        assert noisy == pytest.approx(quiet + 0.3 * intra)

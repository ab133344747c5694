"""Property-based invariants of the collective cost model.

Four contracts hold for every algorithm on every topology:

* time is monotone (non-decreasing) in payload size;
* on an *uncontended* topology, no algorithm beats the flat-ring lower
  bound ``S/B * 2(n-1)/n`` at the node's aggregate egress bandwidth
  (the Equation-1 transfer term with zero latency);
* a group confined to one node reduces exactly to the profiled NVLink
  ring table (the paper's intra-node regime);
* costing from a memoized plan equals routing every flow on every call,
  bit for bit (the routed oracle below);
* ``NcclModel.time``, which memoizes costs by operator signature,
  equals the memo-free ``_dispatch`` on a fresh model, bit for bit.

Two metamorphic relations pin the fabric axis: more inter-node bandwidth
never slows a collective, and more fat-tree oversubscription never
speeds up a training iteration.
"""

import functools
from collections import Counter
from dataclasses import dataclass, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ParallelismConfig, TrainingConfig, VTrain
from repro.config.presets import MEGATRON_7_5B
from repro.config.system import multi_node
from repro.graph.builder import Granularity
from repro.graph.operators import CommKind, CommOperator, CommScope
from repro.hardware.interconnect import LinkType, log2_ceil, nvlink_ring
from repro.network.collectives import (flat_ring_lower_bound,
                                       hierarchical_allreduce_time,
                                       ring_allreduce_time,
                                       tree_allreduce_time)
from repro.network.model import (TopologyAwareNcclModel, nccl_model_for,
                                 place_group)
from repro.network.selection import CollectiveAlgorithm, select_algorithm
from repro.network.topology import Link, build_topology, gpu_id
from repro.profiling.nccl import NcclModel

MIB = float(1 << 20)

sizes = st.floats(min_value=1024.0, max_value=1024 * MIB)
#: 1 KiB to 8 GiB, reaching tree, ring and hierarchical All-Reduce.
payloads = st.builds(lambda mantissa, exponent: mantissa * 2.0 ** exponent,
                     st.floats(min_value=1.0, max_value=2.0),
                     st.integers(min_value=10, max_value=32))
group_sizes = st.sampled_from([2, 4, 8, 16])
networks = st.sampled_from(["rail", "fat-tree", "fat-tree:4"])


def model_for(network: str, num_nodes: int = 16) -> TopologyAwareNcclModel:
    return TopologyAwareNcclModel(multi_node(num_nodes, network=network))


def allreduce(model, size, group, link=LinkType.INTER_NODE):
    """The model's cost of one All-Reduce, through its one public entry."""
    return model.time(CommOperator(kind=CommKind.ALL_REDUCE,
                                   scope=CommScope.DATA, size_bytes=size,
                                   group_size=group, link=link))


def inter_node(kind: CommKind, size: float, group: int) -> CommOperator:
    """One inter-node collective (a send/recv pairs two workers)."""
    return CommOperator(kind=kind, scope=CommScope.DATA, size_bytes=size,
                        group_size=2 if kind is CommKind.SEND_RECV else group,
                        link=LinkType.INTER_NODE)


def algorithm_times(network: str, size: float, span: int):
    """(ring, tree, hierarchical) times for a representative group."""
    system = multi_node(16, network=network)
    topology = build_topology(system)
    members = [gpu_id(node, 0) for node in range(span)]
    channels = system.nics_per_node
    ring = ring_allreduce_time(topology, members, size, channels=channels)
    tree = tree_allreduce_time(topology, members, size, channels=channels)
    slots = [[gpu_id(node, slot) for slot in range(4)]
             for node in range(span)]
    hierarchical = hierarchical_allreduce_time(
        topology, slots, size, intra_ring=nvlink_ring(system, 4))
    return ring, tree, hierarchical


# ----------------------------------------------------------------------
# Routed oracle: every call routes every flow and recounts link loads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Flow:
    """One concurrent transfer: a routed path and its payload."""

    links: tuple[Link, ...]
    size_bytes: float


def transfer_time(flows: list[Flow]) -> float:
    """Slowest of a set of concurrent flows sharing links equally."""
    load: Counter[Link] = Counter()
    for flow in flows:
        load.update(flow.links)
    worst = 0.0
    for flow in flows:
        latency = sum(link.latency for link in flow.links)
        if flow.links and flow.size_bytes > 0:
            bandwidth = min(link.bandwidth / load[link]
                            for link in flow.links)
            worst = max(worst, flow.size_bytes / bandwidth + latency)
        else:
            worst = max(worst, latency)
    return worst


def routed_ring_step(topology, gpus, chunk, channels):
    count = len(gpus)
    return transfer_time([
        Flow(tuple(topology.route(gpus[index], gpus[(index + 1) % count],
                                  channel=channel)), chunk)
        for channel in range(channels) for index in range(count)])


def routed_tree(topology, gpus, size, channels):
    count = len(gpus)
    payload = size / channels
    total = 0.0
    for round_index in range(log2_ceil(count)):
        distance = 1 << round_index
        flows = []
        for channel in range(channels):
            for receiver in range(0, count, 2 * distance):
                sender = receiver + distance
                if sender < count:
                    flows.append(Flow(tuple(topology.route(
                        gpus[sender], gpus[receiver], channel=channel)),
                        payload))
        total += transfer_time(flows)
    return 2 * total


def routed_hierarchical(topology, node_slots, size, intra_ring,
                        interference):
    local = max(len(slots) for slots in node_slots)
    intra = 0.0
    if local > 1:
        intra = (intra_ring.reduce_scatter_time(size, local)
                 + intra_ring.allgather_time(size, local)) * interference
    shard = size / local
    flows = []
    for slot in range(local):
        ring = [slots[slot] for slots in node_slots if slot < len(slots)]
        if len(ring) < 2:
            continue
        chunk = shard / len(ring)
        for index in range(len(ring)):
            flows.append(Flow(tuple(topology.route(
                ring[index], ring[(index + 1) % len(ring)], channel=slot)),
                chunk))
    return intra + 2 * (len(node_slots) - 1) * transfer_time(flows)


def routed_cost(model, kind, size, group):
    """What ``model`` charges for one inter-node call, routed afresh."""
    system, topology = model.system, model.topology
    channels = system.nics_per_node
    if kind is CommKind.SEND_RECV:
        path = topology.route(gpu_id(0, 0), gpu_id(1, 0), channel=0)
        return transfer_time([Flow(tuple(path), size)])
    placement = place_group(group, system.num_nodes)
    members = placement.members()
    count = len(members)
    algorithm = select_algorithm(
        size, group, nodes_spanned=placement.nodes_spanned,
        ranks_per_node=placement.ranks_per_node)
    if algorithm is CollectiveAlgorithm.HIERARCHICAL:
        return routed_hierarchical(
            topology, placement.node_slots(), size,
            nvlink_ring(system, placement.ranks_per_node),
            model.interference)
    chunk = size / channels / count
    ring = 2 * (count - 1) * routed_ring_step(topology, members, chunk,
                                              channels)
    if algorithm is CollectiveAlgorithm.TREE:
        return min(routed_tree(topology, members, size, channels), ring)
    return ring


@functools.lru_cache(maxsize=None)
def shared_model(network: str, num_nodes: int) -> TopologyAwareNcclModel:
    """One model per machine across examples, so later examples cost
    from plans earlier ones memoized."""
    return model_for(network, num_nodes)


@st.composite
def inter_node_calls(draw):
    """(network, nodes, kind, group, payloads): groups up to the
    machine, ragged ones included; payloads from 1 KiB to 8 GiB reach
    tree, ring and hierarchical All-Reduce."""
    network = draw(st.sampled_from(
        ["rail", "fat-tree", "fat-tree:2", "fat-tree:4", "fat-tree:8"]))
    num_nodes = draw(st.integers(min_value=2, max_value=32))
    kind = draw(st.sampled_from(list(CommKind)))
    group = draw(st.one_of(st.integers(min_value=2, max_value=num_nodes),
                           st.integers(min_value=2,
                                       max_value=8 * num_nodes)))
    sizes = draw(st.lists(payloads, min_size=4, max_size=8))
    return network, num_nodes, kind, group, sizes


class TestPlanCostingMatchesRouting:
    @given(call=inter_node_calls())
    def test_bit_identical_to_routed_oracle(self, call):
        network, num_nodes, kind, group, payloads = call
        model = shared_model(network, num_nodes)
        for size in payloads:
            # Past the cost memo of ``time``: every payload is costed
            # from the memoized plan.
            planned = model._dispatch(inter_node(kind, size, group))
            assert planned == routed_cost(model, kind, size, group)


@st.composite
def comm_operator(draw, num_nodes: int) -> CommOperator:
    """Any kind on an intra- or inter-node link, with a group from 1 to
    the node (intra) or the machine (inter) and a payload of 0 or 1 KiB
    to 8 GiB."""
    kind = draw(st.sampled_from(list(CommKind)))
    link = draw(st.sampled_from(list(LinkType)))
    largest = 8 if link is LinkType.INTRA_NODE else 8 * num_nodes
    group = (2 if kind is CommKind.SEND_RECV
             else draw(st.integers(min_value=1, max_value=largest)))
    return CommOperator(
        kind=kind, scope=draw(st.sampled_from(list(CommScope))),
        size_bytes=draw(st.one_of(st.just(0.0), payloads)),
        group_size=group, link=link,
        concurrent_groups=draw(st.integers(min_value=1, max_value=4)))


@st.composite
def comm_operators(draw):
    """(network, nodes, operators) on flat, rail and fat-tree:k
    machines of 1 to 32 nodes."""
    network = draw(st.sampled_from(
        ["flat", "rail", "fat-tree", "fat-tree:2", "fat-tree:4",
         "fat-tree:8"]))
    num_nodes = draw(st.integers(min_value=1, max_value=32))
    operators = draw(st.lists(comm_operator(num_nodes), min_size=2,
                              max_size=6))
    return network, num_nodes, operators


class TestMemoizedTimeMatchesDirectCosting:
    @given(case=comm_operators())
    def test_bit_identical_to_a_fresh_model(self, case):
        """The process's model for a machine, shared across examples,
        costs from signatures earlier examples memoized; a model of its
        own costs every operator afresh past the memo."""
        network, num_nodes, operators = case
        system = multi_node(num_nodes, network=network)
        memoizing = nccl_model_for(system)
        fresh = (NcclModel(system) if network == "flat"
                 else TopologyAwareNcclModel(system))
        for op in operators:
            expected = fresh._dispatch(op)
            assert memoizing.time(op) == expected
            assert memoizing.time(replace(op)) == expected  # a memo hit


class TestMonotoneInPayload:
    @given(network=networks, span=group_sizes,
           small=sizes, factor=st.floats(min_value=1.0, max_value=64.0))
    def test_all_algorithms(self, network, span, small, factor):
        lo = algorithm_times(network, small, span)
        hi = algorithm_times(network, small * factor, span)
        for slow, fast in zip(hi, lo):
            assert slow >= fast

    @given(network=networks, group=st.sampled_from([2, 8, 32, 64]),
           small=sizes, factor=st.floats(min_value=1.0, max_value=64.0))
    def test_model_end_to_end(self, network, group, small, factor):
        model = model_for(network)
        lo = allreduce(model, small, group)
        hi = allreduce(model, small * factor, group)
        assert hi >= lo

    @pytest.mark.parametrize("network,group,small", [
        ("rail", 2, 699_051.0), ("fat-tree", 2, 699_051.0),
        ("fat-tree:4", 2, 699_051.0), ("rail", 8, 2.75 * MIB)])
    def test_across_the_tree_threshold(self, network, group, small):
        """Regression: payloads the selection sends to the tree although
        the ring is cheaper used to cost more than a larger payload past
        the threshold (rail, 2 members: 699,051 B cost 31.98 us on the
        tree, 1,048,576.5 B 28.49 us on the ring)."""
        model = model_for(network)
        lo = allreduce(model, small, group)
        hi = allreduce(model, small * 1.5, group)
        assert hi >= lo
        assert model.explain(small, group)["algorithm"] == "ring"


class TestFlatRingLowerBound:
    @given(network=networks, span=group_sizes, size=sizes)
    def test_no_algorithm_beats_the_bound(self, network, span, size):
        """On an uncontended topology every algorithm's time is >= the
        latency-free Equation-1 transfer at aggregate bandwidth."""
        system = multi_node(16, network=network)
        bound = flat_ring_lower_bound(system.effective_internode_bandwidth,
                                      size, span)
        for time in algorithm_times(network, size, span):
            assert time >= bound

    @given(network=networks, group=st.sampled_from([2, 8, 32, 64]),
           size=sizes)
    def test_model_respects_the_bound(self, network, group, size):
        model = model_for(network)
        placement = place_group(group, model.system.num_nodes)
        bound = flat_ring_lower_bound(
            model.system.effective_internode_bandwidth, size,
            placement.nodes_spanned)
        assert allreduce(model, size, group) >= bound


class TestSingleNodeReducesToNvlinkTable:
    @given(network=networks, group=st.sampled_from([2, 4, 8]), size=sizes)
    def test_intra_group_uses_the_profiled_table(self, network, group, size):
        """Hierarchical All-Reduce degenerates on one node: the
        topology-aware model answers straight from the NVLink ring
        table, bit-identical to the flat model."""
        topo_model = model_for(network)
        flat_model = NcclModel(multi_node(16))
        assert allreduce(topo_model, size, group, LinkType.INTRA_NODE) \
            == allreduce(flat_model, size, group, LinkType.INTRA_NODE)


class TestMoreBandwidthNeverSlower:
    @given(network=networks, num_nodes=st.integers(min_value=2, max_value=16),
           group=st.integers(min_value=2, max_value=128), size=sizes,
           factor=st.floats(min_value=1.0, max_value=16.0))
    def test_allreduce(self, network, num_nodes, group, size, factor):
        """Raising ``internode_bandwidth`` never increases an inter-node
        All-Reduce time."""
        slow = multi_node(num_nodes, network=network)
        fast = replace(slow,
                       internode_bandwidth=slow.internode_bandwidth * factor)
        group = min(group, slow.num_gpus)
        times = [allreduce(TopologyAwareNcclModel(system), size, group)
                 for system in (slow, fast)]
        assert times[1] <= times[0]


class TestOversubscriptionNeverFaster:
    TRAINING = TrainingConfig(global_batch_size=128)

    @pytest.mark.parametrize("tensor,data,pipeline",
                             [(2, 8, 2), (8, 4, 2), (4, 16, 1)])
    def test_megatron_stage_iteration(self, tensor, data, pipeline):
        """1:1 -> 2:1 -> 4:1 -> 8:1 fat-tree uplinks never shorten an
        iteration; plans spanning more than one leaf get slower."""
        plan = ParallelismConfig(tensor=tensor, data=data, pipeline=pipeline,
                                 micro_batch_size=1)
        num_nodes = plan.total_gpus // 8
        times = [VTrain(multi_node(num_nodes, network=f"fat-tree:{ratio}"),
                        granularity=Granularity.STAGE).predict(
                            MEGATRON_7_5B, plan, self.TRAINING).iteration_time
                 for ratio in (1, 2, 4, 8)]
        assert times == sorted(times)
        if num_nodes > 4:  # more than one leaf: the spine is in play
            assert times[-1] > times[0]

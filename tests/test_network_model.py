"""Tests for the topology-aware drop-in NCCL model and its selection."""

import sys
import threading

import pytest

from repro import ParallelismConfig, TrainingConfig, VTrain, multi_node
from repro.config.presets import MEGATRON_7_5B
from repro.errors import ConfigError
from repro.graph.operators import (CommKind, CommOperator, CommScope,
                                   data_allreduce, pipeline_send_recv,
                                   tensor_allreduce)
from repro.hardware.interconnect import LinkType
from repro.network.model import (NCCL_MODELS, TopologyAwareNcclModel,
                                 nccl_model_for, place_group)
from repro.network.selection import (CollectiveAlgorithm, select_algorithm,
                                     tree_threshold)
from repro.network.topology import Topology, gpu_id
from repro.profiling.nccl import NcclModel

MIB = float(1 << 20)


def allreduce(model, size, group, link=LinkType.INTER_NODE):
    """The model's cost of one All-Reduce, through its one public entry."""
    return model.time(data_allreduce(size, group, link))


class TestSelection:
    def test_multi_node_multi_rank_groups_go_hierarchical(self):
        assert select_algorithm(256 * MIB, 32, nodes_spanned=8,
                                ranks_per_node=4) is \
            CollectiveAlgorithm.HIERARCHICAL

    def test_small_payloads_go_tree(self):
        assert select_algorithm(64 * 1024, 8, nodes_spanned=8) is \
            CollectiveAlgorithm.TREE

    def test_large_payloads_go_ring(self):
        assert select_algorithm(256 * MIB, 8, nodes_spanned=8) is \
            CollectiveAlgorithm.RING

    def test_threshold_grows_with_group_size(self):
        assert tree_threshold(64) > tree_threshold(4)

    def test_rejects_degenerate_groups(self):
        with pytest.raises(ConfigError):
            select_algorithm(MIB, 1, nodes_spanned=1)


class TestPlacement:
    def test_one_rank_per_node(self):
        placement = place_group(8, 8)
        assert placement.nodes_spanned == 8
        assert placement.ranks_per_node == 1
        assert placement.node_stride == 1

    def test_group_larger_than_machine_stacks_ranks(self):
        placement = place_group(32, 8)
        assert placement.nodes_spanned == 8
        assert placement.ranks_per_node == 4

    def test_indivisible_group_is_not_padded(self):
        """Regression: 8 ranks over 3 nodes must cost exactly 8 members
        (3+3+2, ragged), not a padded 9."""
        placement = place_group(8, 3)
        assert len(placement.members()) == 8
        slots = placement.node_slots()
        assert [len(s) for s in slots] == [3, 3, 2]
        assert len({gpu for node in slots for gpu in node}) == 8

    def test_small_group_strides_across_machine(self):
        """A DP group of 4 on a 16-node job strides 4 nodes apart, the
        way the 3D rank mapping places it."""
        placement = place_group(4, 16)
        assert placement.nodes_spanned == 4
        assert placement.node_stride == 4
        assert [placement.node_of(i) for i in range(4)] == [0, 4, 8, 12]

    def test_node_slots_shape(self):
        slots = place_group(16, 4).node_slots()
        assert len(slots) == 4
        assert all(len(s) == 4 for s in slots)


class TestModelFactory:
    def test_flat_returns_plain_nccl_model(self):
        model = nccl_model_for(multi_node(4))
        assert type(model) is NcclModel

    def test_rail_returns_topology_model(self):
        model = nccl_model_for(multi_node(4, network="rail"))
        assert isinstance(model, TopologyAwareNcclModel)
        assert model.topology.name == "rail"

    def test_flat_system_has_no_topology_model(self):
        with pytest.raises(ConfigError):
            TopologyAwareNcclModel(multi_node(4))

    def test_equal_systems_share_one_model(self):
        """One model per system per process: its topology, plans and
        cost memo are built once for every simulator of the system."""
        model = nccl_model_for(multi_node(4, network="rail"))
        assert nccl_model_for(multi_node(4, network="rail")) is model
        assert nccl_model_for(multi_node(8, network="rail")) is not model
        assert nccl_model_for(multi_node(4)) is not model

    def test_store_evicts_past_its_bound_and_rebuilds_equal(self):
        nccl_model_for.cache_clear()
        system = multi_node(2, network="rail")
        op = data_allreduce(256 * MIB, 16, LinkType.INTER_NODE)
        first = nccl_model_for(system)
        cost = first.time(op)
        for nodes in range(3, NCCL_MODELS + 3):
            nccl_model_for(multi_node(nodes))
        assert nccl_model_for.cache_info().currsize == NCCL_MODELS
        rebuilt = nccl_model_for(system)
        assert rebuilt is not first
        assert rebuilt.cached_time(op.signature) is None
        assert rebuilt.time(op) == cost


class TestTopologyAwareModel:
    @pytest.fixture
    def rail_model(self):
        return TopologyAwareNcclModel(multi_node(8, network="rail"))

    @pytest.fixture
    def flat_model(self):
        return NcclModel(multi_node(8))

    def test_intra_node_table_is_bit_identical_to_flat(self, rail_model,
                                                       flat_model):
        """The profiled NVLink table is untouched by topology — the
        single-node (hierarchical) case IS the ring table."""
        for size in (MIB, 16 * MIB, 700 * MIB):
            for group in (2, 4, 8):
                assert allreduce(rail_model, size, group,
                                 LinkType.INTRA_NODE) == \
                    allreduce(flat_model, size, group, LinkType.INTRA_NODE)
        assert rail_model.profile_table(8) == flat_model.profile_table(8)

    def test_inter_node_differs_from_flat(self, rail_model, flat_model):
        rail = allreduce(rail_model, 256 * MIB, 8)
        flat = allreduce(flat_model, 256 * MIB, 8)
        assert rail != flat
        assert rail == pytest.approx(flat, rel=0.1)  # same aggregate pipe

    def test_oversubscribed_fat_tree_is_slowest(self):
        size, group = 256 * MIB, 32
        times = {}
        for network in ("rail", "fat-tree", "fat-tree:8"):
            model = TopologyAwareNcclModel(multi_node(8, network=network))
            times[network] = allreduce(model, size, group)
        assert times["rail"] <= times["fat-tree"] < times["fat-tree:8"]

    def test_sendrecv_rides_one_rail(self, rail_model):
        system = rail_model.system
        time = rail_model.time(comm(CommKind.SEND_RECV, 64 * MIB, None))
        assert time > 64 * MIB / system.nic_bandwidth

    def test_network_string_canonicalized_on_construction(self):
        system = multi_node(2, network="fat-tree:1")
        assert system.network == "fat-tree"
        assert multi_node(2, network="fat-tree:4.0").network == "fat-tree:4"

    def test_explain_reports_selection(self, rail_model):
        info = rail_model.explain(256 * MIB, 32)
        assert info["algorithm"] == "hierarchical"
        assert info["topology"] == "rail"
        assert info["time"] > 0

    def test_explain_handles_degenerate_cases(self, rail_model):
        """Regression: explain() must not crash where the All-Reduce
        cost falls back to the base model."""
        assert rail_model.explain(MIB, 1)["algorithm"] == "flat-fallback"

    def test_group_larger_than_machine_is_a_clear_error(self):
        """Regression: a 24-GPU group on a 16-GPU machine used to fail
        deep in routing with a missing-link error."""
        model = TopologyAwareNcclModel(multi_node(2, network="fat-tree"))
        with pytest.raises(ConfigError, match=r"24 GPUs.*2 x 8-GPU"):
            allreduce(model, 64 * MIB, 24)

    def test_interference_scales_hierarchical_intra_phases(self):
        system = multi_node(8, network="rail")
        quiet = TopologyAwareNcclModel(system)
        noisy = TopologyAwareNcclModel(system, interference=1.3)
        assert allreduce(noisy, 256 * MIB, 32) > \
            allreduce(quiet, 256 * MIB, 32)


#: (kind, payload, group size) on an 8-node machine: ring, tree and
#: hierarchical All-Reduce and send/recv. Scaling a payload by 1.25 keeps
#: each case on its algorithm.
CASES = [(CommKind.ALL_REDUCE, 256 * MIB, 8),
         (CommKind.ALL_REDUCE, 64 * 1024, 8),
         (CommKind.ALL_REDUCE, 256 * MIB, 32),
         (CommKind.ALL_REDUCE, 64 * MIB, 12),
         (CommKind.ALL_REDUCE, 2 * MIB, 5),
         (CommKind.SEND_RECV, 32 * MIB, None)]


def comm(kind, size, group):
    """One inter-node collective (``group`` is ``None`` for send/recv)."""
    return CommOperator(kind=kind, scope=CommScope.DATA, size_bytes=size,
                        group_size=2 if group is None else group,
                        link=LinkType.INTER_NODE)


def planned(model, kind, size, group):
    """``model``'s cost of ``comm(kind, size, group)`` past the cost memo
    of ``time``, so every call reads the topology's plans."""
    return model._dispatch(comm(kind, size, group))


def hammer(work, *, threads=8, rounds=20):
    """``work()`` run ``rounds`` times on each of ``threads`` threads
    released together under a short switch interval; returns every
    result, after checking that no thread hung or raised."""
    start = threading.Barrier(threads)
    results, errors = [], []

    def worker():
        try:
            start.wait(timeout=10)
            for _ in range(rounds):
                results.append(work())
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, daemon=True)
                for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []
    assert len(results) == threads * rounds
    return results


def hub_topology(*, shortcut: bool) -> Topology:
    """Two 8-GPU nodes, each GPU on its node's hub, the hubs joined by a
    slow link; ``shortcut`` adds a fast direct gpu:0:0 <-> gpu:1:0 link
    (the breadth-first route then takes it)."""
    topology = Topology()
    for node in range(2):
        for local in range(8):
            topology.add_link(gpu_id(node, local), f"hub:{node}", 300e9,
                              1e-6)
    topology.add_link("hub:0", "hub:1", 10e9, 5e-6)
    if shortcut:
        topology.add_link(gpu_id(0, 0), gpu_id(1, 0), 100e9, 1e-6)
    return topology


class TestPlanMemo:
    """Collective plans are routed once per topology and group."""

    @pytest.mark.parametrize("case", CASES,
                             ids=lambda case: f"{case[0].value}-{case[2]}")
    def test_second_cost_of_a_group_does_not_route(self, monkeypatch, case):
        model = TopologyAwareNcclModel(multi_node(8, network="rail"))
        route = type(model.topology).route
        calls = []

        def counting_route(self, src, dst, *, channel=0):
            calls.append((src, dst, channel))
            return route(self, src, dst, channel=channel)

        monkeypatch.setattr(type(model.topology), "route", counting_route)
        kind, size, group = case
        first = planned(model, kind, size, group)
        routed = len(calls)
        assert routed > 0
        assert planned(model, kind, size, group) == first
        assert planned(model, kind, 1.25 * size, group) > first
        assert len(calls) == routed

    def test_add_link_drops_stale_plans(self):
        cases = [(CommKind.ALL_REDUCE, 256 * MIB, 2),
                 (CommKind.ALL_REDUCE, 64 * 1024, 2),
                 (CommKind.ALL_REDUCE, 256 * MIB, 16),
                 (CommKind.SEND_RECV, 32 * MIB, None)]
        system = multi_node(2, network="rail")
        topology = hub_topology(shortcut=False)
        model = TopologyAwareNcclModel(system, topology=topology)
        before = [model.time(comm(*case)) for case in cases]
        assert [planned(model, *case) for case in cases] == before
        topology.add_link(gpu_id(0, 0), gpu_id(1, 0), 100e9, 1e-6)
        memoized = [model.time(comm(*case)) for case in cases]
        after = [planned(model, *case) for case in cases]
        fresh = TopologyAwareNcclModel(
            system, topology=hub_topology(shortcut=True))
        assert after == [planned(fresh, *case) for case in cases]
        assert memoized == [fresh.time(comm(*case)) for case in cases]
        assert all(new < old for new, old in zip(after, before))

    def test_threads_sharing_a_model_get_sequential_results(self):
        """The daemon shares one model across request threads; a plan
        missed by several threads at once may be built twice but never
        costs differently."""
        system = multi_node(8, network="fat-tree:4")
        expected = [planned(TopologyAwareNcclModel(system), *case)
                    for case in CASES]
        shared = TopologyAwareNcclModel(system)
        results = hammer(lambda: [planned(shared, *case) for case in CASES])
        assert all(result == expected for result in results)


def operators():
    """Operators of both kinds, intra- and inter-node, built afresh per
    call so memo hits come from equal operators, not the same one."""
    return [tensor_allreduce(2, 2048, 4096, 8, LinkType.INTRA_NODE),
            data_allreduce(256 * MIB, 32, LinkType.INTER_NODE),
            data_allreduce(64 * 1024, 8, LinkType.INTER_NODE),
            pipeline_send_recv(1, 2048, 4096, LinkType.INTER_NODE)]


class TestCostMemo:
    """NcclModel.time costs each operator signature once per model."""

    @pytest.mark.parametrize("network", ["flat", "rail", "fat-tree:4"])
    def test_second_time_of_an_equal_operator_does_not_recompute(
            self, monkeypatch, network):
        nccl_model_for.cache_clear()  # a model with an empty memo
        model = nccl_model_for(multi_node(8, network=network))
        calls = []
        for name in ("_allreduce_time", "_sendrecv_time"):
            method = getattr(type(model), name)

            def counting(self, *args, method=method):
                calls.append(args)
                return method(self, *args)

            monkeypatch.setattr(type(model), name, counting)
        first = [model.time(op) for op in operators()]
        computed = len(calls)
        assert computed >= len(first)
        assert [model.time(op) for op in operators()] == first
        assert len(calls) == computed

    def test_threads_costing_through_time_get_sequential_results(self):
        system = multi_node(8, network="fat-tree:4")
        fresh = TopologyAwareNcclModel(system)
        expected = [fresh.time(comm(*case)) for case in CASES]
        shared = TopologyAwareNcclModel(system)
        results = hammer(lambda: [shared.time(comm(*case))
                                  for case in CASES])
        assert all(result == expected for result in results)


class TestVTrainIntegration:
    PLAN = ParallelismConfig(tensor=8, data=4, pipeline=2, micro_batch_size=2)
    TRAINING = TrainingConfig(global_batch_size=64)

    def test_flat_default_is_bit_identical_to_explicit_model(self):
        """`network="flat"` must reproduce pre-topology predictions
        exactly (the acceptance criterion protecting old caches)."""
        system = multi_node(8)
        default = VTrain(system).predict(MEGATRON_7_5B, self.PLAN,
                                         self.TRAINING)
        explicit = VTrain(system, nccl=NcclModel(system)).predict(
            MEGATRON_7_5B, self.PLAN, self.TRAINING)
        assert default.iteration_time == explicit.iteration_time

    def test_topology_networks_produce_differing_predictions(self):
        times = {}
        for network in ("flat", "rail", "fat-tree:4"):
            vtrain = VTrain(multi_node(8, network=network))
            times[network] = vtrain.predict(
                MEGATRON_7_5B, self.PLAN, self.TRAINING).iteration_time
        assert len(set(times.values())) == 3
        for time in times.values():  # same cluster, same order of magnitude
            assert time == pytest.approx(times["flat"], rel=0.2)

"""Topology-aware drop-in replacement for the flat ``NcclModel``.

:class:`TopologyAwareNcclModel` honors the exact operator-timing
interface of :class:`repro.profiling.nccl.NcclModel` — ``profile_table``
and the memoized :meth:`time`, which costs the two kinds the graph
builder emits — so every consumer (:class:`~repro.sim.estimator.VTrain`,
the graph builder, the DSE engine) can swap it in without change.

The split of responsibilities mirrors the paper's two regimes:

* **Intra-node** collectives stay on the inherited profiled NVLink table
  (Section III-D) — bit-identical to the flat model, so a single-node
  hierarchical case *is* the NVLink ring table.
* **Inter-node** collectives are costed on the explicit topology graph
  (:mod:`repro.network.topology`): the group is placed onto nodes the
  way the 3D-parallel rank mapping places it (members stride across the
  machine by ``num_nodes / span``), an algorithm is auto-selected
  (:mod:`repro.network.selection`; a selected tree is charged only
  where it beats the ring), and the chosen algorithm's routed flows are
  charged per-link contention (:mod:`repro.network.collectives`).
  Routing happens once per group: the topology memoizes each
  algorithm's payload-free plan, and every call applies its payload to
  that plan arithmetically. The costs
  :meth:`~repro.profiling.nccl.NcclModel.time` memoizes live next to
  those plans, so ``Topology.add_link`` drops both.

Like the flat model, one collective is costed in isolation — concurrent
*other* groups of the same job are the dynamic interference the paper
handles separately (its acknowledged multi-node error source).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.hardware.interconnect import LinkType, nvlink_ring
from repro.network.collectives import (hierarchical_allreduce_time,
                                       point_to_point_time,
                                       ring_allreduce_time,
                                       tree_allreduce_time)
from repro.network.selection import CollectiveAlgorithm, select_algorithm
from repro.network.topology import Topology, build_topology, gpu_id
from repro.profiling.nccl import NcclModel


@dataclass(frozen=True)
class GroupPlacement:
    """Where an inter-node communication group's ranks live.

    The model's interface carries only ``group_size``, so the placement
    reconstructs the representative layout the 3D rank mapping
    (:class:`~repro.hardware.cluster.ClusterTopology`) produces: exactly
    ``group_size`` members dealt round-robin over ``nodes_spanned``
    nodes, ``node_stride`` apart (a data-parallel group strides by
    ``tensor*pipeline`` ranks, i.e. ``num_nodes / span`` nodes on a
    job-sized system). A group that does not divide evenly is ragged —
    the first nodes carry one extra member — never padded.
    """

    group_size: int
    nodes_spanned: int
    node_stride: int

    @property
    def ranks_per_node(self) -> int:
        """Largest co-located member count (the busiest node)."""
        return -(-self.group_size // self.nodes_spanned)

    def node_of(self, member: int) -> int:
        """Server node of the ``member``-th group rank."""
        return (member % self.nodes_spanned) * self.node_stride

    def members(self) -> list[str]:
        """GPU endpoints in ring order: co-located members adjacent
        (node-major), so a ring crosses the fabric once per node — the
        locality-aware order NCCL builds its rings in — and intra-node
        hops ride NVLink."""
        return [gpu for slots in self.node_slots() for gpu in slots]

    def node_slots(self) -> list[list[str]]:
        """Per participating node, its co-located members (for the
        hierarchical algorithm); ragged when the group does not divide
        evenly."""
        slots: list[list[str]] = [[] for _ in range(self.nodes_spanned)]
        for member in range(self.group_size):
            slots[member % self.nodes_spanned].append(
                gpu_id(self.node_of(member), member // self.nodes_spanned))
        return slots


def place_group(group_size: int, num_nodes: int) -> GroupPlacement:
    """Representative placement of a ``group_size`` inter-node group."""
    if group_size < 2:
        raise ConfigError("placement needs group_size >= 2")
    if num_nodes < 2:
        raise ConfigError("placement needs num_nodes >= 2")
    span = min(group_size, num_nodes)
    stride = max(1, num_nodes // span)
    return GroupPlacement(group_size=group_size, nodes_spanned=span,
                          node_stride=stride)


class TopologyAwareNcclModel(NcclModel):
    """Times communication operators over an explicit network topology.

    Args:
        system: Cluster description; ``system.network`` must name a
            non-flat topology (``rail`` or ``fat-tree[:ratio]``) unless
            an explicit ``topology`` is given.
        interference: Multiplier on intra-node collective latency,
            exactly as in :class:`~repro.profiling.nccl.NcclModel`.
        topology: Override the graph built from ``system.network``.
    """

    def __init__(self, system: SystemConfig, *, interference: float = 1.0,
                 topology: Topology | None = None) -> None:
        super().__init__(system, interference=interference)
        self.topology = (topology if topology is not None
                         else build_topology(system))

    def _cost_memo(self) -> dict[tuple, float]:
        """This model's :meth:`time` memo, kept among the topology's
        plans under the model itself, so ``add_link`` drops costs
        together with the plans they came from."""
        return self.topology.plan(self, dict)

    # ------------------------------------------------------------------
    # Inter-node collective timing over the topology
    # ------------------------------------------------------------------
    def _channels(self) -> int:
        return self.system.nics_per_node

    def _select(self, size_bytes: float, group_size: int,
                ) -> tuple[GroupPlacement, CollectiveAlgorithm]:
        system = self.system
        if group_size > system.num_gpus:
            raise ConfigError(
                f"a collective group of {group_size} GPUs does not fit the "
                f"{system.num_nodes} x {system.gpus_per_node}-GPU machine")
        placement = place_group(group_size, system.num_nodes)
        algorithm = select_algorithm(
            size_bytes, group_size,
            nodes_spanned=placement.nodes_spanned,
            ranks_per_node=placement.ranks_per_node)
        return placement, algorithm

    def _inter_allreduce(self, placement: GroupPlacement,
                         algorithm: CollectiveAlgorithm, size_bytes: float,
                         ) -> tuple[CollectiveAlgorithm, float]:
        """The algorithm charged for one inter-node All-Reduce, and its
        time.

        A tree selection is a candidate only: the ring is charged
        wherever it is not slower, as NCCL's tuner takes the faster
        algorithm. The selection threshold overshoots the real crossover
        (for two members the ring always wins), and charging the tree
        past the crossover would let a larger payload cost less than a
        smaller one.
        """
        if algorithm is CollectiveAlgorithm.HIERARCHICAL:
            intra = nvlink_ring(self.system, placement.ranks_per_node)
            return algorithm, hierarchical_allreduce_time(
                self.topology, placement.node_slots(), size_bytes,
                intra_ring=intra, intra_interference=self.interference)
        members = placement.members()
        ring = ring_allreduce_time(self.topology, members, size_bytes,
                                   channels=self._channels())
        if algorithm is CollectiveAlgorithm.TREE:
            tree = tree_allreduce_time(self.topology, members, size_bytes,
                                       channels=self._channels())
            if tree < ring:
                return algorithm, tree
        return CollectiveAlgorithm.RING, ring

    def _allreduce_time(self, size_bytes: float, group_size: int,
                        link: LinkType) -> float:
        if (link is LinkType.INTRA_NODE or group_size <= 1
                or size_bytes <= 0 or self.system.num_nodes < 2):
            return super()._allreduce_time(size_bytes, group_size, link)
        placement, algorithm = self._select(size_bytes, group_size)
        return self._inter_allreduce(placement, algorithm, size_bytes)[1]

    def _sendrecv_time(self, size_bytes: float, link: LinkType) -> float:
        """P2P between adjacent pipeline stages: one uncontended routed
        flow between neighbor nodes (one rail end to end)."""
        if (link is LinkType.INTRA_NODE or size_bytes <= 0
                or self.system.num_nodes < 2):
            return super()._sendrecv_time(size_bytes, link)
        return point_to_point_time(self.topology, gpu_id(0, 0), gpu_id(1, 0),
                                   size_bytes)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def explain(self, size_bytes: float, group_size: int) -> dict[str, object]:
        """Chosen algorithm and placement for one inter-node collective
        (for reports and what-if tooling)."""
        if group_size < 2 or self.system.num_nodes < 2:
            # Same degenerate cases _allreduce_time delegates to the
            # base model (profiled table / flat formulas).
            return {
                "topology": self.topology.name,
                "algorithm": "flat-fallback",
                "nodes_spanned": min(group_size, self.system.num_nodes),
                "ranks_per_node": group_size,
                "node_stride": 0,
                "time": self._allreduce_time(size_bytes, group_size,
                                             LinkType.INTER_NODE),
            }
        placement, algorithm = self._select(size_bytes, group_size)
        charged, time = self._inter_allreduce(placement, algorithm,
                                              size_bytes)
        return {
            "topology": self.topology.name,
            "algorithm": charged.value,
            "nodes_spanned": placement.nodes_spanned,
            "ranks_per_node": placement.ranks_per_node,
            "node_stride": placement.node_stride,
            "time": time,
        }


#: Communication models :func:`nccl_model_for` keeps, one per system,
#: least recently used first out. A model weighs what its topology
#: does, ~9.4 KB per node (tracemalloc), so 32 of the 560-node fabrics
#: the README sweeps are ~175 MB. A perfbench workload uses at most 26
#: systems; an MT-NLG fabric sweep to 4,480 GPUs uses 93, so a second
#: one rebuilds what fell out (~50 ms per 560-node topology). Evicted
#: models live on only in simulators that hold them; the serving daemon
#: builds a simulator per batch and keeps none.
NCCL_MODELS = 32


@functools.lru_cache(maxsize=NCCL_MODELS)
def nccl_model_for(system: SystemConfig) -> NcclModel:
    """The process's communication model for ``system``, as its
    ``network`` spec asks (built on first use): the plain
    :class:`~repro.profiling.nccl.NcclModel` for ``flat``, else a
    :class:`TopologyAwareNcclModel` over the corresponding graph.

    Every simulator of an equal system shares the model, so never
    mutate it (``topology.add_link`` would change all their costs). A
    what-if fabric goes into a model of its own, passed as
    ``VTrain(system, nccl=TopologyAwareNcclModel(system, topology=...))``.
    """
    if system.network_spec.kind == "flat":
        return NcclModel(system)
    return TopologyAwareNcclModel(system)

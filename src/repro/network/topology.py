"""Explicit cluster-network topology graphs.

The flat Equation-1 model (:mod:`repro.hardware.interconnect`) collapses
the whole inter-node fabric into one aggregate ``alpha * Bmax`` pipe. A
real cluster is a graph: GPUs hang off an NVSwitch inside each node,
nodes reach the fabric through several HCAs ("rails"), and the fabric
itself is either rail-optimized (one non-blocking switch per rail, the
DGX SuperPOD design) or a 2-level fat tree whose leaf uplinks may be
oversubscribed. Echo (arXiv:2412.12487) and Charon (arXiv:2605.17164)
both show that modeling this structure — and the link-level contention
it creates — is what keeps simulator error low at scale.

This module provides the graph: nodes and switches joined by directed
:class:`Link` objects carrying per-link bandwidth and latency, plus
deterministic routing between any two GPU endpoints. Every node is an
NVSwitch domain (its GPUs on a central switch, its HCAs behind it), and
:func:`build_topology` builds one of two fabrics over the nodes:

* :class:`RailOptimizedTopology` — HCA *r* of every node connects to
  rail switch *r*; any two nodes are one switch apart on every rail
  and rails never share links (non-blocking).
* :class:`FatTreeTopology` — nodes under leaf (ToR) switches, leaves
  joined by spine switches, with a configurable uplink
  oversubscription ratio.

Both route a same-node pair through its NVSwitch. A group confined to
one node never reaches the graph, though: intra-node collectives cost
from the profiled NVLink table (:class:`repro.profiling.nccl.NcclModel`).

Costing collectives over these graphs lives in
:mod:`repro.network.collectives`; choosing an algorithm in
:mod:`repro.network.selection`; the drop-in ``NcclModel`` replacement in
:mod:`repro.network.model`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, TypeVar

from repro.errors import ConfigError

if TYPE_CHECKING:  # imported lazily to avoid a config <-> network cycle
    from repro.config.system import SystemConfig

#: Modeled latency of traversing a switch ASIC (port-to-port).
SWITCH_HOP_LATENCY = 0.5e-6

Plan = TypeVar("Plan")


@dataclass(frozen=True)
class Link:
    """One directed link of the topology graph.

    Attributes:
        src: Id of the transmitting element.
        dst: Id of the receiving element.
        bandwidth: Link capacity in bytes/s. A link carrying ``k``
            concurrent flows delivers ``bandwidth / k`` to each (see
            :class:`repro.network.collectives.StepPlan`).
        latency: Propagation + serialization latency of one traversal.
    """

    src: str
    dst: str
    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError(f"link {self.src}->{self.dst} needs positive "
                              "bandwidth")
        if self.latency < 0:
            raise ConfigError(f"link {self.src}->{self.dst} has negative "
                              "latency")


def gpu_id(node: int, local: int) -> str:
    """Endpoint id of GPU ``local`` on server node ``node``."""
    return f"gpu:{node}:{local}"


class Topology:
    """A network graph of GPUs, NICs and switches with routing.

    Subclasses build their link structure in ``__init__`` and may
    override :meth:`route` with closed-form, channel-aware paths; the
    base implementation is a deterministic breadth-first shortest path
    (ties broken by sorted neighbor id) that ignores the channel.

    The topology also memoizes the collective plans routed on it
    (:meth:`plan`), so each group is routed once per topology, and each
    model's collective costs next to them.
    """

    name = "topology"

    def __init__(self) -> None:
        self._links: dict[tuple[str, str], Link] = {}
        self._neighbors: dict[str, list[str]] = {}
        self._plans: dict[Hashable, Any] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(self, src: str, dst: str, bandwidth: float,
                 latency: float, *, bidirectional: bool = True) -> None:
        """Add a link (both directions unless ``bidirectional=False``).

        Drops every memoized plan: routes and loads may change.
        """
        self._plans.clear()
        ends = [(src, dst), (dst, src)] if bidirectional else [(src, dst)]
        for u, v in ends:
            if (u, v) in self._links:
                raise ConfigError(f"duplicate link {u}->{v}")
            self._links[(u, v)] = Link(u, v, bandwidth, latency)
            self._neighbors.setdefault(u, []).append(v)
            self._neighbors.setdefault(v, [])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """All element ids, sorted."""
        return sorted(self._neighbors)

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst``."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise ConfigError(f"no link {src}->{dst} in {self.name}") from None

    def neighbors(self, element: str) -> list[str]:
        """Elements reachable in one hop, sorted."""
        if element not in self._neighbors:
            raise ConfigError(f"unknown element {element!r} in {self.name}")
        return sorted(self._neighbors[element])

    # ------------------------------------------------------------------
    # Collective plans
    # ------------------------------------------------------------------
    def plan(self, key: Hashable, build: Callable[[], Plan]) -> Plan:
        """The collective plan memoized under ``key``, from ``build()``
        on first use.

        Plans are immutable, so threads may share them; two threads that
        miss the same key at once just build equal plans twice. A model's
        cost memo (a dict it fills) is stored the same way, so a memo
        lost to such a race only costs recomputation.
        """
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = build()
        return plan

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def path(self, elements: list[str]) -> list[Link]:
        """Turn an element sequence into its link sequence."""
        return [self.link(u, v) for u, v in zip(elements, elements[1:])]

    def route(self, src: str, dst: str, *, channel: int = 0) -> list[Link]:
        """Links traversed from ``src`` to ``dst``.

        ``channel`` selects among equal-cost paths (NCCL channels map to
        HCA rails); the base implementation ignores it.
        """
        del channel
        if src == dst:
            return []
        parents: dict[str, str] = {src: src}
        queue = deque([src])
        while queue:
            here = queue.popleft()
            if here == dst:
                break
            for neighbor in self.neighbors(here):
                if neighbor not in parents:
                    parents[neighbor] = here
                    queue.append(neighbor)
        if dst not in parents:
            raise ConfigError(f"no route {src} -> {dst} in {self.name}")
        elements = [dst]
        while elements[-1] != src:
            elements.append(parents[elements[-1]])
        return self.path(elements[::-1])


class _ClusterTopologyBase(Topology):
    """Shared intra-node structure: GPUs on an NVSwitch, NICs behind it.

    Per node ``n`` the elements are ``gpu:n:l`` (``l`` < gpus_per_node),
    ``nvswitch:n``, and ``nic:n:r`` (``r`` < nics_per_node). NVLink hops
    carry half the end-to-end intra-node latency each, so a
    GPU -> NVSwitch -> GPU path costs one full ``intranode_latency``.
    """

    def __init__(self, num_nodes: int, gpus_per_node: int,
                 nics_per_node: int, *, nvlink_bandwidth: float,
                 nic_bandwidth: float, intranode_latency: float,
                 internode_latency: float) -> None:
        super().__init__()
        if num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if gpus_per_node < 1 or nics_per_node < 1:
            raise ConfigError("gpus_per_node and nics_per_node must be >= 1")
        self.num_nodes = num_nodes
        self.gpus_per_node = gpus_per_node
        self.nics_per_node = nics_per_node
        self.nic_bandwidth = nic_bandwidth
        self.internode_latency = internode_latency
        for node in range(num_nodes):
            switch = f"nvswitch:{node}"
            for local in range(gpus_per_node):
                self.add_link(gpu_id(node, local), switch,
                              nvlink_bandwidth, intranode_latency / 2)
            for rail in range(nics_per_node):
                self.add_link(switch, f"nic:{node}:{rail}",
                              nic_bandwidth, SWITCH_HOP_LATENCY)

    def _intra_route(self, src: str, dst: str, node: int) -> list[str]:
        return [src, f"nvswitch:{node}", dst]

    def _parse_gpu(self, element: str) -> tuple[int, int]:
        try:
            kind, node, local = element.split(":")
            if kind != "gpu":
                raise ValueError
            return int(node), int(local)
        except ValueError:
            raise ConfigError(
                f"{element!r} is not a GPU endpoint (gpu:<node>:<local>)"
            ) from None


class RailOptimizedTopology(_ClusterTopologyBase):
    """Rail-optimized fabric: HCA ``r`` of every node on rail switch ``r``.

    The DGX-SuperPOD design: each rail is a non-blocking switch of its
    own, so same-rail traffic between any two nodes crosses exactly one
    switch and different rails never share a link.
    """

    name = "rail"

    def __init__(self, num_nodes: int, gpus_per_node: int,
                 nics_per_node: int, *, nvlink_bandwidth: float,
                 nic_bandwidth: float, intranode_latency: float,
                 internode_latency: float) -> None:
        super().__init__(num_nodes, gpus_per_node, nics_per_node,
                         nvlink_bandwidth=nvlink_bandwidth,
                         nic_bandwidth=nic_bandwidth,
                         intranode_latency=intranode_latency,
                         internode_latency=internode_latency)
        for rail in range(nics_per_node):
            for node in range(num_nodes):
                self.add_link(f"nic:{node}:{rail}", f"rail:{rail}",
                              nic_bandwidth, internode_latency / 2)

    def route(self, src: str, dst: str, *, channel: int = 0) -> list[Link]:
        if src == dst:
            return []
        src_node, _ = self._parse_gpu(src)
        dst_node, _ = self._parse_gpu(dst)
        if src_node == dst_node:
            return self.path(self._intra_route(src, dst, src_node))
        rail = channel % self.nics_per_node
        return self.path([
            src, f"nvswitch:{src_node}", f"nic:{src_node}:{rail}",
            f"rail:{rail}", f"nic:{dst_node}:{rail}",
            f"nvswitch:{dst_node}", dst,
        ])


class FatTreeTopology(_ClusterTopologyBase):
    """2-level fat tree: nodes under leaf switches, leaves under spines.

    Each leaf hosts ``nodes_per_leaf`` nodes; its downlink capacity is
    ``nodes_per_leaf * nics_per_node * nic_bandwidth`` and its uplink
    capacity is that divided by ``oversubscription``, spread over
    ``nics_per_node`` spine links. A non-blocking tree has
    ``oversubscription=1.0``; typical cost-reduced clusters run 2:1 to
    8:1, which this graph exposes as spine-link contention.
    """

    name = "fat-tree"

    def __init__(self, num_nodes: int, gpus_per_node: int,
                 nics_per_node: int, *, nvlink_bandwidth: float,
                 nic_bandwidth: float, intranode_latency: float,
                 internode_latency: float, oversubscription: float = 1.0,
                 nodes_per_leaf: int = 4) -> None:
        super().__init__(num_nodes, gpus_per_node, nics_per_node,
                         nvlink_bandwidth=nvlink_bandwidth,
                         nic_bandwidth=nic_bandwidth,
                         intranode_latency=intranode_latency,
                         internode_latency=internode_latency)
        if oversubscription < 1.0:
            raise ConfigError("oversubscription ratio must be >= 1.0")
        if nodes_per_leaf < 1:
            raise ConfigError("nodes_per_leaf must be >= 1")
        self.oversubscription = oversubscription
        self.nodes_per_leaf = min(nodes_per_leaf, num_nodes)
        self.num_leaves = -(-num_nodes // self.nodes_per_leaf)
        self.num_spines = nics_per_node
        for node in range(num_nodes):
            leaf = f"leaf:{node // self.nodes_per_leaf}"
            for rail in range(nics_per_node):
                self.add_link(f"nic:{node}:{rail}", leaf, nic_bandwidth,
                              internode_latency / 2)
        uplink_total = (self.nodes_per_leaf * nics_per_node * nic_bandwidth
                        / oversubscription)
        self.uplink_bandwidth = uplink_total / self.num_spines
        if self.num_leaves > 1:
            for leaf in range(self.num_leaves):
                for spine in range(self.num_spines):
                    self.add_link(f"leaf:{leaf}", f"spine:{spine}",
                                  self.uplink_bandwidth,
                                  internode_latency / 2)

    def leaf_of(self, node: int) -> int:
        """Leaf switch index hosting server node ``node``."""
        return node // self.nodes_per_leaf

    def route(self, src: str, dst: str, *, channel: int = 0) -> list[Link]:
        if src == dst:
            return []
        src_node, _ = self._parse_gpu(src)
        dst_node, _ = self._parse_gpu(dst)
        if src_node == dst_node:
            return self.path(self._intra_route(src, dst, src_node))
        rail = channel % self.nics_per_node
        src_leaf, dst_leaf = self.leaf_of(src_node), self.leaf_of(dst_node)
        elements = [src, f"nvswitch:{src_node}", f"nic:{src_node}:{rail}",
                    f"leaf:{src_leaf}"]
        if src_leaf != dst_leaf:
            elements += [f"spine:{channel % self.num_spines}",
                         f"leaf:{dst_leaf}"]
        elements += [f"nic:{dst_node}:{rail}", f"nvswitch:{dst_node}", dst]
        return self.path(elements)


def build_topology(system: "SystemConfig") -> Topology:
    """The topology graph a system's ``network`` spec describes.

    ``flat`` has no graph (it is the Equation-1 aggregate pipe) and is
    rejected — callers should keep using the flat
    :class:`~repro.profiling.nccl.NcclModel` for it (see
    :func:`repro.network.model.nccl_model_for`).
    """
    spec = system.network_spec
    shared = dict(nvlink_bandwidth=system.gpu.nvlink_bandwidth,
                  nic_bandwidth=system.nic_bandwidth,
                  intranode_latency=system.intranode_latency,
                  internode_latency=system.internode_latency)
    if spec.kind == "rail":
        return RailOptimizedTopology(system.num_nodes, system.gpus_per_node,
                                     system.nics_per_node, **shared)
    if spec.kind == "fat-tree":
        return FatTreeTopology(system.num_nodes, system.gpus_per_node,
                               system.nics_per_node,
                               oversubscription=spec.oversubscription,
                               **shared)
    raise ConfigError(
        f"network {system.network!r} has no topology graph; the flat "
        "model is NcclModel itself")

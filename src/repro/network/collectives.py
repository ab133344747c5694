"""Collective algorithms costed from routed, load-counted plans.

Every algorithm here is costed the same way: route the flows that are
on the wire *concurrently* (source→destination paths), charge each link
for the flows crossing it — a link of bandwidth ``B`` carrying ``k``
concurrent flows delivers ``B / k`` to each — and take the slowest flow
as the step time. Serial steps then sum. This is the link-level
contention model Echo and Charon argue is needed for accurate
large-scale collectives, applied to the three All-Reduce algorithms
NCCL actually runs and to the pipeline's Send-Receive — the two kinds
of communication the graph builder emits:

* **Ring** — ``2(n-1)`` steps of neighbor exchange, payload split over
  ``channels`` parallel rings (NCCL channels map onto HCA rails, which
  is how a multi-rail node reaches its aggregate bandwidth).
* **Binomial tree** — a reduce sweep up and a broadcast sweep down,
  ``2·ceil(log2 n)`` rounds of full-payload hops; latency-optimal, so it
  wins for small payloads.
* **Two-level hierarchical** (NCCL's multi-node All-Reduce): intra-node
  reduce-scatter over NVLink, one inter-node ring per local rank over
  its own rail, intra-node all-gather.
* **Point-to-point** — one uncontended routed flow (a pipeline hop).

Routes and link loads depend only on the group, never on the payload,
so each algorithm splits in two. A payload-free :class:`StepPlan` holds
every concurrent flow's bottleneck share and summed latency; it is
routed once per topology × algorithm × members × channels and memoized
on the :class:`~repro.network.topology.Topology` (whose ``add_link``
drops it). Costing a call is then arithmetic on the plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigError
from repro.hardware.interconnect import RingParameters, log2_ceil
from repro.network.topology import Link, Topology

#: ``(src, dst, channel, parts)``: a flow to route, and how many parts
#: the step payload splits into for it (its ring length; 1 for a
#: full-payload hop).
Hop = tuple[str, str, int, int]


@dataclass(frozen=True)
class StepPlan:
    """The concurrent flows of one collective step, routed once.

    Attributes:
        flows: One ``(bandwidth, latency, parts)`` triple per distinct
            flow: its bottleneck share ``min(link.bandwidth / load)``
            over its path (``None`` for an empty path), the summed
            latency of its links, and how many parts the step payload
            splits into for it. Flows with equal triples cost the same,
            so each is kept once: the slowest of a set is the slowest of
            its distinct members.
    """

    flows: tuple[tuple[float | None, float, int], ...]

    @classmethod
    def route(cls, topology: Topology, hops: Iterable[Hop]) -> "StepPlan":
        """Route ``hops`` on ``topology`` and count every link's load."""
        paths = [(tuple(topology.route(src, dst, channel=channel)), parts)
                 for src, dst, channel, parts in hops]
        load: Counter[Link] = Counter()
        for links, _ in paths:
            load.update(links)
        flows: dict[tuple[float | None, float, int], None] = {}
        for links, parts in paths:
            bandwidth = (min(link.bandwidth / load[link] for link in links)
                         if links else None)
            latency = sum((link.latency for link in links), 0.0)
            flows[(bandwidth, latency, parts)] = None
        return cls(tuple(flows))

    def time(self, payload: float) -> float:
        """Completion time of the step when it moves ``payload``.

        A flow carries ``payload / parts`` bytes; its time is that over
        its bandwidth plus its latency, and the step ends when the
        slowest flow does.
        """
        worst = 0.0
        for bandwidth, latency, parts in self.flows:
            chunk = payload / parts
            if bandwidth is not None and chunk > 0:
                flow = chunk / bandwidth + latency
            else:
                flow = latency
            if flow > worst:
                worst = flow
        return worst


def _check_group(gpus: list[str]) -> None:
    if len(set(gpus)) != len(gpus):
        raise ConfigError("collective group has repeated members")


def _check_channels(channels: int) -> None:
    if channels < 1:
        raise ConfigError("channels must be >= 1")


def _ring_plan(topology: Topology, gpus: list[str],
               channels: int) -> StepPlan:
    """One ring step: every member sends a chunk to its successor,
    simultaneously on every channel (the step a ring All-Reduce
    repeats)."""
    def route() -> StepPlan:
        _check_group(gpus)
        _check_channels(channels)
        count = len(gpus)
        return StepPlan.route(topology, [
            (gpus[index], gpus[(index + 1) % count], channel, count)
            for channel in range(channels) for index in range(count)])
    return topology.plan(("ring", tuple(gpus), channels), route)


def _tree_plan(topology: Topology, gpus: list[str],
               channels: int) -> tuple[StepPlan, ...]:
    """The reduce rounds of a binomial tree: round ``k`` pairs members
    ``2^k`` apart, each pair exchanging the full per-channel payload."""
    def route() -> tuple[StepPlan, ...]:
        _check_group(gpus)
        _check_channels(channels)
        count = len(gpus)
        rounds = []
        for round_index in range(log2_ceil(max(count, 1))):
            distance = 1 << round_index
            rounds.append(StepPlan.route(topology, [
                (gpus[receiver + distance], gpus[receiver], channel, 1)
                for channel in range(channels)
                for receiver in range(0, count - distance, 2 * distance)]))
        return tuple(rounds)
    return topology.plan(("tree", tuple(gpus), channels), route)


def _hierarchical_plan(topology: Topology,
                       node_slots: list[list[str]]) -> StepPlan:
    """The inter-node step of the two-level All-Reduce: slot ``s`` runs
    one ring over the nodes that have it, on channel ``s`` (its own
    rail; slots sharing a rail contend)."""
    def route() -> StepPlan:
        _check_group([gpu for slots in node_slots for gpu in slots])
        hops = []
        for slot in range(max(len(slots) for slots in node_slots)):
            ring = [slots[slot] for slots in node_slots if slot < len(slots)]
            if len(ring) < 2:
                continue  # this shard lives on one node; nothing inter-node
            hops += [(ring[index], ring[(index + 1) % len(ring)], slot,
                      len(ring)) for index in range(len(ring))]
        return StepPlan.route(topology, hops)
    key = tuple(tuple(slots) for slots in node_slots)
    return topology.plan(("hierarchical", key), route)


def ring_allreduce_time(topology: Topology, gpus: list[str],
                        size_bytes: float, *, channels: int = 1) -> float:
    """Ring All-Reduce: ``2(n-1)`` neighbor-exchange steps.

    The payload is striped over ``channels`` concurrent rings (rail
    ``c`` carries ``size/channels``); within each ring a step moves one
    ``1/n`` chunk per member. All steps are identical by symmetry, so
    the total is ``2(n-1)`` times the contention-costed step.
    """
    step = _ring_plan(topology, gpus, channels)
    count = len(gpus)
    if count <= 1 or size_bytes <= 0:
        return 0.0
    return 2 * (count - 1) * step.time(size_bytes / channels)


def tree_allreduce_time(topology: Topology, gpus: list[str],
                        size_bytes: float, *, channels: int = 1) -> float:
    """Binomial-tree All-Reduce: reduce up, broadcast down.

    Round ``k`` of the reduce pairs members ``2^k`` apart; each pair
    exchanges the full (per-channel) payload. The broadcast mirrors the
    reduce, so the total is twice the summed round times — ``2·ceil(log2
    n)`` rounds against the ring's ``2(n-1)`` steps, which is why tree
    wins when latency dominates.
    """
    rounds = _tree_plan(topology, gpus, channels)
    if len(gpus) <= 1 or size_bytes <= 0:
        return 0.0
    payload = size_bytes / channels
    total = 0.0
    for step in rounds:
        total += step.time(payload)
    return 2 * total


def hierarchical_allreduce_time(topology: Topology,
                                node_slots: list[list[str]],
                                size_bytes: float, *,
                                intra_ring: RingParameters,
                                intra_interference: float = 1.0) -> float:
    """NCCL-style two-level All-Reduce over ``node_slots``.

    ``node_slots[n][s]`` is the GPU of local rank (slot) ``s`` on the
    ``n``-th participating node. Three phases:

    1. intra-node reduce-scatter of the payload over the local ranks
       (NVLink ring, from ``intra_ring``, scaled by
       ``intra_interference`` like every intra-node collective);
    2. concurrent inter-node rings — slot ``s`` All-Reduces its
       ``size/L`` shard across nodes on channel ``s`` (its own rail;
       slots sharing a rail contend, which the link-level counting
       charges automatically);
    3. intra-node all-gather of the reduced shards.

    Slot counts may be ragged (a group that does not divide evenly
    across its nodes): a slot's ring simply spans the nodes that have
    it, and the intra phases are costed at the largest local group.
    Single-node groups never reach this function — the topology-aware
    model keeps them on the profiled NVLink table, which this
    decomposition reduces to exactly (phase 2 vanishes and phases 1+3
    are the table's ring).
    """
    num_nodes = len(node_slots)
    if num_nodes < 2:
        raise ConfigError(
            "hierarchical All-Reduce needs >= 2 nodes; single-node groups "
            "use the profiled NVLink table")
    if intra_interference < 1.0:
        raise ConfigError("intra_interference must be >= 1.0")
    if any(not slots for slots in node_slots):
        raise ConfigError("every node must contribute at least one slot")
    inter_step = _hierarchical_plan(topology, node_slots)
    if size_bytes <= 0:
        return 0.0
    local = max(len(slots) for slots in node_slots)

    intra = 0.0
    if local > 1:
        intra = (intra_ring.reduce_scatter_time(size_bytes, local)
                 + intra_ring.allgather_time(size_bytes, local)
                 ) * intra_interference
    inter = 2 * (num_nodes - 1) * inter_step.time(size_bytes / local)
    return intra + inter


def point_to_point_time(topology: Topology, src: str, dst: str,
                        size_bytes: float) -> float:
    """Point-to-point transfer: one uncontended routed flow on channel 0."""
    step = topology.plan(
        ("sendrecv", src, dst),
        lambda: StepPlan.route(topology, [(src, dst, 0, 1)]))
    return step.time(size_bytes)


def flat_ring_lower_bound(bandwidth: float, size_bytes: float,
                          group_size: int) -> float:
    """Equation-1 transfer term ``S/B · 2(n-1)/n`` — the latency-free
    flat-ring time, a lower bound for any algorithm on an uncontended
    topology whose aggregate per-node egress is ``bandwidth``."""
    if group_size <= 1 or size_bytes <= 0:
        return 0.0
    return (size_bytes / bandwidth
            * 2.0 * (group_size - 1) / group_size)

"""Cluster topology and 3D-parallel rank mapping.

Implements the GPU placement of paper Figure 3: tensor-parallel groups are
consecutive GPUs within a node (NVLink domain), pipeline stages occupy
consecutive nodes, and data-parallel groups stride across pipeline blocks.
Formally a worker's global rank decomposes as::

    rank = t_idx + t * (p_idx + p * d_idx)

so GPUs [0, t) form tensor group 0 of stage 0 of replica 0, stages of one
replica are laid out contiguously, and replicas follow one another. The
topology answers the questions the communication models need: which link
type does a group use, and how many collectives contend for one node's
NICs (the Figure 3 "four data parallel groups share the same ToR switch"
discussion, which the testbed emulator models and vTrain's Equation-1
model deliberately does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.hardware.interconnect import LinkType

if TYPE_CHECKING:  # imported lazily to avoid a config <-> hardware cycle
    from repro.config.parallelism import ParallelismConfig
    from repro.config.system import SystemConfig


@dataclass(frozen=True)
class RankCoordinates:
    """Position of one GPU in the (t, d, p) grid."""

    tensor: int
    data: int
    pipeline: int


class ClusterTopology:
    """Maps 3D-parallel coordinates onto nodes and link types."""

    def __init__(self, system: "SystemConfig", plan: "ParallelismConfig") -> None:
        if plan.total_gpus > system.num_gpus:
            raise ConfigError(
                f"plan needs {plan.total_gpus} GPUs, system has "
                f"{system.num_gpus}")
        self.system = system
        self.plan = plan

    # ------------------------------------------------------------------
    # Rank arithmetic
    # ------------------------------------------------------------------
    def rank_of(self, coords: RankCoordinates) -> int:
        """Global rank of the GPU at (t_idx, d_idx, p_idx)."""
        t, p = self.plan.tensor, self.plan.pipeline
        self._check_coords(coords)
        return coords.tensor + t * (coords.pipeline + p * coords.data)

    def coords_of(self, rank: int) -> RankCoordinates:
        """Inverse of :meth:`rank_of`."""
        t, p = self.plan.tensor, self.plan.pipeline
        if not 0 <= rank < self.plan.total_gpus:
            raise ConfigError(f"rank {rank} out of range")
        t_idx = rank % t
        p_idx = (rank // t) % p
        d_idx = rank // (t * p)
        return RankCoordinates(tensor=t_idx, data=d_idx, pipeline=p_idx)

    def node_of(self, rank: int) -> int:
        """Server node hosting a global rank."""
        return rank // self.system.gpus_per_node

    def _check_coords(self, coords: RankCoordinates) -> None:
        plan = self.plan
        if not (0 <= coords.tensor < plan.tensor
                and 0 <= coords.data < plan.data
                and 0 <= coords.pipeline < plan.pipeline):
            raise ConfigError(f"coordinates {coords} outside plan {plan.way}")

    # ------------------------------------------------------------------
    # Communication groups
    # ------------------------------------------------------------------
    def tensor_group(self, d_idx: int, p_idx: int) -> list[int]:
        """Ranks of one tensor-parallel group (the yellow All-Reduce)."""
        return [self.rank_of(RankCoordinates(t, d_idx, p_idx))
                for t in range(self.plan.tensor)]

    def data_group(self, t_idx: int, p_idx: int) -> list[int]:
        """Ranks of one data-parallel group (the gray All-Reduce)."""
        return [self.rank_of(RankCoordinates(t_idx, d, p_idx))
                for d in range(self.plan.data)]

    def pipeline_group(self, t_idx: int, d_idx: int) -> list[int]:
        """Ranks of one pipeline (the orange Send-Receive chain)."""
        return [self.rank_of(RankCoordinates(t_idx, d_idx, p))
                for p in range(self.plan.pipeline)]

    def group_link(self, ranks: list[int]) -> LinkType:
        """Link type a group communicates over (intra iff one node)."""
        nodes = {self.node_of(r) for r in ranks}
        return (LinkType.INTRA_NODE if len(nodes) <= 1
                else LinkType.INTER_NODE)

    def _span_link(self, first: int, last: int) -> LinkType:
        """Link type of a group whose ranks ascend from ``first`` to
        ``last``: a node holds consecutive ranks, so the group stays on
        one node iff its two ends do. The helpers below apply it to the
        groups holding rank 0, and equal :meth:`group_link` over them
        without listing their ranks."""
        per_node = self.system.gpus_per_node
        return (LinkType.INTRA_NODE if first // per_node == last // per_node
                else LinkType.INTER_NODE)

    def tensor_link(self) -> LinkType:
        """Link type of tensor-parallel All-Reduces."""
        return self._span_link(0, self.plan.tensor - 1)

    def data_link(self) -> LinkType:
        """Link type of data-parallel gradient All-Reduces."""
        plan = self.plan
        return self._span_link(
            0, plan.tensor * plan.pipeline * (plan.data - 1))

    def pipeline_hop_link(self, p_idx: int) -> LinkType:
        """Link type of the Send-Receive between stage p_idx and p_idx+1."""
        if p_idx < 0 or p_idx >= self.plan.pipeline - 1:
            raise ConfigError(f"no pipeline hop after stage {p_idx}")
        t = self.plan.tensor
        return self._span_link(t * p_idx, t * (p_idx + 1))

    def pipeline_wrap_link(self) -> LinkType:
        """Link type of the interleaved schedule's wrap-around hop.

        Under virtual pipelining the last stage's chunk ``c`` output
        feeds the first stage's chunk ``c + 1``, so activations (and
        gradients, in reverse) travel from stage ``p-1`` back to stage
        0 — the extra P2P traffic interleaving pays for its smaller
        bubble.
        """
        if self.plan.pipeline <= 1:
            raise ConfigError("no wrap-around hop in a 1-stage pipeline")
        return self._span_link(0, self.plan.tensor * (self.plan.pipeline - 1))

    # ------------------------------------------------------------------
    # Contention diagnostics (used by the testbed emulator)
    # ------------------------------------------------------------------
    def concurrent_data_groups_per_node(self) -> int:
        """How many inter-node DP All-Reduces share one node's NICs.

        Every GPU of a node belongs to a distinct (t_idx, p_idx) DP group;
        when DP groups are inter-node, all of a node's GPUs drive the same
        HCAs simultaneously during gradient synchronisation — the dynamic
        effect the paper names as vTrain's main multi-node error source.
        """
        if self.data_link() is LinkType.INTRA_NODE:
            return 1
        return min(self.system.gpus_per_node, self.plan.tensor * self.plan.pipeline)

    def num_nodes_used(self) -> int:
        """Number of distinct server nodes touched by the plan."""
        per_node = self.system.gpus_per_node
        return (self.plan.total_gpus + per_node - 1) // per_node

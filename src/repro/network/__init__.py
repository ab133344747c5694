"""Topology-aware network & collective-algorithm subsystem.

Models the inter-node fabric as an explicit graph (NVSwitch nodes on a
rail-optimized fabric or an oversubscribed fat tree), costs the two
kinds of communication the graph builder emits — All-Reduce and the
pipeline's Send-Receive — by walking routed paths with per-link
contention counting (routed once per group into payload-free plans),
auto-selects among ring / binomial-tree / two-level hierarchical
All-Reduce the way NCCL's tuning does, and packages the whole thing as
:class:`TopologyAwareNcclModel` — a drop-in behind the flat
:class:`~repro.profiling.nccl.NcclModel` selected per system via
``SystemConfig.network`` (``flat`` / ``rail`` / ``fat-tree:<ratio>``).
"""

from repro.network.collectives import (StepPlan, flat_ring_lower_bound,
                                       hierarchical_allreduce_time,
                                       point_to_point_time,
                                       ring_allreduce_time,
                                       tree_allreduce_time)
from repro.network.model import (GroupPlacement, TopologyAwareNcclModel,
                                 nccl_model_for, place_group)
from repro.network.selection import (CollectiveAlgorithm, select_algorithm,
                                     tree_threshold)
from repro.network.topology import (FatTreeTopology, Link,
                                    RailOptimizedTopology, Topology,
                                    build_topology, gpu_id)

__all__ = [
    "CollectiveAlgorithm",
    "FatTreeTopology",
    "GroupPlacement",
    "Link",
    "RailOptimizedTopology",
    "StepPlan",
    "Topology",
    "TopologyAwareNcclModel",
    "build_topology",
    "flat_ring_lower_bound",
    "gpu_id",
    "hierarchical_allreduce_time",
    "nccl_model_for",
    "place_group",
    "point_to_point_time",
    "ring_allreduce_time",
    "select_algorithm",
    "tree_allreduce_time",
    "tree_threshold",
]

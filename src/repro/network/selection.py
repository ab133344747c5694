"""Collective-algorithm auto-selection (NCCL tuning, qualitatively).

NCCL picks its algorithm/protocol per call from payload size and
communicator shape; this module mirrors the decisions that matter at
simulation granularity:

* groups spanning several nodes with several ranks per node take the
  **two-level hierarchical** All-Reduce (intra reduce-scatter, inter
  rings over rails, intra all-gather) — NCCL's multi-node default;
* small payloads take the **binomial tree** (``2·log2 n`` latency-bound
  rounds beat the ring's ``2(n-1)``), with the crossover growing with
  group size exactly as NCCL's tuning tables shift tree-ward at scale;
* everything else takes the bandwidth-optimal **ring**.
"""

from __future__ import annotations

import enum

from repro import obs
from repro.errors import ConfigError
from repro.hardware.interconnect import log2_ceil

MIB = float(1 << 20)

#: Base ring/tree crossover payload for a 2-member group; the effective
#: threshold scales with ``log2(group_size)`` (see NCCL's tuning model,
#: where tree stays competitive to larger payloads as the ring lengthens).
TREE_THRESHOLD_BYTES = 1.0 * MIB


class CollectiveAlgorithm(enum.Enum):
    """Algorithms the cost model can select between."""

    RING = "ring"
    TREE = "tree"
    HIERARCHICAL = "hierarchical"


def tree_threshold(group_size: int) -> float:
    """Payload up to which the tree is selected for this group.

    An upper bound on the tree/ring crossover, not the crossover itself:
    :class:`~repro.network.model.TopologyAwareNcclModel` charges a
    selected tree only where it beats the ring on the actual topology.
    """
    if group_size < 2:
        return 0.0
    return TREE_THRESHOLD_BYTES * log2_ceil(group_size)


def select_algorithm(size_bytes: float, group_size: int, *,
                     nodes_spanned: int,
                     ranks_per_node: int = 1) -> CollectiveAlgorithm:
    """Choose the algorithm for one inter-node collective.

    Args:
        size_bytes: Collective payload.
        group_size: Total participating ranks.
        nodes_spanned: Distinct server nodes the group touches.
        ranks_per_node: Group members co-located on each node.
    """
    if group_size < 2:
        raise ConfigError("selection needs group_size >= 2")
    if nodes_spanned < 1 or ranks_per_node < 1:
        raise ConfigError("nodes_spanned and ranks_per_node must be >= 1")
    if nodes_spanned > 1 and ranks_per_node > 1:
        algorithm = CollectiveAlgorithm.HIERARCHICAL
    elif size_bytes <= tree_threshold(group_size):
        algorithm = CollectiveAlgorithm.TREE
    else:
        algorithm = CollectiveAlgorithm.RING
    if obs.enabled():
        obs.count(f"network.select.{algorithm.value}")
    return algorithm

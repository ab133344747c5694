"""Interconnect link models: NVLink/NVSwitch and InfiniBand.

The simulator distinguishes intra-node communication (NVLink/NVSwitch,
profile-table driven — Section III-D) from inter-node communication (the
Equation-1 latency–bandwidth model). This module provides the link-level
primitives both models are built from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # imported lazily to avoid a config <-> hardware cycle
    from repro.config.system import SystemConfig


class LinkType(enum.Enum):
    """Where a communication group lives."""

    INTRA_NODE = "nvlink"
    INTER_NODE = "infiniband"


@dataclass(frozen=True)
class RingParameters:
    """Ring-collective parameters for one group on one link type.

    Attributes:
        bus_bandwidth: Per-rank bus bandwidth in bytes/s (the NCCL "busbw"
            convention: an All-Reduce of S bytes over n ranks moves
            ``2(n-1)/n * S`` bytes through each rank).
        base_latency: Fixed per-collective startup latency (seconds).
        hop_latency: Additional latency per ring hop (seconds).
    """

    bus_bandwidth: float
    base_latency: float
    hop_latency: float

    def allreduce_time(self, size_bytes: float, group_size: int) -> float:
        """Ring All-Reduce latency for ``size_bytes`` over the group.

        This is the paper's Equation 1, ``t = S/B * 2(n-1)/n``, plus the
        startup/hop latency terms that dominate at small sizes.
        """
        if group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if group_size == 1 or size_bytes <= 0:
            return 0.0
        transfer = (size_bytes / self.bus_bandwidth
                    * 2.0 * (group_size - 1) / group_size)
        latency = self.base_latency + self.hop_latency * 2 * (group_size - 1)
        return transfer + latency

    def allgather_time(self, size_bytes: float, group_size: int) -> float:
        """Ring All-Gather: each rank receives (n-1)/n of the payload
        (the hierarchical All-Reduce's last intra-node phase)."""
        if group_size <= 1 or size_bytes <= 0:
            return 0.0
        transfer = (size_bytes / self.bus_bandwidth
                    * (group_size - 1) / group_size)
        latency = self.base_latency + self.hop_latency * (group_size - 1)
        return transfer + latency

    def reduce_scatter_time(self, size_bytes: float, group_size: int) -> float:
        """Ring Reduce-Scatter (same wire traffic as All-Gather; the
        hierarchical All-Reduce's first intra-node phase)."""
        return self.allgather_time(size_bytes, group_size)


#: Lower bound on NVLink ring efficiency. The linear protocol-overhead
#: term is fit to 8–16 GPU NVSwitch domains; without a floor it would
#: degrade without bound (and go negative past 200 GPUs) on large
#: NVL-domain systems.
NVLINK_EFFICIENCY_FLOOR = 0.5


def nvlink_ring(system: "SystemConfig", group_size: int) -> RingParameters:
    """NVLink/NVSwitch ring parameters for an intra-node group.

    The bus bandwidth saturates toward ~80 % of the per-GPU NVLink rate as
    the ring grows (protocol overhead grows with ring length); a 2-GPU
    "ring" is direct P2P and slightly more efficient. The resulting 8-GPU
    All-Reduce busbw (~230 GB/s on A100/NVSwitch) matches published
    nccl-tests numbers, which is what the paper profiles. Efficiency is
    clamped at :data:`NVLINK_EFFICIENCY_FLOOR` for very large domains.
    """
    if group_size < 1:
        raise ConfigError("group_size must be >= 1")
    efficiency = (0.88 if group_size <= 2
                  else max(NVLINK_EFFICIENCY_FLOOR,
                           0.80 - 0.004 * (group_size - 2)))
    return RingParameters(
        bus_bandwidth=system.gpu.nvlink_bandwidth * efficiency,
        base_latency=system.intranode_latency,
        hop_latency=1.0e-6,
    )


def infiniband_ring(system: "SystemConfig") -> RingParameters:
    """Inter-node ring parameters from the Equation-1 model.

    ``B = alpha * Bmax`` where Bmax is the node's aggregate NIC bandwidth
    (800 Gbps for the paper's four HDR HCAs) and alpha is the
    bandwidth-effectiveness factor swept in Section IV.
    """
    return RingParameters(
        bus_bandwidth=system.effective_internode_bandwidth,
        base_latency=system.internode_latency,
        hop_latency=2.0e-6,
    )


def p2p_time(system: "SystemConfig", size_bytes: float,
             link: LinkType) -> float:
    """Point-to-point Send-Receive latency (pipeline-stage boundaries).

    The paper notes P2P exchanges are "less sensitive to the interconnect
    bandwidth"; an inter-node P2P rides a single HCA
    (``internode_bandwidth / nics_per_node``), an intra-node P2P rides
    NVLink.
    """
    if size_bytes < 0:
        raise ConfigError("size_bytes must be non-negative")
    if size_bytes == 0:
        return 0.0
    if link is LinkType.INTRA_NODE:
        bandwidth = system.gpu.nvlink_bandwidth * 0.88
        latency = system.intranode_latency
    else:
        bandwidth = system.nic_bandwidth
        latency = system.internode_latency
    return size_bytes / bandwidth + latency


def log2_ceil(value: int) -> int:
    """Smallest integer ``e`` with ``2**e >= value`` (tree-latency helper)."""
    if value <= 0:
        raise ConfigError("value must be positive")
    return max(0, math.ceil(math.log2(value)))

"""Training-system configuration.

Describes the cluster hardware a training plan runs on: GPUs per node, the
GPU device itself, and the intra-/inter-node interconnects. This is the
"system configuration" half of vTrain's input description file (Figure 4).

The defaults mirror the paper's validation cluster (Section IV): DGX-A100
style nodes with 8 A100s on NVLink/NVSwitch, inter-node communication over
four 200 Gbps InfiniBand HCAs in a two-level non-blocking fat tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.hardware.gpu import A100_80GB, GPUSpec, gpu_by_name

GBPS = 1e9 / 8.0  # 1 Gbit/s in bytes/s

#: Network kinds understood by :class:`NetworkSpec` (and the
#: ``repro dse --network`` flag). ``flat`` is the paper's Equation-1
#: aggregate-pipe model; the others select a topology-aware backend from
#: :mod:`repro.network`.
NETWORK_KINDS = ("flat", "rail", "fat-tree")


@dataclass(frozen=True)
class NetworkSpec:
    """Parsed form of a ``network`` string (``flat``, ``rail``,
    ``fat-tree`` or ``fat-tree:<ratio>``).

    Attributes:
        kind: One of :data:`NETWORK_KINDS`.
        oversubscription: Fat-tree uplink oversubscription ratio (1.0 is
            non-blocking; 4.0 means each leaf's uplink capacity is a
            quarter of its downlink capacity). Always 1.0 for ``flat``
            and ``rail``.
    """

    kind: str
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in NETWORK_KINDS:
            raise ConfigError(
                f"unknown network kind {self.kind!r} "
                f"(expected one of {', '.join(NETWORK_KINDS)})")
        if not (math.isfinite(self.oversubscription)
                and self.oversubscription >= 1.0):
            raise ConfigError(
                "oversubscription ratio must be a finite value >= 1.0")
        if self.kind != "fat-tree" and self.oversubscription != 1.0:
            raise ConfigError(
                f"{self.kind!r} networks take no oversubscription ratio")

    @classmethod
    def parse(cls, spec: str) -> "NetworkSpec":
        """Parse a network spec string (the CLI / config-file syntax)."""
        if not isinstance(spec, str) or not spec:
            raise ConfigError(f"invalid network spec {spec!r}")
        kind, _, ratio = spec.partition(":")
        if not ratio:
            return cls(kind=kind)
        if kind != "fat-tree":
            raise ConfigError(
                f"only fat-tree networks take a ratio, got {spec!r}")
        try:
            oversubscription = float(ratio)
        except ValueError as exc:
            raise ConfigError(
                f"invalid oversubscription ratio in {spec!r}") from exc
        return cls(kind=kind, oversubscription=oversubscription)

    def canonical(self) -> str:
        """The spec string this parses back from."""
        if self.kind == "fat-tree" and self.oversubscription != 1.0:
            return f"fat-tree:{self.oversubscription:g}"
        return self.kind


@dataclass(frozen=True)
class SystemConfig:
    """A multi-node GPU training system.

    Attributes:
        num_gpus: Total GPU count available to the training job.
        gpus_per_node: GPUs within one server node (NVLink domain).
        gpu: Device specification for every GPU in the system.
        internode_bandwidth: Aggregate inter-node bandwidth per node in
            bytes/s. The paper's cluster has four 200 Gbps HDR InfiniBand
            HCAs per node, i.e. 800 Gbps = 100 GB/s.
        internode_latency: Base latency of one inter-node message (seconds).
        bandwidth_effectiveness: The paper's alpha tuning knob (Section IV):
            the effective inter-node bandwidth is ``alpha * max bandwidth``.
            The paper found alpha = 1.0 minimised error on its cluster.
        intranode_latency: Base latency of one NVLink/NVSwitch transfer.
        nics_per_node: InfiniBand HCAs per node. ``internode_bandwidth``
            is the node aggregate, so one HCA carries
            ``internode_bandwidth / nics_per_node`` (the paper's cluster:
            four 200 Gbps HDR HCAs).
        network: Inter-node fabric spec — ``flat`` (the paper's
            Equation-1 aggregate pipe), ``rail`` (rail-optimized,
            NVSwitch + one non-blocking switch per HCA rail) or
            ``fat-tree:<ratio>`` (2-level fat tree with the given
            uplink oversubscription). Non-flat specs route collectives
            through :mod:`repro.network`.
    """

    num_gpus: int
    gpus_per_node: int = 8
    gpu: GPUSpec = field(default=A100_80GB)
    internode_bandwidth: float = 800 * GBPS
    internode_latency: float = 5e-6
    bandwidth_effectiveness: float = 1.0
    intranode_latency: float = 3e-6
    nics_per_node: int = 4
    network: str = "flat"

    def __post_init__(self) -> None:
        # Range checks below let NaN through (every comparison with it
        # is false), and a NaN latency becomes a NaN prediction.
        for name in ("num_gpus", "gpus_per_node", "internode_bandwidth",
                     "internode_latency", "bandwidth_effectiveness",
                     "intranode_latency", "nics_per_node"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.num_gpus <= 0:
            raise ConfigError("num_gpus must be positive")
        if self.gpus_per_node <= 0:
            raise ConfigError("gpus_per_node must be positive")
        if self.num_gpus % self.gpus_per_node and self.num_gpus > self.gpus_per_node:
            raise ConfigError(
                f"num_gpus ({self.num_gpus}) must be a multiple of "
                f"gpus_per_node ({self.gpus_per_node})")
        if not 0.0 < self.bandwidth_effectiveness <= 1.0:
            raise ConfigError("bandwidth_effectiveness must be in (0, 1]")
        if self.internode_bandwidth <= 0:
            raise ConfigError("internode_bandwidth must be positive")
        if self.nics_per_node <= 0:
            raise ConfigError("nics_per_node must be positive")
        # Reject bad specs eagerly and store the canonical spelling
        # ("fat-tree:1" -> "fat-tree") so equal fabrics compare equal and
        # serialization round-trips.
        object.__setattr__(self, "network",
                           NetworkSpec.parse(self.network).canonical())

    @property
    def num_nodes(self) -> int:
        """Number of server nodes (at least one)."""
        return max(1, self.num_gpus // self.gpus_per_node)

    @property
    def effective_internode_bandwidth(self) -> float:
        """``alpha * Bmax`` — the Equation-1 effective bandwidth."""
        return self.bandwidth_effectiveness * self.internode_bandwidth

    @property
    def nic_bandwidth(self) -> float:
        """Effective bandwidth of one HCA (alpha applied, per rail)."""
        return self.effective_internode_bandwidth / self.nics_per_node

    @property
    def network_spec(self) -> NetworkSpec:
        """Parsed form of the ``network`` field."""
        return NetworkSpec.parse(self.network)

    def peak_system_flops(self) -> float:
        """Aggregate peak FP16 throughput across all GPUs (FLOP/s)."""
        return self.num_gpus * self.gpu.peak_fp16_flops

    def with_gpus(self, num_gpus: int) -> "SystemConfig":
        """Copy of this system resized to ``num_gpus`` GPUs."""
        return replace(self, num_gpus=num_gpus)

    def describe(self) -> str:
        """One-line summary used in logs and benchmark tables."""
        return (f"{self.num_gpus}x {self.gpu.name} "
                f"({self.num_nodes} nodes x {self.gpus_per_node} GPUs, "
                f"{self.internode_bandwidth / GBPS:.0f} Gbps inter-node)")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; the GPU is stored by its registry name.

        ``nics_per_node`` and ``network`` are emitted only when they
        differ from their defaults: the dict feeds the prediction-cache
        fingerprint (:func:`repro.dse.cache.fingerprint`), and a default
        ``flat``/4-HCA system must keep producing the exact payload it
        produced before these fields existed, so caches written by
        earlier versions stay valid.
        """
        payload = {
            "num_gpus": self.num_gpus,
            "gpus_per_node": self.gpus_per_node,
            "gpu": self.gpu.name,
            "internode_bandwidth": self.internode_bandwidth,
            "internode_latency": self.internode_latency,
            "bandwidth_effectiveness": self.bandwidth_effectiveness,
            "intranode_latency": self.intranode_latency,
        }
        if self.nics_per_node != 4:
            payload["nics_per_node"] = self.nics_per_node
        if self.network != "flat":
            payload["network"] = self.network  # canonical since __post_init__
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SystemConfig":
        """Inverse of :meth:`to_dict`; raises ConfigError on bad input."""
        raw = dict(payload)
        gpu_name = raw.pop("gpu", A100_80GB.name)
        try:
            return cls(gpu=gpu_by_name(gpu_name), **raw)
        except TypeError as exc:
            raise ConfigError(f"invalid system config: {exc}") from exc


def single_node(gpus_per_node: int = 8, gpu: GPUSpec = A100_80GB) -> SystemConfig:
    """A single server node — the paper's p4d validation setup (Fig. 9a)."""
    return SystemConfig(num_gpus=gpus_per_node, gpus_per_node=gpus_per_node,
                        gpu=gpu)


def multi_node(num_nodes: int, gpus_per_node: int = 8,
               gpu: GPUSpec = A100_80GB,
               network: str = "flat") -> SystemConfig:
    """A cluster of ``num_nodes`` nodes (Fig. 9b uses 64).

    ``network`` selects the inter-node fabric model (``flat``, ``rail``
    or ``fat-tree:<ratio>``); ``flat`` reproduces the paper's Equation-1
    aggregate-pipe behavior exactly.
    """
    if num_nodes <= 0:
        raise ConfigError("num_nodes must be positive")
    return SystemConfig(num_gpus=num_nodes * gpus_per_node,
                        gpus_per_node=gpus_per_node, gpu=gpu,
                        network=network)

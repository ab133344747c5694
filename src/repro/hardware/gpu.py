"""GPU device specifications.

The paper targets NVIDIA A100 GPUs (AWS p4d instances for single-node
validation, DGX A100 nodes for the 512-GPU cluster). Because this
reproduction has no physical GPU, the specification below feeds a
deterministic analytical device model (:mod:`repro.hardware.kernels`) that
stands in for CUPTI profiling — see README.md, "Substitutions".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

GIGA = 1e9
TERA = 1e12
GIB = float(1 << 30)


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU device.

    Attributes:
        name: Marketing name, e.g. ``"A100-SXM4-80GB"``.
        peak_fp16_flops: Dense FP16/BF16 tensor-core throughput (FLOP/s).
        memory_bytes: HBM capacity in bytes.
        memory_bandwidth: HBM bandwidth (bytes/s).
        num_sms: Number of streaming multiprocessors (used by the GEMM
            wave-quantization model).
        kernel_launch_overhead: Fixed host-side latency per kernel launch
            (seconds). The paper notes NCCL kernel-launch overheads as an
            unmodelled error source; the testbed emulator applies this,
            while vTrain's predictor ignores it — reproducing that gap.
        nvlink_bandwidth: Per-GPU aggregate NVLink bandwidth (bytes/s,
            unidirectional) through NVSwitch.
    """

    name: str
    peak_fp16_flops: float
    memory_bytes: float
    memory_bandwidth: float
    num_sms: int
    kernel_launch_overhead: float
    nvlink_bandwidth: float

    def __post_init__(self) -> None:
        numeric_fields = ("peak_fp16_flops", "memory_bytes", "memory_bandwidth",
                          "kernel_launch_overhead", "nvlink_bandwidth")
        for field in numeric_fields + ("num_sms",):
            value = getattr(self, field)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{field} must be finite, got {value!r}")
        for field in numeric_fields:
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be non-negative")
        if self.num_sms <= 0:
            raise ConfigError("num_sms must be positive")

    @property
    def memory_gib(self) -> float:
        """HBM capacity in GiB (for reporting)."""
        return self.memory_bytes / GIB


#: NVIDIA A100 SXM4 80 GB — the DGX A100 part used by the paper's multi-node
#: validation cluster and by MT-NLG's training system (Selene).
A100_80GB = GPUSpec(
    name="A100-SXM4-80GB",
    peak_fp16_flops=312 * TERA,
    memory_bytes=80 * GIB,
    memory_bandwidth=2039 * GIGA,
    num_sms=108,
    kernel_launch_overhead=4e-6,
    nvlink_bandwidth=300 * GIGA,
)

#: NVIDIA A100 SXM4 40 GB — the AWS p4d.24xlarge part used for the paper's
#: single-node validation and for pricing (Table I uses p4d cost as proxy).
A100_40GB = GPUSpec(
    name="A100-SXM4-40GB",
    peak_fp16_flops=312 * TERA,
    memory_bytes=40 * GIB,
    memory_bandwidth=1555 * GIGA,
    num_sms=108,
    kernel_launch_overhead=4e-6,
    nvlink_bandwidth=300 * GIGA,
)

#: NVIDIA V100 SXM2 32 GB — provided for cross-generation studies; the
#: profiling pipeline is device-agnostic, which is one of vTrain's selling
#: points versus purely analytical models (Table V discussion).
V100_32GB = GPUSpec(
    name="V100-SXM2-32GB",
    peak_fp16_flops=125 * TERA,
    memory_bytes=32 * GIB,
    memory_bandwidth=900 * GIGA,
    num_sms=80,
    kernel_launch_overhead=5e-6,
    nvlink_bandwidth=150 * GIGA,
)

#: NVIDIA H100 SXM5 80 GB — "future hardware" option for extension studies.
H100_80GB = GPUSpec(
    name="H100-SXM5-80GB",
    peak_fp16_flops=989 * TERA,
    memory_bytes=80 * GIB,
    memory_bandwidth=3350 * GIGA,
    num_sms=132,
    kernel_launch_overhead=4e-6,
    nvlink_bandwidth=450 * GIGA,
)

KNOWN_GPUS = {
    spec.name: spec for spec in (A100_80GB, A100_40GB, V100_32GB, H100_80GB)
}


def gpu_by_name(name: str) -> GPUSpec:
    """Look up a GPU spec by its marketing name.

    Raises:
        ConfigError: If the name is unknown.
    """
    try:
        return KNOWN_GPUS[name]
    except KeyError:
        known = ", ".join(sorted(KNOWN_GPUS))
        raise ConfigError(f"unknown GPU {name!r}; known: {known}") from None

"""Deterministic analytical GPU kernel-timing model.

This module is the substitution for the paper's CUPTI profiling of real
CUDA kernels on an A100 (README.md, "Substitutions"). It models each kernel
class the way the hardware behaves:

* **GEMM kernels** use a roofline with tile and wave quantization: the GEMM
  is decomposed into output tiles, tiles are scheduled in waves across the
  SMs, and efficiency degrades for shapes that leave SMs idle in the last
  wave, for partial edge tiles, and for short accumulation (small-k) GEMMs.
  The sustained-efficiency ceiling is calibrated so large Megatron-shaped
  FP16 GEMMs achieve ~60 % of peak, which puts end-to-end MT-NLG GPU
  utilization in the paper's observed 40–45 % band (Table I).
* **Element-wise kernels** (bias add, GeLU, dropout, residual) are
  memory-bandwidth bound.
* **Reduction kernels** (LayerNorm, softmax, cross-entropy) are
  memory-bound multi-pass sweeps.
* **Optimizer kernels** (fused Adam) stream parameter state.

Every duration is a pure function of the kernel shape and the
:class:`~repro.hardware.gpu.GPUSpec` — deterministic and reproducible, the
property the paper exploits ("the execution time of each individual LLM
graph node over a target GPU architecture is highly deterministic").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.gpu import GPUSpec

FP16_BYTES = 2
FP32_BYTES = 4


class KernelKind(enum.Enum):
    """Coarse kernel taxonomy used for breakdown reporting."""

    GEMM = "gemm"
    BATCHED_GEMM = "batched_gemm"
    ELEMENTWISE = "elementwise"
    REDUCTION = "reduction"
    EMBEDDING = "embedding"
    OPTIMIZER = "optimizer"


@dataclass(frozen=True)
class Kernel:
    """A single timed CUDA kernel, as CUPTI would report it.

    Attributes:
        name: CUDA-kernel-style name (e.g.
            ``ampere_fp16_s16816gemm_fp16_128x128_ldg8_f2f_tn``).
        kind: Coarse taxonomy bucket.
        duration: Device execution time in seconds.
        flops: Floating-point operations performed.
        bytes_accessed: DRAM traffic in bytes.
    """

    name: str
    kind: KernelKind
    duration: float
    flops: float
    bytes_accessed: float

    def scaled(self, factor: float) -> "Kernel":
        """Copy with duration multiplied by ``factor`` (testbed jitter)."""
        return Kernel(self.name, self.kind, self.duration * factor,
                      self.flops, self.bytes_accessed)


#: Candidate cuBLAS-style thread-block output tiles (M-tile, N-tile). The
#: device model evaluates each candidate and keeps the fastest, mirroring
#: the cuBLAS heuristic selector.
GEMM_TILE_CANDIDATES = ((256, 128), (128, 128), (128, 64), (64, 64), (64, 32))


class DeviceModel:
    """Times kernels on one GPU, standing in for CUPTI measurements.

    Args:
        spec: The GPU to model.
        max_gemm_efficiency: Sustained tensor-core fraction of peak for an
            ideally-shaped GEMM. Calibrated (0.62) against public A100
            cuBLAS HGEMM measurements for transformer-sized operands.
        sustained_memory_fraction: Achievable fraction of peak HBM
            bandwidth for streaming kernels.
        device_overhead: Fixed per-kernel device-side ramp time (seconds);
            distinct from host launch overhead, which only the testbed
            emulator adds (Section IV error discussion).
        gemm_k_ramp: Accumulation-depth constant: a GEMM with reduction
            dimension k reaches ``k / (k + gemm_k_ramp)`` of the ceiling,
            modelling main-loop prologue/epilogue overhead for shallow k.
    """

    def __init__(self, spec: GPUSpec, *,
                 max_gemm_efficiency: float = 0.62,
                 sustained_memory_fraction: float = 0.82,
                 device_overhead: float = 1.5e-6,
                 gemm_k_ramp: float = 192.0) -> None:
        if not 0.0 < max_gemm_efficiency <= 1.0:
            raise ConfigError("max_gemm_efficiency must be in (0, 1]")
        if not 0.0 < sustained_memory_fraction <= 1.0:
            raise ConfigError("sustained_memory_fraction must be in (0, 1]")
        self.spec = spec
        self.max_gemm_efficiency = max_gemm_efficiency
        self.sustained_memory_fraction = sustained_memory_fraction
        self.device_overhead = device_overhead
        self.gemm_k_ramp = gemm_k_ramp

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------
    @property
    def effective_bandwidth(self) -> float:
        """Sustained HBM bandwidth (bytes/s)."""
        return self.spec.memory_bandwidth * self.sustained_memory_fraction

    @property
    def per_sm_flops(self) -> float:
        """Peak FP16 FLOP/s of one SM."""
        return self.spec.peak_fp16_flops / self.spec.num_sms

    # ------------------------------------------------------------------
    # GEMM
    # ------------------------------------------------------------------
    def gemm(self, m: int, n: int, k: int, *, batch: int = 1,
             layout: str = "tn", name_hint: str = "") -> Kernel:
        """Time a (possibly batched) FP16 GEMM of shape ``m x n x k``.

        The returned duration is ``max(compute, memory) + overhead`` where
        compute accounts for tile/wave quantization over the SM array.
        """
        if min(m, n, k, batch) <= 0:
            raise ConfigError(f"GEMM dims must be positive: {(m, n, k, batch)}")
        flops = 2.0 * m * n * k * batch
        bytes_accessed = FP16_BYTES * batch * (m * k + k * n + 2 * m * n)
        memory_time = bytes_accessed / self.effective_bandwidth

        k_efficiency = k / (k + self.gemm_k_ramp)
        best_time = math.inf
        best_tile = GEMM_TILE_CANDIDATES[0]
        for tile_m, tile_n in GEMM_TILE_CANDIDATES:
            tiles = math.ceil(m / tile_m) * math.ceil(n / tile_n) * batch
            waves = math.ceil(tiles / self.spec.num_sms)
            tile_flops = 2.0 * tile_m * tile_n * k
            tile_time = tile_flops / (self.per_sm_flops
                                      * self.max_gemm_efficiency
                                      * k_efficiency)
            compute_time = waves * tile_time
            if compute_time < best_time:
                best_time = compute_time
                best_tile = (tile_m, tile_n)

        duration = max(best_time, memory_time) + self.device_overhead
        kind = KernelKind.BATCHED_GEMM if batch > 1 else KernelKind.GEMM
        name = self._gemm_name(best_tile, layout, batch, name_hint)
        return Kernel(name, kind, duration, flops, bytes_accessed)

    def _gemm_name(self, tile: tuple[int, int], layout: str, batch: int,
                   hint: str) -> str:
        """Generate a cuBLAS-flavoured kernel name for traces."""
        prefix = "ampere_fp16_s16816gemm_fp16"
        stem = f"{prefix}_{tile[0]}x{tile[1]}_ldg8_f2f_stages_64x3_{layout}"
        if batch > 1:
            stem += "_batched"
        if hint:
            stem += f"__{hint}"
        return stem

    # ------------------------------------------------------------------
    # Memory-bound kernels
    # ------------------------------------------------------------------
    def elementwise(self, num_elements: float, *, name: str,
                    reads: int = 1, writes: int = 1,
                    element_bytes: int = FP16_BYTES) -> Kernel:
        """Time a streaming element-wise kernel (bias, GeLU, dropout...)."""
        if num_elements <= 0:
            raise ConfigError("num_elements must be positive")
        bytes_accessed = num_elements * element_bytes * (reads + writes)
        duration = bytes_accessed / self.effective_bandwidth + self.device_overhead
        return Kernel(name, KernelKind.ELEMENTWISE, duration,
                      flops=float(num_elements), bytes_accessed=bytes_accessed)

    def reduction(self, rows: float, cols: float, *, name: str,
                  passes: float = 2.0,
                  element_bytes: int = FP16_BYTES) -> Kernel:
        """Time a row-wise reduction kernel (LayerNorm, softmax, loss).

        ``passes`` is the number of times each element crosses DRAM; a
        two-pass LayerNorm is ~2.5 (stats + normalize + write), a softmax
        ~3 (max, exp-sum, scale).
        """
        if rows <= 0 or cols <= 0:
            raise ConfigError("rows/cols must be positive")
        bytes_accessed = rows * cols * element_bytes * passes
        duration = bytes_accessed / self.effective_bandwidth + self.device_overhead
        return Kernel(name, KernelKind.REDUCTION, duration,
                      flops=rows * cols * passes, bytes_accessed=bytes_accessed)

    def embedding_lookup(self, tokens: int, hidden: int, *,
                         name: str = "embedding_lookup_kernel") -> Kernel:
        """Time an embedding gather (read row + write output per token)."""
        bytes_accessed = 2.0 * tokens * hidden * FP16_BYTES
        duration = bytes_accessed / self.effective_bandwidth + self.device_overhead
        return Kernel(name, KernelKind.EMBEDDING, duration,
                      flops=float(tokens * hidden),
                      bytes_accessed=bytes_accessed)

    def optimizer_update(self, num_params: float, *,
                         name: str = "multi_tensor_adam_kernel") -> Kernel:
        """Time a fused mixed-precision Adam step over ``num_params``.

        Traffic per parameter: read fp16 grad (2B) + fp32 master weight,
        momentum, variance (12B); write fp32 master, momentum, variance
        (12B) + fp16 weight (2B) = 28 bytes.
        """
        if num_params <= 0:
            raise ConfigError("num_params must be positive")
        bytes_accessed = 28.0 * num_params
        duration = bytes_accessed / self.effective_bandwidth + self.device_overhead
        return Kernel(name, KernelKind.OPTIMIZER, duration,
                      flops=10.0 * num_params, bytes_accessed=bytes_accessed)

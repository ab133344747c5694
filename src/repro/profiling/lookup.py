"""Operator-to-task lookup table (paper Figure 4, steps 3-4).

Maps a computation operator's *signature* to the list of CUDA kernels
(tasks) it executes and their profiled durations. The table embodies the
paper's key profiling-cost optimisation (Section III-C): because LLMs
stack identically-shaped decoder layers, partitioned evenly across GPUs,
only one representative of each signature — a *necessary operator* — ever
needs profiling. For an LLM with L layers and N_MB micro-batches the
naive cost is O(L x N_MB) profiles; the table makes it O(1).

Profiles depend only on the GPU, so :func:`profile_table` keeps one
table per GPU for the whole process.
"""

from __future__ import annotations

import functools

from repro.graph.operators import CompOperator
from repro.hardware.gpu import GPUSpec
from repro.hardware.kernels import DeviceModel, Kernel
from repro.profiling.cupti import CuptiTracer

#: Profile tables :func:`profile_table` keeps, one per GPU, least
#: recently used first out: the four GPU presets and four variants, at
#: ~2 KB per profiled shape (0.4 MB for dse_sweep's 190; tracemalloc).
PROFILE_TABLES = 8


class OperatorToTaskTable:
    """Caches operator -> (kernels, total duration), profiling on miss.

    ``tracer`` profiles each miss on its device model. Simulators take
    their table from :func:`profile_table`, which shares one per GPU.
    Threads that miss one signature at once profile it twice, with
    equal kernels, and the counters count both.
    """

    def __init__(self, tracer: CuptiTracer) -> None:
        self.tracer = tracer
        self._table: dict[tuple, tuple[tuple[Kernel, ...], float]] = {}
        self._hits = 0
        self._misses = 0

    def tasks_for(self, op: CompOperator) -> tuple[Kernel, ...]:
        """Kernels for ``op``, profiling the first representative only.

        The only place an operator is profiled; its kernel-duration
        total is stored with the kernels for :meth:`duration_of`.
        """
        key = op.signature
        cached = self._table.get(key)
        if cached is not None:
            self._hits += 1
            return cached[0]
        self._misses += 1
        kernels = self.tracer.trace_operator(op)
        self._table[key] = (kernels,
                            sum(kernel.duration for kernel in kernels))
        return kernels

    def cached_duration(self, signature: tuple) -> float | None:
        """Total device time profiled under ``signature``, or ``None``
        before its operator's first sighting (a probe that builds no
        operator; a hit counts in :attr:`num_reused`)."""
        cached = self._table.get(signature)
        if cached is None:
            return None
        self._hits += 1
        return cached[1]

    def duration_of(self, op: CompOperator) -> float:
        """Total device time of ``op`` (its kernels run back-to-back),
        summed once when the operator was profiled."""
        cached = self._table.get(op.signature)
        if cached is None:
            self.tasks_for(op)
            return self._table[op.signature][1]
        self._hits += 1
        return cached[1]

    # ------------------------------------------------------------------
    # Introspection (tested to demonstrate the O(1) property)
    # ------------------------------------------------------------------
    @property
    def num_profiled(self) -> int:
        """Necessary operators profiled so far (cache misses)."""
        return self._misses

    @property
    def num_reused(self) -> int:
        """Lookups served from the table (cache hits)."""
        return self._hits

    @property
    def signatures(self) -> tuple[tuple, ...]:
        """All signatures currently in the table."""
        return tuple(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, op: CompOperator) -> bool:
        return op.signature in self._table


@functools.lru_cache(maxsize=PROFILE_TABLES)
def profile_table(gpu: GPUSpec) -> OperatorToTaskTable:
    """The process's profile table for ``gpu``, on a CUPTI tracer over
    that GPU's device model (built on first use). Every simulator on
    ``gpu`` shares it, so never change it by hand; a what-if device is
    a :class:`~repro.hardware.gpu.GPUSpec` of its own."""
    return OperatorToTaskTable(CuptiTracer(DeviceModel(gpu)))

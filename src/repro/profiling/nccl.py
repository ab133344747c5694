"""NCCL communication-latency models (paper Sections III-D and IV).

The graph builder emits two kinds of communication (Figures 5, 6 and
8): All-Reduce for the tensor- and data-parallel syncs and Send-Receive
between pipeline stages. :meth:`NcclModel.time` costs both, memoized
per model by operator signature, and an All-Reduce falls in one of the
paper's two regimes:

* **Intra-node** (NVLink/NVSwitch): vTrain *profiles* All-Reduce latencies
  over data sizes from 1 MB to 1024 MB and the participating GPU counts,
  then interpolates. We generate the same kind of table from the ring
  model in :mod:`repro.hardware.interconnect` — sampled at power-of-two
  sizes, looked up by log-linear interpolation — so the simulator consumes
  a profile table just like the paper's.
* **Inter-node** (InfiniBand): the Equation-1 latency-bandwidth model,
  ``t = S/B * 2(n-1)/n`` with ``B = alpha * Bmax`` (the
  bandwidth-effectiveness factor swept in Section IV).

An ``interference`` multiplier scales intra-node collective latency; the
paper measured NCCL primitives running ~30 % slower during real training
than in the isolated profiling environment. vTrain's *predictor* keeps
interference at 1.0 (it profiles in isolation — the acknowledged error
source); the testbed emulator sets it to ~1.3.

:meth:`NcclModel.time` is the only public costing entry. Subclasses
change how a kind is costed by overriding its private per-kind method
or :meth:`NcclModel._dispatch`, never :meth:`NcclModel.time`, so every
cost goes through the one memo and a collective has one cost.
"""

from __future__ import annotations

import bisect
import math

from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.graph.operators import CommKind, CommOperator
from repro.hardware.interconnect import (LinkType, infiniband_ring,
                                         nvlink_ring, p2p_time)

MIB = float(1 << 20)

#: Profiled payload sizes: 1 MB .. 1024 MB in powers of two (Section IV).
PROFILE_SIZES = tuple(MIB * 2 ** i for i in range(11))


class NcclModel:
    """Times communication operators for one training system.

    Args:
        system: Cluster description (bandwidths, alpha, node size).
        interference: Multiplier on intra-node collective latency.
            1.0 = isolated profiling (vTrain's predictor); ~1.3 = the
            contention observed during real training (testbed).
    """

    def __init__(self, system: SystemConfig, *,
                 interference: float = 1.0) -> None:
        if interference < 1.0:
            raise ConfigError("interference must be >= 1.0")
        self.system = system
        self.interference = interference
        self._tables: dict[int, tuple[list[float], list[float]]] = {}
        self._costs: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Intra-node profile table
    # ------------------------------------------------------------------
    def profile_table(self, group_size: int) -> tuple[list[float], list[float]]:
        """(sizes, latencies) profile for an intra-node group.

        Built lazily once per group size, mimicking an NCCL profiling
        session over the standard size sweep.
        """
        if group_size < 2:
            raise ConfigError("profiling needs group_size >= 2")
        cached = self._tables.get(group_size)
        if cached is not None:
            return cached
        ring = nvlink_ring(self.system, group_size)
        sizes = list(PROFILE_SIZES)
        latencies = [ring.allreduce_time(size, group_size) for size in sizes]
        self._tables[group_size] = (sizes, latencies)
        return self._tables[group_size]

    def _interpolate(self, sizes: list[float], latencies: list[float],
                     size: float) -> float:
        """Log-linear interpolation inside the profiled range, linear
        extrapolation on the end slopes outside it."""
        if size <= sizes[0]:
            # Below 1 MB: scale the smallest profiled point by size ratio,
            # keeping its latency floor.
            smallest = latencies[0]
            bandwidth_part = smallest * (size / sizes[0])
            return max(bandwidth_part, smallest * 0.05)
        if size >= sizes[-1]:
            # Above 1024 MB the transfer is bandwidth-bound: extrapolate
            # with the last segment's slope.
            slope = ((latencies[-1] - latencies[-2])
                     / (sizes[-1] - sizes[-2]))
            return latencies[-1] + slope * (size - sizes[-1])
        index = bisect.bisect_left(sizes, size)
        lo_s, hi_s = sizes[index - 1], sizes[index]
        lo_t, hi_t = latencies[index - 1], latencies[index]
        frac = (math.log(size) - math.log(lo_s)) / (math.log(hi_s)
                                                    - math.log(lo_s))
        return lo_t + frac * (hi_t - lo_t)

    # ------------------------------------------------------------------
    # Collective timing
    # ------------------------------------------------------------------
    def _allreduce_time(self, size_bytes: float, group_size: int,
                        link: LinkType) -> float:
        """All-Reduce latency over the given link type."""
        if group_size <= 1 or size_bytes <= 0:
            return 0.0
        if link is LinkType.INTRA_NODE:
            sizes, latencies = self.profile_table(group_size)
            return self._interpolate(sizes, latencies,
                                     size_bytes) * self.interference
        ring = infiniband_ring(self.system)
        return ring.allreduce_time(size_bytes, group_size)

    def _sendrecv_time(self, size_bytes: float, link: LinkType) -> float:
        """Point-to-point Send-Receive latency (pipeline boundaries)."""
        return p2p_time(self.system, size_bytes, link)

    def _cost_memo(self) -> dict[tuple, float]:
        """Where :meth:`time` memoizes this model's costs, keyed by
        :attr:`~repro.graph.operators.CommOperator.signature`."""
        return self._costs

    def time(self, comm: CommOperator) -> float:
        """Latency of any communication operator.

        Memoized per model by ``comm.signature``: a sweep costs the
        same few hundred collectives thousands of times. Threads that
        miss one signature at once just compute equal costs twice.
        """
        costs = self._cost_memo()
        key = comm.signature
        cost = costs.get(key)
        if cost is None:
            cost = costs[key] = self._dispatch(comm)
        return cost

    def cached_time(self, signature: tuple) -> float | None:
        """The cost :meth:`time` memoized under ``signature``, or
        ``None`` before that collective was first costed (a probe that
        builds no operator). Only :meth:`time` fills the memo, so a hit
        is what :meth:`time` would return."""
        return self._cost_memo().get(signature)

    def _dispatch(self, comm: CommOperator) -> float:
        """Cost ``comm`` with its per-kind method, bypassing the memo."""
        if comm.kind is CommKind.ALL_REDUCE:
            return self._allreduce_time(comm.size_bytes, comm.group_size,
                                        comm.link)
        return self._sendrecv_time(comm.size_bytes, comm.link)

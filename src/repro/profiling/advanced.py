"""Contention-aware inter-node communication model (paper future work).

Section IV closes with vTrain's two acknowledged multi-node error
sources: the latency–bandwidth model "does not capture the effect of
straggler GPU node's training time at synchronization points, nor ...
the latency overheads of NCCL kernel launches", and it cannot model the
"dynamic behaviors of a large, complicated network topology" — e.g. the
four data-parallel groups of Figure 3 sharing the same ToR switches.
The authors "believe the simulation errors ... can be alleviated by
incorporating the dynamic nature of inter-node communication into our
analytical model".

This module is that incorporation. :class:`ContentionAwareNcclModel`
extends the Equation-1 model with three statically-derivable terms:

* **uplink sharing** — an inter-node collective whose node hosts ``g``
  concurrent sibling groups (known from the rank mapping at graph-build
  time) sees its effective bandwidth derated logarithmically in ``g``;
* **launch overhead** — each collective pays a fixed NCCL kernel-launch
  cost;
* **straggler margin** — a synchronisation over ``n`` workers waits for
  the slowest; with i.i.d. per-worker slack the expected margin grows
  with ``sqrt(2 ln n)`` (the Gumbel approximation of a max of
  near-Gaussian delays).

Only the inter-node All-Reduce changes: intra-node collectives and
Send-Receive cost as in the basic model. The correction is applied in
:meth:`~repro.profiling.nccl.NcclModel._dispatch`, so its costs are
memoized by operator signature like every other model's, and a repeat
predict reads them from the memo.

The extension bench (``benchmarks/bench_ext_comm_model.py``) shows the
multi-node validation error shrinking when this model replaces the basic
one, while single-node predictions are untouched — reproducing the
paper's improvement hypothesis.
"""

from __future__ import annotations

import math

from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.graph.operators import CommKind, CommOperator
from repro.hardware.interconnect import LinkType, infiniband_ring
from repro.profiling.nccl import NcclModel


class ContentionAwareNcclModel(NcclModel):
    """Equation-1 model augmented with dynamic-network corrections.

    Args:
        system: Cluster description.
        contention_per_group: Bandwidth derating per doubling of
            concurrent groups sharing a node's NICs.
        launch_overhead: Fixed NCCL kernel-launch latency charged per
            inter-node collective.
        straggler_slack: Per-worker slack scale (seconds) feeding the
            sqrt(2 ln n) synchronisation margin.
        interference: Inherited intra-node interference multiplier.
    """

    def __init__(self, system: SystemConfig, *,
                 contention_per_group: float = 0.05,
                 launch_overhead: float = 8e-6,
                 straggler_slack: float = 2e-4,
                 interference: float = 1.0) -> None:
        super().__init__(system, interference=interference)
        if contention_per_group < 0:
            raise ConfigError("contention_per_group must be non-negative")
        if launch_overhead < 0 or straggler_slack < 0:
            raise ConfigError("overheads must be non-negative")
        self.contention_per_group = contention_per_group
        self.launch_overhead = launch_overhead
        self.straggler_slack = straggler_slack

    # ------------------------------------------------------------------
    # Correction terms
    # ------------------------------------------------------------------
    def contention_factor(self, concurrent_groups: int) -> float:
        """Bandwidth-derating multiplier for shared node uplinks."""
        if concurrent_groups <= 1:
            return 1.0
        doublings = (concurrent_groups - 1).bit_length()
        return 1.0 + self.contention_per_group * doublings

    def straggler_margin(self, group_size: int) -> float:
        """Expected wait for the slowest of ``group_size`` workers."""
        if group_size <= 1:
            return 0.0
        return self.straggler_slack * math.sqrt(2.0 * math.log(group_size))

    # ------------------------------------------------------------------
    # Corrected inter-node All-Reduce
    # ------------------------------------------------------------------
    def internode_allreduce_time(self, size_bytes: float, group_size: int,
                                 concurrent_groups: int = 1) -> float:
        """Inter-node All-Reduce with contention/launch/straggler terms."""
        if group_size <= 1 or size_bytes <= 0:
            return 0.0
        base = infiniband_ring(self.system).allreduce_time(size_bytes,
                                                           group_size)
        return (base * self.contention_factor(concurrent_groups)
                + self.launch_overhead + self.straggler_margin(group_size))

    def _dispatch(self, comm: CommOperator) -> float:
        """Cost ``comm``, with the corrections on an inter-node
        All-Reduce (the memo in :meth:`time` keeps the result)."""
        if (comm.kind is CommKind.ALL_REDUCE
                and comm.link is LinkType.INTER_NODE):
            return self.internode_allreduce_time(comm.size_bytes,
                                                 comm.group_size,
                                                 comm.concurrent_groups)
        return super()._dispatch(comm)

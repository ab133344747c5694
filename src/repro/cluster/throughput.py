"""Throughput profiles: iterations/second as a function of GPU count.

ElasticFlow's core mechanism is an offline-profiled throughput-scaling
curve per model, consulted for elastic allocation and deadline admission.
The *difference* between the baseline and the vTrain-enabled system
(Section V-B) is solely where that curve comes from:

* ``elasticflow_throughput_profile`` — ElasticFlow explores only data
  parallelism: the model is pinned to the minimum (t, p) able to hold
  it, and GPUs scale the data-parallel degree. This is the paper's
  faithful re-implementation of the baseline's restriction.
* ``vtrain_throughput_profile`` — vTrain's design-space search picks the
  best (t, d, p, m) plan at every GPU count, so the curve dominates the
  baseline's pointwise by construction.

Profiles are cached per (model, batch, flavor) because the cluster
benches replay many traces over the same three Table III models.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.presets import ClusterModelSpec
from repro.config.system import multi_node
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.space import SearchSpace
from repro.errors import ConfigError, InfeasibleConfigError
from repro.baselines.heuristic import minimal_model_parallel_footprint
from repro.graph.builder import Granularity

#: Allocation sizes the schedulers may hand out (powers of two, as in
#: ElasticFlow).
DEFAULT_GPU_COUNTS = (8, 16, 32, 64, 128, 256, 512, 1024)

#: Search space for the per-GPU-count vTrain optimisation: kept compact
#: because every model/batch combination sweeps it once per GPU count
#: (the operator profiles and collective costs behind the sweeps are
#: shared process-wide; the sweeps are not).
PROFILE_SEARCH_SPACE = SearchSpace(max_tensor=8, max_data=128,
                                   max_pipeline=16,
                                   micro_batch_sizes=(1, 2, 4, 8))


@dataclass(frozen=True)
class ThroughputProfile:
    """Monotone map from GPU allocation to training rate.

    Attributes:
        model_name: The profiled model.
        table: Sorted (gpu_count, iterations_per_second) pairs; counts
            not in the table are not valid allocations.
    """

    model_name: str
    table: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.table:
            raise ConfigError(f"empty throughput profile for {self.model_name}")
        counts = [count for count, _ in self.table]
        if counts != sorted(set(counts)):
            raise ConfigError("profile GPU counts must be strictly increasing")

    @property
    def candidates(self) -> tuple[int, ...]:
        """Valid allocation sizes, ascending."""
        return tuple(count for count, _ in self.table)

    @property
    def min_gpus(self) -> int:
        """Smallest allocation able to run the model."""
        return self.table[0][0]

    @property
    def max_gpus(self) -> int:
        """Largest profiled allocation."""
        return self.table[-1][0]

    def rate(self, gpus: int) -> float:
        """Iterations/second at an allocation (0 for gpus below minimum).

        Non-candidate allocations floor to the largest candidate below —
        schedulers should allocate candidates exactly, but flooring keeps
        the simulator robust.
        """
        if gpus < self.min_gpus:
            return 0.0
        index = bisect_right(self.candidates, gpus) - 1
        return self.table[index][1]

    def next_step(self, gpus: int) -> int | None:
        """The next larger candidate allocation, or None at the top."""
        index = bisect_right(self.candidates, gpus)
        if index >= len(self.candidates):
            return None
        return self.candidates[index]

    def speedup(self, gpus: int) -> float:
        """Rate relative to the minimum allocation."""
        base = self.table[0][1]
        return self.rate(gpus) / base if base > 0 else 0.0


# ---------------------------------------------------------------------------
# Profile builders
# ---------------------------------------------------------------------------

_PROFILE_CACHE: dict[tuple, ThroughputProfile] = {}


def vtrain_throughput_profile(spec: ClusterModelSpec,
                              gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
                              *, granularity: Granularity = Granularity.STAGE,
                              ) -> ThroughputProfile:
    """Best-plan throughput at each GPU count (the vTrain-enabled curve)."""
    key = ("vtrain", spec.model.name, spec.global_batch_size, gpu_counts,
           granularity.value)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    training = TrainingConfig(global_batch_size=spec.global_batch_size)
    explorer = DesignSpaceExplorer(spec.model, training,
                                   granularity=granularity)
    rows: list[tuple[int, float]] = []
    for count in gpu_counts:
        result = explorer.explore(space=PROFILE_SEARCH_SPACE, num_gpus=count)
        if not result.num_feasible:
            continue
        best = result.best_by_iteration_time()
        rows.append((count, 1.0 / best.iteration_time))
    profile = ThroughputProfile(model_name=spec.model.name, table=tuple(rows))
    _PROFILE_CACHE[key] = profile
    return profile


def elasticflow_throughput_profile(
        spec: ClusterModelSpec,
        gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS, *,
        granularity: Granularity = Granularity.STAGE,
        micro_batch_size: int = 4) -> ThroughputProfile:
    """Data-parallel-only scaling over a fixed minimal (t, p) base."""
    key = ("elasticflow", spec.model.name, spec.global_batch_size, gpu_counts,
           granularity.value, micro_batch_size)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    training = TrainingConfig(global_batch_size=spec.global_batch_size)
    system = multi_node(max(gpu_counts) // 8)
    t, p = minimal_model_parallel_footprint(spec.model, training, system,
                                            micro_batch_size=1)
    explorer = DesignSpaceExplorer(spec.model, training,
                                   granularity=granularity)
    rows: list[tuple[int, float]] = []
    for count in gpu_counts:
        if count % (t * p):
            continue
        d = count // (t * p)
        if spec.global_batch_size % d:
            continue
        per_replica = spec.global_batch_size // d
        # ElasticFlow profiles the largest micro-batch that divides the
        # per-replica batch and fits memory (its only remaining knob).
        best_rate = None
        m = micro_batch_size
        while m >= 1:
            if per_replica % m == 0:
                plan = ParallelismConfig(tensor=t, data=d, pipeline=p,
                                         micro_batch_size=m)
                point = explorer.evaluate(plan)
                if point.feasible:
                    best_rate = 1.0 / point.iteration_time
                    break
            m //= 2
        if best_rate is not None:
            rows.append((count, best_rate))
    if not rows:
        raise InfeasibleConfigError(
            f"no feasible DP-only allocation for {spec.model.name}")
    profile = ThroughputProfile(model_name=spec.model.name, table=tuple(rows))
    _PROFILE_CACHE[key] = profile
    return profile


def clear_profile_cache() -> None:
    """Drop memoised profiles (tests use this for isolation)."""
    _PROFILE_CACHE.clear()

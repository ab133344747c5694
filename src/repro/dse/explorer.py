"""Design-space exploration driver (Section V-A, Figures 10/11, Table I).

Evaluates every plan in a search space on simulators that share one
profiling stack per GPU (so each necessary operator is profiled once
across the whole sweep) and collects :class:`DesignPoint` rows:
iteration time, utilization, memory, GPUs, and cost rates. Helpers
select the paper's headline artefacts — fastest plan, most
cost-effective plan under a GPU budget, the Pareto frontier of
(iteration time, cost), and the Figure-10 heatmap grids.

:meth:`DesignSpaceExplorer.explore` is the one sweep loop, for training
and serving explorers alike: it serves plans already in a
:class:`~repro.dse.cache.PredictionCache`, evaluates the rest in
structure-affinity groups — in-process, or one group per work unit on a
process pool — and reports progress as groups finish. Persistence is
the caller's: ``repro dse --cache`` saves the cache from its progress
callback, so an interrupted sweep resumes from the file.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence, TYPE_CHECKING

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import SystemConfig, multi_node
from repro.cost.pricing import DEFAULT_PRICING, PricingModel
from repro.errors import ConfigError, InfeasibleConfigError
from repro.graph.builder import Granularity
from repro.dse.space import (SearchSpace, enumerate_plans,
                             enumerate_serving_plans)
from repro.sim.estimator import VTrain
from repro.workload import INFERENCE, TRAINING, InferenceWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dse.cache import PredictionCache

#: Upper bound on plans per batched replay, here and in the serving
#: daemon's batcher flush: bounds the transient ``(tasks x N)``
#: duration matrix while keeping the vectorized sweep's per-column
#: amortisation (throughput is flat past a few dozen columns).
_MAX_EVAL_BATCH = 64


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated plan in the design space.

    Training rows (the default, ``workload == "training"``) populate
    ``iteration_time``/``utilization``; serving rows
    (``workload == "inference"``) additionally carry the serving
    metrics — ``ttft_s`` (time to first token), ``tpot_s`` (time per
    output token, also mirrored into ``iteration_time`` so generic
    time-sorted views stay meaningful), and ``tokens_per_s`` (aggregate
    output throughput across the plan's ``d`` replicas).
    """

    plan: ParallelismConfig
    feasible: bool
    iteration_time: float = float("inf")
    utilization: float = 0.0
    memory_gib: float = 0.0
    infeasible_reason: str = ""
    workload: str = "training"
    tokens_per_s: float = 0.0
    ttft_s: float = 0.0
    tpot_s: float = 0.0

    @property
    def num_gpus(self) -> int:
        """GPUs the plan occupies."""
        return self.plan.total_gpus

    def cost_per_iteration(self,
                           pricing: PricingModel = DEFAULT_PRICING) -> float:
        """Dollar cost of one iteration under the pricing model."""
        if not self.feasible:
            return float("inf")
        return pricing.cost(self.num_gpus, self.iteration_time)

    def cost_per_million_tokens(
            self, pricing: PricingModel = DEFAULT_PRICING) -> float:
        """Serving cost per million output tokens (inference rows)."""
        if not self.feasible or self.tokens_per_s <= 0:
            return float("inf")
        return (pricing.dollars_per_hour(self.num_gpus) / 3600.0
                / self.tokens_per_s * 1e6)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form suitable for JSON serialisation.

        Non-finite iteration times (infeasible rows) are stored as
        ``None`` so the payload stays strict JSON. The serving fields
        (``workload``, ``tokens_per_s``, ``ttft_s``, ``tpot_s``) are
        omitted for training rows, so payloads written before the
        workload abstraction — and the prediction-cache fingerprints
        built over them — remain byte-identical.
        """
        payload = {
            "plan": self.plan.to_dict(),
            "feasible": self.feasible,
            "iteration_time": (self.iteration_time
                               if math.isfinite(self.iteration_time)
                               else None),
            "utilization": self.utilization,
            "memory_gib": self.memory_gib,
            "infeasible_reason": self.infeasible_reason,
        }
        if self.workload != "training":
            payload["workload"] = self.workload
            payload["tokens_per_s"] = self.tokens_per_s
            payload["ttft_s"] = self.ttft_s
            payload["tpot_s"] = self.tpot_s
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DesignPoint":
        """Inverse of :meth:`to_dict`; raises ConfigError on bad input."""
        raw = dict(payload)
        try:
            plan = ParallelismConfig.from_dict(raw.pop("plan"))
        except KeyError as exc:
            raise ConfigError("design point payload missing plan") from exc
        if raw.get("iteration_time") is None:
            raw["iteration_time"] = float("inf")
        try:
            return cls(plan=plan, **raw)
        except TypeError as exc:
            raise ConfigError(f"invalid design point: {exc}") from exc


@dataclass
class DSEResult:
    """All evaluated points plus selection helpers.

    ``training`` is ``None`` for serving sweeps, which are shaped by an
    :class:`~repro.workload.InferenceWorkload` instead.
    """

    model: ModelConfig
    training: TrainingConfig | None
    points: list[DesignPoint] = field(default_factory=list)

    @property
    def feasible_points(self) -> list[DesignPoint]:
        """Points that passed structural and memory checks."""
        return [point for point in self.points if point.feasible]

    @property
    def num_feasible(self) -> int:
        """Count of feasible points."""
        return len(self.feasible_points)

    def best_by_iteration_time(self, *, num_gpus: int | None = None,
                               max_gpus: int | None = None,
                               tensor: int | None = None) -> DesignPoint:
        """Fastest feasible plan, optionally constrained."""
        candidates = self._filter(num_gpus=num_gpus, max_gpus=max_gpus,
                                  tensor=tensor)
        return min(candidates, key=lambda point: point.iteration_time)

    def best_by_cost(self, *, pricing: PricingModel = DEFAULT_PRICING,
                     num_gpus: int | None = None,
                     max_gpus: int | None = None,
                     tensor: int | None = None) -> DesignPoint:
        """Cheapest-per-token feasible plan, optionally constrained.

        Each candidate's cost is priced exactly once (O(n) pricing
        evaluations), not once per comparison.
        """
        candidates = self._filter(num_gpus=num_gpus, max_gpus=max_gpus,
                                  tensor=tensor)
        costs = [point.cost_per_iteration(pricing) for point in candidates]
        return candidates[min(range(len(candidates)),
                              key=costs.__getitem__)]

    def best_micro_batch_per_way(self) -> dict[tuple[int, int, int],
                                               DesignPoint]:
        """Collapse micro-batch choices: best point per (t, d, p)."""
        best: dict[tuple[int, int, int], DesignPoint] = {}
        for point in self.feasible_points:
            way = point.plan.way
            if way not in best or (point.iteration_time
                                   < best[way].iteration_time):
                best[way] = point
        return best

    def pareto_frontier(self, *, pricing: PricingModel = DEFAULT_PRICING,
                        ) -> list[DesignPoint]:
        """Points not dominated in (iteration time, cost/iteration).

        Each point is priced exactly once (O(n) pricing evaluations);
        the sort compares the precomputed (time, cost) pairs.
        """
        costed = [(point, point.cost_per_iteration(pricing))
                  for point in self.feasible_points]
        costed.sort(key=lambda entry: (entry[0].iteration_time, entry[1]))
        frontier: list[DesignPoint] = []
        best_cost = float("inf")
        for point, cost in costed:
            if cost < best_cost:
                frontier.append(point)
                best_cost = cost
        return frontier

    def serving_pareto_frontier(
            self, *, pricing: PricingModel = DEFAULT_PRICING,
            ) -> list[DesignPoint]:
        """Serving points not dominated in (tokens/s, cost per Mtok).

        The vLLM-style trade-off surface: raising tensor parallelism
        buys latency (and with it per-replica throughput) at a worse
        cost rate, while adding replicas buys throughput at an unchanged
        rate — the frontier exposes which plans are worth either trade.
        Sorted by descending throughput.
        """
        costed = [(point, point.cost_per_million_tokens(pricing))
                  for point in self.feasible_points
                  if point.workload == "inference"]
        costed.sort(key=lambda entry: (-entry[0].tokens_per_s, entry[1]))
        frontier: list[DesignPoint] = []
        best_cost = float("inf")
        for point, cost in costed:
            if cost < best_cost:
                frontier.append(point)
                best_cost = cost
        return frontier

    def best_by_throughput(self, *, max_gpus: int | None = None,
                           ) -> DesignPoint:
        """Highest-throughput feasible serving point."""
        candidates = [p for p in self.feasible_points
                      if p.workload == "inference"]
        if max_gpus is not None:
            candidates = [p for p in candidates if p.num_gpus <= max_gpus]
        if not candidates:
            raise InfeasibleConfigError(
                "no feasible serving points match the constraints")
        return max(candidates, key=lambda point: point.tokens_per_s)

    def heatmap(self, metric: str = "iteration_time",
                ) -> dict[tuple[int, int, int], float]:
        """Figure-10 style grid: (t, d, p) -> metric (best micro-batch).

        ``metric`` is ``iteration_time`` or ``utilization``.
        """
        if metric not in ("iteration_time", "utilization"):
            raise ConfigError(f"unknown heatmap metric {metric!r}")
        return {way: getattr(point, metric)
                for way, point in self.best_micro_batch_per_way().items()}

    def _filter(self, *, num_gpus: int | None, max_gpus: int | None,
                tensor: int | None) -> list[DesignPoint]:
        candidates = self.feasible_points
        if tensor is not None:
            candidates = [p for p in candidates if p.plan.tensor == tensor]
        if num_gpus is not None:
            candidates = [p for p in candidates if p.num_gpus == num_gpus]
        if max_gpus is not None:
            candidates = [p for p in candidates if p.num_gpus <= max_gpus]
        if not candidates:
            raise InfeasibleConfigError(
                "no feasible design points match the constraints")
        return candidates


def evaluate_plans(vtrain: VTrain, model: ModelConfig,
                   plans: Sequence[ParallelismConfig],
                   training: TrainingConfig | None = None, *,
                   workload: InferenceWorkload | None = None,
                   ) -> list[DesignPoint]:
    """Predict ``plans`` on one simulator as :class:`DesignPoint` rows.

    The one place a prediction becomes a design point, shared by
    :meth:`DesignSpaceExplorer.evaluate_batch` and the serving daemon.
    Every plan goes through :meth:`VTrain.prepare_checked` (the training
    recipe, or the inference ``workload``, shapes it); plans it rejects
    become ``feasible=False`` rows carrying the reason, and the rest
    replay together in one :meth:`VTrain.predict_prepared` call. Rows
    come back in ``plans`` order.
    """
    kind = INFERENCE if workload is not None else TRAINING
    points: list[DesignPoint | None] = [None] * len(plans)
    positions, entries = [], []
    for position, plan in enumerate(plans):
        try:
            entries.append(vtrain.prepare_checked(model, plan, training,
                                                  workload=workload))
        except (InfeasibleConfigError, ConfigError) as exc:
            points[position] = DesignPoint(plan=plan, feasible=False,
                                           infeasible_reason=str(exc),
                                           workload=kind)
        else:
            positions.append(position)
    predictions = vtrain.predict_prepared(entries) if entries else []
    for position, prediction in zip(positions, predictions):
        plan = plans[position]
        memory_gib = prediction.memory_per_gpu / float(1 << 30)
        if kind == INFERENCE:
            points[position] = DesignPoint(
                plan=plan, feasible=True,
                iteration_time=prediction.decode_step_time,
                memory_gib=memory_gib, workload=kind,
                tokens_per_s=prediction.tokens_per_second,
                ttft_s=prediction.prefill_time,
                tpot_s=prediction.decode_step_time)
        else:
            points[position] = DesignPoint(
                plan=plan, feasible=True,
                iteration_time=prediction.iteration_time,
                utilization=prediction.gpu_compute_utilization,
                memory_gib=memory_gib)
    return points


class DesignSpaceExplorer:
    """Sweeps plans for one model/training recipe.

    Plans run on one simulator per node count, each on
    ``multi_node(nodes, gpus_per_node, network)`` and so on one GPU.
    The first simulator built owns the profiling stack (device model,
    CUPTI tracer, operator-to-task table), and every later node count
    is derived from it with :meth:`VTrain.for_system`, so the whole
    exploration profiles each necessary operator exactly once — the
    property that makes the paper's "full design space in under 200
    seconds" possible. What depends on the system stays per node count:
    the communication model (NCCL tables, topology, collective plans
    and cost memo) and the prediction counters.

    Args:
        model: Target LLM.
        training: Batch/token recipe.
        gpus_per_node: Node size used to derive per-plan systems.
        granularity: Graph granularity (STAGE recommended for sweeps).
        network: Inter-node fabric spec for derived systems (``flat``,
            ``rail`` or ``fat-tree:<ratio>``); ``flat`` reproduces the
            paper's Equation-1 model exactly.
        zero_stage: ZeRO sharding stage (0-3) assumed by the memory
            feasibility filter (default 1, ZeRO-1 optimizer sharding).
        workload: An :class:`~repro.workload.InferenceWorkload` turns
            the sweep into a serving exploration — plans come from
            :func:`repro.dse.space.enumerate_serving_plans`, each is
            predicted for that workload (prefill + decode graphs), and
            ``training`` may be ``None``.
    """

    def __init__(self, model: ModelConfig,
                 training: TrainingConfig | None, *,
                 gpus_per_node: int = 8,
                 granularity: Granularity = Granularity.STAGE,
                 network: str = "flat",
                 zero_stage: int = 1,
                 workload=None,
                 ) -> None:
        if training is None and workload is None:
            raise ConfigError(
                "DesignSpaceExplorer needs a training recipe or a workload")
        if gpus_per_node < 1:
            raise ConfigError(
                f"gpus_per_node must be at least 1, got {gpus_per_node}")
        self.model = model
        self.training = training
        self.workload = workload
        self.gpus_per_node = gpus_per_node
        self.granularity = granularity
        self.network = network
        self.zero_stage = zero_stage
        self._simulators: dict[int, VTrain] = {}

    def system_for(self, num_gpus: int) -> SystemConfig:
        """The system a plan occupying ``num_gpus`` GPUs runs on (the
        plan's node count rounded up to whole nodes)."""
        nodes = max(1, -(-num_gpus // self.gpus_per_node))
        return multi_node(nodes, gpus_per_node=self.gpus_per_node,
                          network=self.network)

    def _simulator_for(self, num_gpus: int) -> VTrain:
        """The node count's simulator, derived from the first one built
        (see the class docstring)."""
        nodes = max(1, -(-num_gpus // self.gpus_per_node))
        simulator = self._simulators.get(nodes)
        if simulator is None:
            system = self.system_for(num_gpus)
            first = next(iter(self._simulators.values()), None)
            simulator = (first.for_system(system) if first is not None
                         else VTrain(system, granularity=self.granularity,
                                     zero_stage=self.zero_stage))
            self._simulators[nodes] = simulator
        return simulator

    def evaluate(self, plan: ParallelismConfig) -> DesignPoint:
        """Evaluate a single plan into a DesignPoint (never raises for
        infeasible or structurally invalid plans — both become
        ``feasible=False`` rows, so one bad plan cannot abort a sweep)."""
        return self.evaluate_batch([plan])[0]

    def evaluate_batch(self, plans: list[ParallelismConfig],
                       ) -> list[DesignPoint]:
        """Evaluate several plans, replaying shared structures in batch.

        Plans are split by the simulator their GPU count runs on, and
        each simulator's share goes through :func:`evaluate_plans` once:
        infeasible and structurally invalid plans become
        ``feasible=False`` rows, and phase graphs sharing one compiled
        structure replay in a single vectorized sweep. Points come back
        in ``plans`` order, bit-identical to
        ``[self.evaluate(p) for p in plans]``.
        """
        points: list[DesignPoint | None] = [None] * len(plans)
        shares: dict[int, tuple[VTrain, list[int]]] = {}
        with obs.span("dse.evaluate_batch", category="dse",
                      plans=len(plans)):
            for position, plan in enumerate(plans):
                simulator = self._simulator_for(plan.total_gpus)
                shares.setdefault(id(simulator),
                                  (simulator, []))[1].append(position)
            for simulator, positions in shares.values():
                evaluated = evaluate_plans(
                    simulator, self.model, [plans[p] for p in positions],
                    self.training, workload=self.workload)
                for position, point in zip(positions, evaluated):
                    points[position] = point
        infeasible = sum(not point.feasible for point in points)
        if infeasible:
            obs.count("dse.plans_infeasible", infeasible)
        obs.count("dse.plans_evaluated", len(plans))
        return points

    def fingerprint_for(self, plan: ParallelismConfig) -> str:
        """Prediction-cache key of ``plan`` under this explorer's model,
        training recipe or workload, derived system, granularity and
        ZeRO stage (see :func:`repro.dse.cache.fingerprint`)."""
        from repro.dse.cache import fingerprint

        return fingerprint(self.model, plan, self.training,
                           self.system_for(plan.total_gpus),
                           self.granularity, zero_stage=self.zero_stage,
                           workload=self.workload)

    def explore(self, *, space: SearchSpace = SearchSpace(),
                num_gpus: int | None = None, max_gpus: int | None = None,
                plans: Iterable[ParallelismConfig] | None = None,
                workers: int = 1,
                cache: "PredictionCache | None" = None,
                progress: Callable[[int, int], None] | None = None,
                ) -> DSEResult:
        """Sweep a plan iterable (or the enumerated search space).

        Plans already in ``cache`` are served from it; the rest are
        evaluated in :meth:`_affinity_groups`, one
        :meth:`evaluate_batch` call per group. Points come back in plan
        order, bit-identical for every ``workers``/``cache``/
        ``progress`` combination: workers run the same evaluation on the
        same deterministic device model.

        Args:
            space / num_gpus / max_gpus / plans: What to sweep (see
                :func:`repro.dse.space.enumerate_plans`, or
                :func:`~repro.dse.space.enumerate_serving_plans` for a
                serving explorer).
            workers: Processes evaluating the groups. ``1`` evaluates
                in-process; ``> 1`` submits each group as one work unit
                to a process pool whose workers each host one
                long-lived explorer (profiling tables and structure
                cache warm once per worker).
            cache: A :class:`~repro.dse.cache.PredictionCache` consulted
                by :meth:`fingerprint_for` before evaluating and updated
                after. Without a cache no fingerprint is computed.
            progress: Callback ``progress(completed, total)``, invoked
                after the cache scan and as each group finishes (its
                points are in ``cache`` by then, so a callback may save
                the cache).

        Raises:
            ConfigError: ``workers`` is below 1.
        """
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers!r}")
        if plans is None and self.workload is not None:
            plans = enumerate_serving_plans(self.model, self.workload,
                                            space=space, num_gpus=num_gpus,
                                            max_gpus=max_gpus)
        elif plans is None:
            plans = enumerate_plans(self.model, self.training, space=space,
                                    num_gpus=num_gpus, max_gpus=max_gpus)
        plan_list = list(plans)
        total = len(plan_list)
        with obs.span("dse.sweep", category="dse", plans=total,
                      workers=workers):
            points: list[DesignPoint | None] = [None] * total
            if cache is not None:
                keys = [self.fingerprint_for(plan) for plan in plan_list]
                points = [cache.get(key) for key in keys]
            pending = [index for index, point in enumerate(points)
                       if point is None]
            groups = self._affinity_groups(plan_list, pending)
            done = total - len(pending)
            if progress is not None:
                progress(done, total)
            with contextlib.ExitStack() as stack:
                if workers > 1 and groups:
                    options = dict(gpus_per_node=self.gpus_per_node,
                                   granularity=self.granularity,
                                   network=self.network,
                                   zero_stage=self.zero_stage,
                                   workload=self.workload)
                    pool = stack.enter_context(
                        concurrent.futures.ProcessPoolExecutor(
                            max_workers=min(workers, len(groups)),
                            initializer=_init_worker,
                            initargs=(self.model, self.training, options)))
                    futures = {pool.submit(_evaluate_group,
                                           [plan_list[i] for i in group]):
                               group for group in groups}
                    finished = ((futures[future], future.result())
                                for future in
                                concurrent.futures.as_completed(futures))
                else:
                    finished = ((group, self.evaluate_batch(
                        [plan_list[i] for i in group])) for group in groups)
                for group, evaluated in finished:
                    for index, point in zip(group, evaluated):
                        points[index] = point
                        if cache is not None:
                            cache.put(keys[index], point)
                    done += len(group)
                    if progress is not None:
                        progress(done, total)
        return DSEResult(model=self.model, training=self.training,
                         points=points)

    def _affinity_groups(self, plans: list[ParallelismConfig],
                         indices: list[int]) -> list[list[int]]:
        """``indices`` into ``plans``, grouped to co-locate shared
        structures.

        Groups are emitted in affinity-sorted order (ties and
        un-fingerprintable plans keep their plan order, so the
        flattened sequence matches the historical evaluation order);
        consecutive plans sharing a structure fingerprint share a group,
        capped at ``_MAX_EVAL_BATCH``, while un-fingerprintable plans
        are singletons.
        """
        from repro.graph.builder import structure_affinity

        # Serving plans have no training affinity key, so each replays
        # alone (its phase graphs are small, one scalar replay each).
        training = self.training if self.workload is None else None
        keyed = sorted(
            ((structure_affinity(self.model, plans[index], training,
                                 self.granularity), index)
             for index in indices),
            key=lambda row: ("~" if row[0] is None else row[0], row[1]))
        groups: list[list[int]] = []
        previous_key = None
        for key, index in keyed:
            extend = (key is not None and groups and key == previous_key
                      and len(groups[-1]) < _MAX_EVAL_BATCH)
            if extend:
                groups[-1].append(index)
            else:
                groups.append([index])
            previous_key = key
        return groups


# Worker-process side of a ``workers > 1`` sweep (module-level so it
# pickles). Observability state is per-process: a worker's spans and
# counters stay in the worker; cache hits are counted by the parent.
_WORKER_EXPLORER: DesignSpaceExplorer | None = None


def _init_worker(model: ModelConfig, training: TrainingConfig | None,
                 options: dict[str, Any]) -> None:
    """Build this worker's long-lived explorer from the caller's
    constructor arguments."""
    global _WORKER_EXPLORER
    _WORKER_EXPLORER = DesignSpaceExplorer(model, training, **options)


def _evaluate_group(plans: list[ParallelismConfig]) -> list[DesignPoint]:
    """Evaluate one affinity group on this worker's explorer."""
    assert _WORKER_EXPLORER is not None, "worker initializer did not run"
    return _WORKER_EXPLORER.evaluate_batch(plans)

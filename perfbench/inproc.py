"""The in-process workloads: ``mtnlg_predict`` and ``dse_sweep``.

Both run in a worker process of their own, so that set-up is measured
from process start. The worker builds its workload, prints ``READY``,
and waits on stdin: ``exit`` ends a set-up probe, ``go`` starts the
measurement, whose result is one ``RESULT <json>`` line on stdout.

Neither workload draws anything from the seed: their inputs are fixed
(the paper's headline plan, and one fixed design space).
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict

from common import (OUT, SWEEP_MAX_GPUS, context_lines, load_golden,
                    median, normalized, peak_rss_mb, reference_s,
                    sweep_inputs, tail)
from layers import LayerTracer, installed, run_op, write_trace

#: Warm predicts after each cold one: a warm predict is ~25x cheaper, so
#: a burst keeps both sample counts useful within one run.
WARM_PER_COLD = 5


def _normalized(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


class MtnlgPredict:
    """MT-NLG 530B on (8, 8, 35), 280 nodes, OPERATOR granularity.

    The paper's headline plan. A cold predict is almost all structure
    build and a warm one almost all replay, so the two paths load
    different layers.
    """

    name = "mtnlg_predict"
    unit = "predicts"

    def __init__(self) -> None:
        from repro.config.presets import (MT_NLG_530B, MT_NLG_BASELINE_PLANS,
                                          MT_NLG_TRAINING)
        from repro.config.system import multi_node
        from repro.graph.builder import Granularity, clear_structure_cache
        from repro.sim.estimator import VTrain

        self.golden = load_golden(self.name)
        self.inputs = (MT_NLG_530B, MT_NLG_BASELINE_PLANS[0], MT_NLG_TRAINING)
        self.vtrain = VTrain(multi_node(280), granularity=Granularity.OPERATOR)
        self.clear = clear_structure_cache
        self.vtrain.predict(*self.inputs)  # warms the profiles

    def check(self, prediction) -> bool:
        return (repr(prediction.iteration_time)
                == self.golden["iteration_time_repr"]
                and prediction.simulation.num_tasks
                == self.golden["num_tasks"])

    def cycle(self, tracer):
        """One cold predict, then a burst of warm ones."""
        records = []
        for kind in ["cold"] + ["warm"] * WARM_PER_COLD:
            gc.collect()
            if kind == "cold":
                self.clear()
            ref = reference_s()
            prediction, seconds = run_op(tracer, f"op.{kind}_predict",
                                         self.vtrain.predict, *self.inputs)
            records.append((kind, seconds, self.check(prediction), 1, ref))
        return records

    @staticmethod
    def report(cold: list[float], warm: list[float]) -> list[str]:
        return [f"cold_predict_s     {median(cold):.6f} s  (median of "
                f"{len(cold)}; tail {tail(cold)})",
                f"warm_predict_s     {median(warm):.6f} s  (median of "
                f"{len(warm)}; tail {tail(warm)})"]


class DseSweep:
    """Megatron 7.5B, global batch 128, 426 plans up to 256 GPUs, STAGE.

    Hundreds of small graphs, so per-plan work dominates. One op pair
    is a one-shot sweep on the flat fabric with an empty structure cache
    (cold), then the same plans re-swept on the rail fabric with every
    structure cached (warm), where the topology-aware network model
    does most of the work.
    """

    name = "dse_sweep"
    unit = "plans"

    def __init__(self) -> None:
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.graph.builder import clear_structure_cache

        self.golden = load_golden(self.name)
        self.model, self.training, self.space = sweep_inputs()
        self.explorer = DesignSpaceExplorer
        self.clear = clear_structure_cache
        self.cycle(None)  # first-call costs belong to set-up

    def sweep(self, network: str):
        explorer = self.explorer(self.model, self.training, network=network)
        return explorer.explore(space=self.space, max_gpus=SWEEP_MAX_GPUS)

    def check(self, result, network: str) -> bool:
        return (_normalized([point.to_dict() for point in result.points])
                == self.golden[network])

    def cycle(self, tracer):
        gc.collect()
        self.clear()
        ref_flat = reference_s()
        flat, cold = run_op(tracer, "op.flat_sweep", self.sweep, "flat")
        gc.collect()
        ref_rail = reference_s()
        rail, warm = run_op(tracer, "op.rail_whatif", self.sweep, "rail")
        return [("cold", cold, self.check(flat, "flat"), len(flat.points),
                 ref_flat),
                ("warm", warm, self.check(rail, "rail"), len(rail.points),
                 ref_rail)]

    def report(self, cold: list[float], warm: list[float]) -> list[str]:
        plans = len(self.golden["flat"])
        return [f"sweep_plans_per_s  {plans / median(cold):.3f} plans/s  "
                f"(median flat sweep {median(cold):.4f} s of {len(cold)})",
                f"whatif_plans_per_s {plans / median(warm):.3f} plans/s  "
                f"(median rail re-sweep {median(warm):.4f} s of "
                f"{len(warm)})"]


WORKLOADS = {cls.name: cls for cls in (MtnlgPredict, DseSweep)}


def _layer_metrics(tracer: LayerTracer, cycles: int,
                   overhead: float) -> dict[str, float]:
    """Self time and counts per op pair, named as in BENCHMARK.json."""
    s, c = tracer.self_s, tracer.counts
    metrics = {
        "memory.check_s": s["memory.check"],
        "profiling.lookup_s": s["profiling.lookup"],
        "profiling.operators_profiled": c["profiling.operators_profiled"],
        "network.collective_s": s["network.collective"],
        "network.collective_calls": c["network.collective_calls"],
        "graph.builder_init_s": s["graph.builder_init"],
        "graph.structure_build_s": s["graph.structure_build"],
        "graph.tasks_built": c["graph.tasks_built"],
        "graph.duration_fill_s": s["graph.duration_fill"],
        "graph.structure_cache.hits": c["graph.structure_cache.hits"],
        "graph.structure_cache.misses": c["graph.structure_cache.misses"],
        "graph.structure_cache.evictions":
            c["graph.structure_cache.evictions"],
        "sim.replay_s": s["sim.replay"],
        "sim.replay_batch_s": s["sim.replay_batch"],
        "sim.batch_columns": c["sim.batch_columns"],
        "sim.predict_self_s": s["sim.predict"],
        "dse.affinity_s": s["dse.affinity"],
        "dse.evaluate_batch_self_s": s["dse.evaluate_batch"],
        "dse.plans_infeasible": c["dse.plans_infeasible"],
    }
    metrics = {name: value / cycles for name, value in metrics.items()}
    replay_batch = s["sim.replay_batch"]
    metrics["sim.replay_tasks_per_s"] = (
        c["sim.batch_tasks"] / replay_batch if replay_batch else 0.0)
    for name in ("serve.transport_s", "serve.admit_s", "serve.queue_wait_s",
                 "serve.execute_s.training", "serve.execute_s.inference",
                 "serve.cache_served_frac", "serve.coalesced_frac",
                 "serve.mean_batch_size"):
        metrics[name] = 0.0  # the daemon is not part of this workload
    metrics["obs.tracing_overhead_frac"] = overhead
    metrics["unaccounted_frac"] = tracer.unaccounted_s / tracer.op_s
    return metrics


def measure(workload, seconds: float, traced: bool, seed: int) -> dict:
    """Run op pairs for ``seconds``; a traced run alternates untraced and
    traced pairs so the tracing overhead is measured in the same run."""
    from repro.graph.builder import structure_cache_stats

    tracer = LayerTracer() if traced else None
    raw: dict[str, list[float]] = defaultdict(list)
    samples: dict[str, list[float]] = defaultdict(list)
    totals: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = items = 0
    busy_s = 0.0
    deadline = time.perf_counter() + seconds
    pair = 0
    while True:
        tracing = traced and pair % 2 == 1
        if tracing:
            with installed(tracer):
                records = workload.cycle(tracer)
            for key, value in structure_cache_stats().items():
                tracer.counts[f"graph.structure_cache.{key}"] += value
        else:
            records = workload.cycle(None)
        refs = [record[4] for record in records] + [reference_s()]
        pair += 1
        totals[tracing].append(sum(record[1] for record in records))
        for index, (kind, op_s, ok, count, _) in enumerate(records):
            attempted += 1
            failed += not ok
            if not tracing:
                raw[kind].append(op_s)
                samples[kind].append(
                    normalized(op_s, refs[index], refs[index + 1]))
                busy_s += samples[kind][-1]
                items += count
        if time.perf_counter() >= deadline and (pair >= 2 or not traced):
            break

    lines = [f"{workload.name}: {attempted} ops checked against goldens, "
             f"{failed} failed"]
    if traced:
        overhead = median(totals[True]) / median(totals[False]) - 1.0
        metrics = _layer_metrics(tracer, len(totals[True]), overhead)
        path = OUT / f"trace-{workload.name}-seed{seed}.json"
        write_trace(path, tracer.chrome_trace({"workload": workload.name}))
        lines.append(f"trace    : {len(tracer.events)} spans written to "
                     f"{path} (schema-valid)")
    else:
        metrics = {"peak_rss_mb": peak_rss_mb(),
                   "cold_op_s": median(samples["cold"]),
                   "warm_op_s": median(samples["warm"]),
                   "ops_per_s": items / busy_s}
        lines.append("host time, as measured:")
        lines += workload.report(raw["cold"], raw["warm"])
        lines.append("normalized to the reference loop (the result line):")
        lines += workload.report(samples["cold"], samples["warm"])
        lines.append(f"ops_per_s          {metrics['ops_per_s']:.3f} "
                     f"{workload.unit}/s over {busy_s:.2f} s of ops")
    lines += context_lines()
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "report": lines}


def worker(name: str, seconds: float, traced: bool, seed: int) -> int:
    """Set up, report READY, then measure on ``go``."""
    workload = WORKLOADS[name]()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = measure(workload, seconds, traced, seed)
    print("RESULT " + json.dumps(result), flush=True)
    return 0

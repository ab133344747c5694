"""The repository benchmark: three workloads through the public API.

    python3 perfbench/run.py --workload mtnlg_predict --seed 0 \\
        --seconds 20 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

* ``mtnlg_predict`` — one big prediction: MT-NLG 530B on (8, 8, 35) at
  OPERATOR granularity (219,260 tasks); cold predicts (structure cache
  cleared) alternate with bursts of warm ones.
* ``dse_sweep`` — a design-space sweep: 426 Megatron 7.5B plans on the
  flat fabric with an empty structure cache, then the rail what-if
  re-sweep of the same plans with every structure cached.
* ``served_mix`` — the resident daemon under a seeded request stream
  from two closed-loop connections.

End-to-end metrics (``--trace 0``, host time, tracing off) have one
meaning per workload:

============  ==================  ====================  ===================
metric        mtnlg_predict       dse_sweep             served_mix
============  ==================  ====================  ===================
setup_s       process start to    process start to      daemon spawn to
              ready, incl. the    ready, incl. one      ``ping`` answered
              profile-warming     warm-up sweep pair
              predict
peak_rss_mb   simulating process  simulating process    the daemon
cold_op_s     cold_predict_s      flat cold sweep       serve_miss_p50_s
              (median)            (median)              (first occurrence)
warm_op_s     warm_predict_s      rail what-if sweep    serve_hit_p50_s
              (median)            (median)              (repeats)
ops_per_s     predicts/s          plans/s               serve_req_per_s
============  ==================  ====================  ===================

Timings in the result line are normalized to the machine's speed: each
op's host time is divided by the reference loop timed just before and
after it (``common.reference_s``), because the host's speed drifts by
tens of percent while other tenants load it. The report above the
result line prints each timing both as measured and normalized, under
the per-workload names (``sweep_plans_per_s`` = plans / cold_op_s),
with sample counts, tail percentiles, the Table I accuracy and the
machine context. Every simulated output is checked against the
committed goldens in ``goldens/``; a mismatch is a failed op.
``setup_s`` is the median of several set-ups per run.

``--trace 1`` is a separate run that reports the per-layer metrics:
self time and counts per op pair (one request for served_mix), the
share of op time no layer explains, and the tracing overhead. It writes
a Chrome trace under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (ROOT, SRC, median, normalized,  # noqa: E402
                    reference_s)

SETUP_SAMPLES = 3
TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "cold_op_s": "s",
              "warm_op_s": "s", "ops_per_s": "1/s"}

PER_LAYER = {
    "memory.check_s": "s",
    "profiling.lookup_s": "s",
    "profiling.operators_profiled": "count",
    "network.collective_s": "s",
    "network.collective_calls": "count",
    "graph.builder_init_s": "s",
    "graph.structure_build_s": "s",
    "graph.tasks_built": "count",
    "graph.duration_fill_s": "s",
    "graph.structure_cache.hits": "count",
    "graph.structure_cache.misses": "count",
    "graph.structure_cache.evictions": "count",
    "sim.replay_s": "s",
    "sim.replay_batch_s": "s",
    "sim.batch_columns": "count",
    "sim.replay_tasks_per_s": "tasks/s",
    "sim.predict_self_s": "s",
    "dse.affinity_s": "s",
    "dse.evaluate_batch_self_s": "s",
    "dse.plans_infeasible": "count",
    "serve.transport_s": "s",
    "serve.admit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.execute_s.training": "s",
    "serve.execute_s.inference": "s",
    "serve.cache_served_frac": "ratio",
    "serve.coalesced_frac": "ratio",
    "serve.mean_batch_size": "jobs",
    "obs.tracing_overhead_frac": "ratio",
    "unaccounted_frac": "ratio",
}

WORKLOADS = ("mtnlg_predict", "dse_sweep", "served_mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _inproc(args) -> dict:
    """Spawn set-up probes, then let the last worker measure."""
    command = [sys.executable, str(HERE / "run.py"), "--worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probes = 1 if args.trace else SETUP_SAMPLES
    deadline = time.perf_counter() + TIMEOUT_S
    setups = []
    for probe in range(probes):
        last = probe == probes - 1
        ref = reference_s()
        start = time.perf_counter()
        worker = subprocess.Popen(command, cwd=ROOT, text=True,
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE)
        try:
            ready = worker.stdout.readline().strip()
            if ready != "READY":
                raise RuntimeError(f"worker failed to set up: {ready!r}")
            setups.append(normalized(time.perf_counter() - start, ref,
                                     reference_s()))
            output, _ = worker.communicate("go\n" if last else "exit\n",
                                           timeout=deadline
                                           - time.perf_counter())
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.communicate()
        if worker.returncode != 0:
            raise RuntimeError(f"worker exited with {worker.returncode}")
    lines = [line for line in output.splitlines()
             if line.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    if not args.trace:
        result["metrics"]["setup_s"] = median(setups)
        result["report"].insert(1, f"setup_s            {median(setups):.6f}"
                                   f" s  (normalized; median of "
                                   f"{len(setups)} process starts)")
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker:
        import inproc
        return inproc.worker(args.workload, args.seconds, bool(args.trace),
                             args.seed)
    if args.workload == "served_mix":
        import served
        result = served.run(args.seed, args.seconds, bool(args.trace),
                            list(PER_LAYER))
    else:
        result = _inproc(args)
    spec = PER_LAYER if args.trace else END_TO_END
    if set(result["metrics"]) != set(spec):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} do not "
                           f"match {sorted(spec)}")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in result["report"]:
        print(f"  {line}")
    for name, unit in spec.items():
        print(f"  {name:<34} {result['metrics'][name]:.6g} {unit}")
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in spec.items()}
    print(json.dumps({"correct": result["failed"] == 0
                      and result["attempted"] > 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

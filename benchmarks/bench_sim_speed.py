"""Section III-F: profiling cost and simulation speed.

The paper reports ~2 seconds per MT-NLG-scale simulation on a server CPU
and O(1) profiling cost thanks to the necessary-operator optimisation.
This bench measures our simulator's per-prediction latency at each graph
granularity (with warm profiles, the DSE regime), verifies the O(1)
profiling property, and gates the compiled replay core against
regressions:

* ``test_warm_predict_speedup_and_regression_gate`` measures a warm
  OPERATOR-granularity ``predict`` on the MT-NLG (8, 8, 35) plan — the
  structure-cache fast path (duration refill + compiled replay) — against
  the pre-split cost of the same prediction (full graph rebuild + the
  reference Algorithm-1 loop, both from ``tests/graph_oracle.py``). It
  asserts the >= 3x speedup the
  structure/timing split promises, appends the measurement to the perf
  trajectory in ``benchmarks/results/BENCH_sim_speed.json``, and fails
  if the warm-predict latency regressed more than 25 % against the
  committed baseline (the trajectory's first entry). The gated metric is
  the *ratio* warm/reference measured in the same process, so the gate
  is insensitive to how fast the CI machine happens to be.

* ``test_batch_retime_throughput_and_regression_gate`` measures batched
  replay throughput (retimes/s) on the same warm MT-NLG structure: N=64
  duration columns through one ``simulate_retimed_batch`` sweep against
  scalar ``simulate_retimed`` replays of the same columns. It asserts
  the >= 5x per-column speedup the vectorized engine promises, verifies
  the batch columns are bit-identical to the scalar replays it timed,
  appends to the ``batch_retime`` trajectory in the same JSON store,
  and fails if the batch-throughput ratio regressed more than 25 %
  against its committed baseline. Like the warm gate, the gated metric
  is a same-process ratio, insensitive to absolute machine speed. Its
  table also reports the tracemalloc peak of one N=64 call and its 64
  ``column()`` reads (``replay_peak_mb``), taken outside the timed
  rounds; it has no bound and is not stored.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke/perf lanes (fewer timing
rounds; the model and plan stay MT-NLG-sized so the gates measure the
real workload).
"""

import importlib.util
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from _helpers import QUICK, RESULTS_DIR, Bound, Trajectory, emit_table, timed

from repro.config.presets import (MT_NLG_530B, MT_NLG_BASELINE_PLANS,
                                  MT_NLG_TRAINING)
from repro.config.system import multi_node
from repro.graph.builder import Granularity
from repro.profiling.lookup import profile_table
from repro.sim.engine import simulate_retimed, simulate_retimed_batch
from repro.sim.estimator import VTrain

ORACLE = Path(__file__).parent.parent / "tests" / "graph_oracle.py"
_spec = importlib.util.spec_from_file_location("graph_oracle", ORACLE)
oracle = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = oracle  # dataclasses resolve the module by name
_spec.loader.exec_module(oracle)

PLAN = MT_NLG_BASELINE_PLANS[0]  # (8, 8, 35) on 2,240 GPUs

BENCH_FILE = RESULTS_DIR / "BENCH_sim_speed.json"
#: Allowed regression vs a committed baseline's gated ratio.
REGRESSION_HEADROOM = 1.25
#: Tighter bound for the observability instrumentation specifically:
#: with the obs switch off (the default), the instrumented warm-predict
#: path must stay within 3% of the committed baseline ratio, so spans
#: and histograms on the hot path can never silently tax the PR-3/PR-6
#: wins. (The 1.25x gate above still catches catastrophic regressions
#: when obs is force-enabled for a profiling run.)
OBS_DISABLED_HEADROOM = 1.03
#: Minimum speedup of the structure-cache warm path over a full
#: rebuild + reference replay (the acceptance bar for the split).
MIN_SPEEDUP = 3.0
#: Minimum per-column speedup of the batched sweep over scalar replays
#: (the acceptance bar for the vectorized batch-retime engine).
MIN_BATCH_SPEEDUP = 5.0
#: Columns per batched replay in the throughput gate.
BATCH_COLUMNS = 64

WARM_PREDICT = Trajectory(BENCH_FILE, "warm_predict", (
    Bound("speedup", floor=MIN_SPEEDUP),
    Bound("warm_over_reference", "lower", headroom=REGRESSION_HEADROOM),
    Bound("warm_over_reference", "lower", headroom=OBS_DISABLED_HEADROOM,
          obs_off_only=True),
))
BATCH_RETIME = Trajectory(BENCH_FILE, "batch_retime", (
    Bound("batch_speedup", floor=MIN_BATCH_SPEEDUP),
    Bound("batch_speedup", headroom=REGRESSION_HEADROOM),
))


def _simulator(granularity):
    system = multi_node(PLAN.total_gpus // 8)
    profile_table.cache_clear()  # the table holds this model's profiles only
    vtrain = VTrain(system, granularity=granularity)
    vtrain.predict(MT_NLG_530B, PLAN, MT_NLG_TRAINING)  # warm profiles
    return vtrain


def test_sim_speed_stage_granularity(benchmark):
    vtrain = _simulator(Granularity.STAGE)
    prediction = benchmark(
        lambda: vtrain.predict(MT_NLG_530B, PLAN, MT_NLG_TRAINING))
    stats = vtrain.profiling_stats
    emit_table("sim_speed_stage", "Simulation speed: STAGE granularity",
               [{"tasks": prediction.simulation.num_tasks,
                 "operators_profiled": stats["operators_profiled"],
                 "structure_cache_hits": stats["structure_cache_hits"]}],
               notes="paper: ~2 s per simulation on a 32-core CPU; the "
                     "stage fast path is what makes 200-second full-space "
                     "DSE possible")
    assert prediction.iteration_time > 0
    # O(1) profiling: a 105-layer, 240-micro-batch model profiled only a
    # handful of necessary operators.
    assert stats["operators_profiled"] < 20


def test_sim_speed_operator_granularity(benchmark):
    vtrain = _simulator(Granularity.OPERATOR)
    prediction = benchmark.pedantic(
        lambda: vtrain.predict(MT_NLG_530B, PLAN, MT_NLG_TRAINING),
        rounds=3, iterations=1)
    emit_table("sim_speed_operator",
               "Simulation speed: OPERATOR granularity",
               [{"tasks": prediction.simulation.num_tasks}])
    assert prediction.simulation.num_tasks > 100_000


def test_warm_predict_speedup_and_regression_gate():
    """Structure-cache warm predict vs pre-split rebuild-every-time."""
    rounds = 3 if QUICK else 5
    vtrain = _simulator(Granularity.OPERATOR)  # also caches the structure

    warm_s = min(timed(lambda: vtrain.predict(
        MT_NLG_530B, PLAN, MT_NLG_TRAINING)) for _ in range(rounds))
    assert vtrain.last_predict_timing.structure_cache_hit

    # What the same warm prediction cost before the split: rebuild the
    # ExecutionGraph from scratch, replay it with the reference engine.
    tick = time.perf_counter()
    graph = oracle.build_graph(vtrain, MT_NLG_530B, PLAN, MT_NLG_TRAINING)
    build_s = time.perf_counter() - tick
    replay_s = min(timed(lambda: oracle.simulate_reference(graph))
                   for _ in range(rounds))
    reference_s = build_s + replay_s

    speedup = reference_s / warm_s
    ratio = warm_s / reference_s
    entry = {
        "quick": QUICK,
        "tasks": len(graph),
        "warm_predict_s": round(warm_s, 6),
        "reference_s": round(reference_s, 6),
        "speedup": round(speedup, 3),
        "warm_over_reference": round(ratio, 6),
    }

    baseline = WARM_PREDICT.baseline()
    emit_table("sim_speed_warm",
               "Warm predict: structure cache vs full rebuild",
               [entry | {"baseline_ratio": baseline["warm_over_reference"]}],
               notes="warm = memory check + duration refill + compiled "
                     "replay; reference = graph rebuild + reference "
                     "Algorithm-1 loop (the pre-split warm-predict cost)")

    WARM_PREDICT.check(baseline, speedup=speedup, warm_over_reference=ratio)
    WARM_PREDICT.record(entry)


def test_batch_retime_throughput_and_regression_gate():
    """Batched replay (N=64) vs scalar replays of the same columns."""
    rounds = 3 if QUICK else 5
    scalar_columns = 8 if QUICK else 16
    vtrain = _simulator(Granularity.OPERATOR)
    prepared = vtrain.prepare(MT_NLG_530B, PLAN, MT_NLG_TRAINING)
    structure = prepared.structure

    # A realistic retiming batch: per-column perturbations of the warm
    # duration vector, as a DSE affinity group or a testbed sampling
    # campaign would submit.
    base = np.asarray(prepared.durations, dtype=np.float64)
    rng = np.random.default_rng(0)
    matrix = np.ascontiguousarray(
        base[:, None] * rng.uniform(0.9, 1.1,
                                    (structure.num_tasks, BATCH_COLUMNS)))
    structure.level_plan().packed()  # build the level plan outside timing

    scalar_results = [simulate_retimed(structure,
                                       np.ascontiguousarray(matrix[:, col]))
                      for col in range(scalar_columns)]
    scalar_s = min(timed(lambda: [
        simulate_retimed(structure, np.ascontiguousarray(matrix[:, col]))
        for col in range(scalar_columns)]) for _ in range(rounds))
    scalar_per_retime = scalar_s / scalar_columns

    batch = simulate_retimed_batch(structure, matrix)
    batch_s = min(timed(lambda: simulate_retimed_batch(structure, matrix))
                  for _ in range(rounds))
    batch_per_retime = batch_s / BATCH_COLUMNS

    # The speedup only counts if the batch really is the same replay.
    for col, scalar in enumerate(scalar_results):
        assert batch.makespans[col] == scalar.iteration_time, col
    del batch

    # Peak memory of one call and its column reads, traced outside the
    # timed rounds (tracemalloc slows every allocation).
    tracemalloc.start()
    try:
        batch = simulate_retimed_batch(structure, matrix)
        for col in range(BATCH_COLUMNS):
            batch.column(col)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    speedup = scalar_per_retime / batch_per_retime
    entry = {
        "quick": QUICK,
        "tasks": structure.num_tasks,
        "batch_columns": BATCH_COLUMNS,
        "retimes_per_s_scalar": round(1.0 / scalar_per_retime, 3),
        "retimes_per_s_batch": round(BATCH_COLUMNS / batch_s, 3),
        "scalar_retime_s": round(scalar_per_retime, 6),
        "batch_retime_s_per_column": round(batch_per_retime, 6),
        "batch_speedup": round(speedup, 3),
    }

    baseline = BATCH_RETIME.baseline()
    emit_table("sim_speed_batch",
               "Batched retime: one N=64 sweep vs scalar replays",
               [entry | {"baseline_speedup": baseline["batch_speedup"],
                         "replay_peak_mb": round(peak_mb, 1)}],
               notes="retimes/s on the warm MT-NLG (8, 8, 35) OPERATOR "
                     "structure; batch columns verified bit-identical "
                     "to the scalar replays they are timed against; "
                     "replay_peak_mb is the tracemalloc peak of one "
                     "N=64 call and its 64 column() reads (informational, "
                     "not stored)")

    BATCH_RETIME.check(baseline, batch_speedup=speedup)
    BATCH_RETIME.record(entry)

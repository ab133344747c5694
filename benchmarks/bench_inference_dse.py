"""Serving DSE: the TP x PP sweep and the warm decode-predict gate.

The workload abstraction's perf story, measured on the GPT-3 175B
preset:

* ``test_inference_dse_sweep_writes_store`` runs the serving
  design-space sweep (``repro dse --workload inference``'s engine) over
  TP x PP x replica plans, checks the vLLM-style trade-off shows up —
  at matched GPU counts the TP-heavy plan wins time-per-output-token
  while the replica-heavy plan wins tokens/s — and snapshots the
  Pareto frontier over (tokens/s, cost per million output tokens) into
  ``benchmarks/results/BENCH_inference_dse.json``.

* ``test_warm_decode_predict_latency_gate`` measures a warm
  ``predict_inference`` (both phase structures already in the
  process-wide structure cache, so the call is two duration refills
  plus two compiled replays) against a cold one that compiles both
  phase graphs from scratch. It asserts the warm path keeps a >= 2x
  advantage, appends the ratio to the gated trajectory in the same
  store, and fails if warm/cold regressed more than 25 % against the
  committed baseline (``entries[0]``). The cold predict also starts
  from empty profile and communication-model stores, so it profiles
  and costs from scratch whatever ran before it. The gated metric is a
  same-process ratio, insensitive to absolute machine speed.

Set ``REPRO_BENCH_QUICK=1`` for the CI perf lane (smaller sweep, fewer
timing rounds; the model stays GPT-3-sized so the gate measures the
real workload).
"""

from _helpers import (QUICK, RESULTS_DIR, Bound, Trajectory, emit_table,
                      load_store, save_store, timed)

from repro.config.parallelism import ParallelismConfig
from repro.config.presets import GPT3_175B
from repro.config.system import multi_node
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.space import SearchSpace
from repro.graph.builder import Granularity, clear_structure_cache
from repro.network.model import nccl_model_for
from repro.profiling.lookup import profile_table
from repro.sim.estimator import VTrain
from repro.workload import InferenceWorkload

BENCH_FILE = RESULTS_DIR / "BENCH_inference_dse.json"
#: Allowed regression vs the committed baseline's warm/cold ratio.
REGRESSION_HEADROOM = 1.25
#: Minimum speedup of a warm (structure-cached) predict_inference over
#: a cold one that compiles both phase graphs.
MIN_WARM_SPEEDUP = 2.0

WORKLOAD = InferenceWorkload(batch_size=16, prompt_len=512, gen_len=128)
#: Warm-gate plan: TP across one node, two pipeline stages (16 GPUs).
GATE_PLAN = ParallelismConfig(tensor=8, data=1, pipeline=2,
                              micro_batch_size=16)

WARM_DECODE = Trajectory(BENCH_FILE, "warm_decode", (
    Bound("speedup", floor=MIN_WARM_SPEEDUP),
    Bound("warm_over_cold", "lower", headroom=REGRESSION_HEADROOM),
))


def test_inference_dse_sweep_writes_store():
    """TP x PP serving sweep on GPT-3; snapshot the Pareto frontier."""
    max_gpus = 16 if QUICK else 32
    space = SearchSpace(max_tensor=8, max_data=2 if QUICK else 4,
                        max_pipeline=8)
    explorer = DesignSpaceExplorer(GPT3_175B, None, workload=WORKLOAD)
    result = explorer.explore(space=space, max_gpus=max_gpus)
    assert result.num_feasible > 0

    # The vLLM trade-off at matched GPU counts: among equal-size
    # feasible plans, the lowest-TPOT plan is at least as TP-heavy as
    # the highest-throughput plan, which is at least as replica-heavy.
    by_size: dict[int, list] = {}
    for point in result.feasible_points:
        by_size.setdefault(point.num_gpus, []).append(point)
    checked = 0
    for points in by_size.values():
        ways = {point.plan.way for point in points}
        if len(ways) < 2:
            continue
        fastest = min(points, key=lambda p: p.tpot_s)
        fattest = max(points, key=lambda p: p.tokens_per_s)
        assert fastest.plan.tensor >= fattest.plan.tensor
        assert fattest.plan.data >= fastest.plan.data
        checked += 1
    assert checked > 0

    frontier = result.serving_pareto_frontier()
    assert frontier
    pareto_rows = [{
        "tensor": point.plan.tensor,
        "data": point.plan.data,
        "pipeline": point.plan.pipeline,
        "micro_batch": point.plan.micro_batch_size,
        "num_gpus": point.num_gpus,
        "ttft_s": round(point.ttft_s, 6),
        "tpot_s": round(point.tpot_s, 6),
        "tokens_per_s": round(point.tokens_per_s, 3),
        "cost_per_million_tokens_usd": round(
            point.cost_per_million_tokens(), 4),
    } for point in frontier]
    emit_table("inference_dse_pareto",
               "Serving DSE: Pareto frontier (tokens/s vs $/Mtok)",
               pareto_rows,
               notes="GPT-3 175B, batch=16 prompt=512 gen=128; raising "
                     "TP buys TPOT at a worse cost rate, replicas buy "
                     "tokens/s at an unchanged rate")

    store = load_store(BENCH_FILE)
    store["sweep"] = {
        "quick": QUICK,
        "model": GPT3_175B.name,
        "batch_size": WORKLOAD.batch_size,
        "prompt_len": WORKLOAD.prompt_len,
        "gen_len": WORKLOAD.gen_len,
        "max_gpus": max_gpus,
        "plans": len(result.points),
        "feasible": result.num_feasible,
        "pareto": pareto_rows,
    }
    save_store(BENCH_FILE, store)


def test_warm_decode_predict_latency_gate():
    """Warm predict_inference (structure-cache hit) vs cold compile."""
    rounds = 3 if QUICK else 5
    system = multi_node(GATE_PLAN.total_gpus // 8)
    # Cold means from scratch: no profiles, costs or structures, even
    # after the sweep test has filled the process's stores.
    profile_table.cache_clear()
    nccl_model_for.cache_clear()
    vtrain = VTrain(system, granularity=Granularity.OPERATOR)

    clear_structure_cache()
    cold_s = timed(lambda: vtrain.predict_inference(GPT3_175B, GATE_PLAN,
                                                    WORKLOAD))
    prediction = vtrain.predict_inference(GPT3_175B, GATE_PLAN, WORKLOAD)
    warm_s = min(timed(lambda: vtrain.predict_inference(
        GPT3_175B, GATE_PLAN, WORKLOAD)) for _ in range(rounds))

    speedup = cold_s / warm_s
    ratio = warm_s / cold_s
    entry = {
        "quick": QUICK,
        "tasks": prediction.decode_simulation.num_tasks,
        "cold_predict_s": round(cold_s, 6),
        "warm_predict_s": round(warm_s, 6),
        "speedup": round(speedup, 3),
        "warm_over_cold": round(ratio, 6),
    }

    baseline = WARM_DECODE.baseline()
    emit_table("inference_dse_warm",
               "Warm decode predict: structure cache vs phase compile",
               [entry | {"baseline_ratio": baseline["warm_over_cold"]}],
               notes="warm = KV memory check + two duration refills + "
                     "two compiled replays on the cached prefill/decode "
                     "structures; cold compiles both phase graphs")

    WARM_DECODE.check(baseline, speedup=speedup, warm_over_cold=ratio)
    WARM_DECODE.record(entry)

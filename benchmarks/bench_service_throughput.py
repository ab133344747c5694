"""Serving-tier throughput: the ``repro serve`` daemon vs one-shot CLI.

The daemon exists to amortise everything a one-shot ``repro predict``
pays on every invocation — interpreter start, profile warmup, graph
construction — across requests, and to stay fast *under concurrency*
via in-flight dedup, micro-batching, and the shared prediction cache.
This bench measures and gates exactly that:

* ``test_service_throughput_and_gates`` starts an in-process daemon,
  drives N concurrent TCP clients over a mixed plan workload, and
  reports req/s plus the daemon's own p50/p99 latency quantiles (from
  the ``serve.*`` instruments on the :mod:`repro.obs` registry, read
  through the ``stats`` endpoint — the same numbers operators see).
  Gates:

  - **dedup correctness** — a burst of identical concurrent predicts
    from distinct connections runs *exactly one* simulation;
  - **warm speedup** — a served warm predict beats a cold one-shot CLI
    invocation of the same prediction by >= 10x;
  - **throughput floor** — the concurrent warm phase sustains a modest
    absolute req/s floor (loopback TCP + cache hits; generous against
    CI machine variance);
  - **regression** — the warm speedup must stay within headroom of the
    committed baseline (``entries[0]`` of the ``warm_served``
    trajectory).

Measurements append to that trajectory in
``benchmarks/results/BENCH_service_throughput.json`` (schema:
``schemas/bench_store.schema.json``, checked by
``benchmarks/validate_artifacts.py``). Set
``REPRO_BENCH_QUICK=1`` in CI smoke/perf lanes for fewer clients and
rounds.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from _helpers import QUICK, RESULTS_DIR, Bound, Trajectory, emit_table

from repro import obs
from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import single_node
from repro.graph.builder import clear_structure_cache
from repro.serve import PredictionService, ServeClient, ServeDaemon

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A served warm predict must beat a cold one-shot CLI invocation of
#: the same prediction by at least this factor (the PR's acceptance
#: bar; in practice the gap is orders of magnitude).
MIN_WARM_SPEEDUP = 10.0
#: Absolute floor on concurrent warm throughput — loopback TCP round
#: trips answered from the prediction cache. Deliberately far below
#: what any machine measures, so the gate catches a serialisation bug
#: (e.g. the daemon accidentally handling connections sequentially
#: against a slow path), not CI noise.
MIN_WARM_REQ_PER_S = 25.0
#: Allowed shrink of the warm speedup vs the committed baseline.
#: Generous because the cold side is a subprocess measurement.
REGRESSION_HEADROOM = 2.0

WARM_SERVED = Trajectory(
    RESULTS_DIR / "BENCH_service_throughput.json", "warm_served", (
        Bound("warm_speedup", floor=MIN_WARM_SPEEDUP),
        Bound("req_per_s", floor=MIN_WARM_REQ_PER_S),
        Bound("warm_speedup", headroom=REGRESSION_HEADROOM),
    ))

#: Cold/warm comparison workload: one preset prediction the CLI can
#: run in a single shot.
PRESET = "megatron-1.7b"

CLIENTS = 4 if QUICK else 8
REQUESTS_PER_CLIENT = 25 if QUICK else 50
COLD_ROUNDS = 1 if QUICK else 2
WARM_ROUNDS = 20 if QUICK else 50
DEDUP_BURST = 8


def _tiny_workload() -> list[dict]:
    """A mixed bag of distinct feasible plans on one node (distinct
    fingerprints, so the throughput phase exercises compute, dedup,
    batching, and cache-serve paths rather than one hot key)."""
    model = ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                        num_heads=8, vocab_size=32_000, name="tiny")
    system = single_node()
    training = TrainingConfig(global_batch_size=16)
    plans = [(2, 2, 2, 2), (1, 4, 2, 1), (4, 2, 1, 2), (2, 4, 1, 1),
             (1, 2, 4, 2), (8, 1, 1, 1), (1, 8, 1, 2), (4, 1, 2, 1)]
    requests = []
    for tensor, data, pipeline, micro in plans:
        description = InputDescription(
            model=model, system=system,
            plan=ParallelismConfig(tensor=tensor, data=data,
                                   pipeline=pipeline,
                                   micro_batch_size=micro),
            training=training)
        requests.append({"description": description.to_dict(),
                         "granularity": "stage"})
    return requests


def _cold_predict_s() -> float:
    """Wall time of one cold one-shot CLI prediction (interpreter
    start + profile warmup + graph build + replay — everything the
    daemon amortises)."""
    env = os.environ.get("PYTHONPATH", "")
    src = str(REPO_ROOT / "src")
    child_env = dict(os.environ,
                     PYTHONPATH=f"{src}{os.pathsep}{env}" if env else src)
    best = float("inf")
    for _ in range(COLD_ROUNDS):
        tick = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "repro", "predict", "--preset", PRESET,
             "--granularity", "stage"],
            capture_output=True, text=True, cwd=REPO_ROOT, env=child_env)
        elapsed = time.perf_counter() - tick
        assert result.returncode == 0, result.stderr
        best = min(best, elapsed)
    return best


def _drive_clients(address: tuple, requests: list[dict]) -> float:
    """N concurrent clients each issue the workload round-robin;
    returns the wall time of the whole phase."""
    host, port = address
    barrier = threading.Barrier(CLIENTS + 1)
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        try:
            with ServeClient.connect(host, port, timeout=10.0) as client:
                barrier.wait()
                for i in range(REQUESTS_PER_CLIENT):
                    params = requests[(offset + i) % len(requests)]
                    client.predict(**{"description": params["description"],
                                      "granularity": params["granularity"]})
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    tick = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - tick
    assert not errors, errors[0]
    return elapsed


def _dedup_burst(address: tuple, request: dict) -> list[dict]:
    """A burst of identical concurrent predicts from distinct
    connections; returns every client's response payload."""
    host, port = address
    results: list[dict] = [None] * DEDUP_BURST
    barrier = threading.Barrier(DEDUP_BURST)
    errors: list[BaseException] = []

    def worker(slot: int) -> None:
        try:
            with ServeClient.connect(host, port, timeout=10.0) as client:
                barrier.wait()
                results[slot] = client.predict(
                    description=request["description"],
                    granularity=request["granularity"])
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(DEDUP_BURST)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]
    return results


def test_service_throughput_and_gates():
    clear_structure_cache()
    obs.reset()

    # -- Cold: what every one-shot CLI invocation pays. ------------------
    cold_s = _cold_predict_s()

    service = PredictionService()
    daemon = ServeDaemon(service, port=0)
    daemon.start()
    try:
        address = daemon.address
        workload = _tiny_workload()

        # -- Dedup correctness gate. -------------------------------------
        burst = _dedup_burst(address, workload[0])
        simulations = service.stats()["batch"]["jobs"]
        assert simulations == 1, (
            f"{DEDUP_BURST} identical concurrent predicts ran "
            f"{simulations} simulations (want exactly 1)")
        payloads = [{k: v for k, v in r.items() if k != "served"}
                    for r in burst]
        assert all(p == payloads[0] for p in payloads), (
            "coalesced responses differ from the leader's")

        # -- Concurrent throughput over the mixed workload. --------------
        elapsed = _drive_clients(address, workload)
        total_requests = CLIENTS * REQUESTS_PER_CLIENT
        req_per_s = total_requests / elapsed

        # -- Warm single-request latency vs the cold CLI. ----------------
        with ServeClient.connect(*address, timeout=10.0) as client:
            warm_s = float("inf")
            for _ in range(WARM_ROUNDS):
                tick = time.perf_counter()
                client.predict(preset=PRESET, granularity="stage")
                warm_s = min(warm_s, time.perf_counter() - tick)
            stats = client.stats()
    finally:
        daemon.stop()
        service.close()

    speedup = cold_s / warm_s
    predict_total = stats["requests"]["predict"]
    dedup = stats["dedup"]
    batch = stats["batch"]
    coalesced_rate = dedup["coalesced"] / predict_total
    cache_rate = dedup["cache_served"] / predict_total
    mean_batch = (batch["jobs"] / batch["flushes"]
                  if batch["flushes"] else 0.0)
    latency = stats["latency"]["predict_s"]

    entry = {
        "quick": QUICK,
        "clients": CLIENTS,
        "requests": total_requests,
        "cold_predict_s": round(cold_s, 6),
        "warm_predict_s": round(warm_s, 6),
        "warm_speedup": round(speedup, 3),
        "req_per_s": round(req_per_s, 3),
        "p50_s": round(latency["p50"], 6),
        "p99_s": round(latency["p99"], 6),
        "dedup_coalesced_rate": round(coalesced_rate, 4),
        "cache_served_rate": round(cache_rate, 4),
        "mean_batch_size": round(mean_batch, 3),
    }

    baseline = WARM_SERVED.baseline()
    emit_table(
        "service_throughput",
        "Serving tier: warm daemon vs cold one-shot CLI",
        [entry | {"baseline_speedup": baseline["warm_speedup"]}],
        notes="cold = full `repro predict` subprocess; warm = one predict "
              "round trip against the resident daemon (loopback TCP); "
              "p50/p99 from the daemon's serve.predict_s histogram")

    WARM_SERVED.check(baseline, warm_speedup=speedup, req_per_s=req_per_s)
    WARM_SERVED.record(entry)
    obs.reset()

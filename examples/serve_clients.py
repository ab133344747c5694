"""Serving tier in action: N concurrent clients against one daemon.

Starts a `repro serve` daemon in-process, then drives it from several
concurrent client threads the way a hyperparameter service or a
cluster scheduler would: a burst of *identical* requests (showing
in-flight dedup collapse them onto one simulation), a spread of
*distinct* plans (micro-batched into vectorized sweeps), and a repeat
wave (answered from the shared prediction cache). Finishes with the
daemon's own stats: req/s, latency quantiles, and hit rates.

Run:
    python examples/serve_clients.py
"""

import threading
import time

from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import single_node
from repro.serve import PredictionService, ServeClient, ServeDaemon

NUM_CLIENTS = 6


def build_requests() -> list[dict]:
    """Distinct feasible plans for a small model on one 8-GPU node."""
    model = ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                        num_heads=8, vocab_size=32_000, name="tiny")
    system = single_node()
    training = TrainingConfig(global_batch_size=16)
    plans = [(2, 2, 2, 2), (1, 4, 2, 1), (4, 2, 1, 2),
             (2, 4, 1, 1), (1, 2, 4, 2), (8, 1, 1, 1)]
    return [InputDescription(
        model=model, system=system,
        plan=ParallelismConfig(tensor=t, data=d, pipeline=p,
                               micro_batch_size=m),
        training=training).to_dict()
        for t, d, p, m in plans]


def run_wave(label: str, address: tuple, per_client) -> None:
    """One wave: every client thread opens its own connection and runs
    ``per_client(client, index)`` simultaneously."""
    host, port = address
    barrier = threading.Barrier(NUM_CLIENTS)
    outputs: list = [None] * NUM_CLIENTS

    def worker(slot: int) -> None:
        with ServeClient.connect(host, port, timeout=10.0) as client:
            barrier.wait()
            outputs[slot] = per_client(client, slot)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(NUM_CLIENTS)]
    tick = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - tick
    times = sorted({f"{out['iteration_time'] * 1e3:.4f} ms"
                    for out in outputs if out})
    print(f"  {label}: {NUM_CLIENTS} clients in {elapsed * 1e3:.1f} ms; "
          f"distinct answers: {times}")


def main() -> None:
    service = PredictionService()
    daemon = ServeDaemon(service, port=0)
    daemon.start()
    address = daemon.address
    print(f"Daemon listening on {address[0]}:{address[1]}")
    requests = build_requests()

    try:
        print("\nWave 1 — identical concurrent predicts (in-flight dedup):")
        run_wave("identical burst", address,
                 lambda client, slot: client.predict(
                     description=requests[0], granularity="stage"))
        simulations = service.stats()["batch"]["jobs"]
        print(f"  simulations actually run: {simulations} "
              f"(the other {NUM_CLIENTS - 1} coalesced)")

        print("\nWave 2 — distinct plans (micro-batched replay):")
        run_wave("distinct plans", address,
                 lambda client, slot: client.predict(
                     description=requests[slot % len(requests)],
                     granularity="stage"))

        print("\nWave 3 — everything again (prediction-cache serves):")
        run_wave("repeat wave", address,
                 lambda client, slot: client.predict(
                     description=requests[slot % len(requests)],
                     granularity="stage"))

        with ServeClient.connect(*address, timeout=10.0) as client:
            stats = client.stats()
        requests_stats = stats["requests"]
        dedup = stats["dedup"]
        batch = stats["batch"]
        latency = stats["latency"]["predict_s"]
        print("\nDaemon stats:")
        print(f"  requests        : {requests_stats['total']} "
              f"({requests_stats['per_second']:.0f} req/s lifetime)")
        print(f"  predict latency : p50 {latency['p50'] * 1e3:.2f} ms, "
              f"p99 {latency['p99'] * 1e3:.2f} ms")
        print(f"  dedup           : {dedup['leaders']} computed, "
              f"{dedup['coalesced']} coalesced, "
              f"{dedup['cache_served']} cache-served")
        print(f"  batching        : {batch['jobs']} jobs in "
              f"{batch['flushes']} flushes")
        print(f"  structure cache : "
              f"{stats['structure_cache']['entries']} entries, "
              f"{stats['structure_cache']['hits']} hits")
    finally:
        daemon.stop()
        service.close()
    print("\nOne resident process, many callers: the warm caches and the "
          "dedup/batching admission path are what a scheduler or notebook "
          "fleet shares through `repro serve`.")


if __name__ == "__main__":
    main()

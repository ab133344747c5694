"""Sweep-engine speed: serial vs parallel vs warm-cache exploration.

The paper's headline is sweeping the full MT-NLG design space "in under
200 seconds"; plan evaluations are independent, so the parallel engine
should approach linear speedup with workers, and a warm
:class:`PredictionCache` should answer a repeated sweep without running
the simulator at all. This bench measures all three regimes on a
mid-size model sweep and checks the determinism contract (parallel
results bit-identical to serial).

Set ``REPRO_BENCH_QUICK=1`` to shrink the swept space for CI smoke runs.
"""

import os
import time

from _helpers import QUICK, emit_table

from repro.config.presets import MEGATRON_7_5B
from repro.config.parallelism import TrainingConfig
from repro.dse.cache import PredictionCache
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.space import SearchSpace
from repro.graph.builder import structure_cache_stats

TRAINING = TrainingConfig(global_batch_size=128)
SPACE = (SearchSpace(max_tensor=8, max_data=8, max_pipeline=6,
                     micro_batch_sizes=(1, 2))
         if QUICK else
         SearchSpace(max_tensor=16, max_data=16, max_pipeline=12,
                     micro_batch_sizes=(1, 2, 4)))
MAX_GPUS = 64 if QUICK else 256
WORKERS = min(4, os.cpu_count() or 1)


def test_parallel_sweep_matches_serial_and_cache_skips_work(benchmark):
    serial = DesignSpaceExplorer(MEGATRON_7_5B, TRAINING)
    start = time.perf_counter()
    serial_result = serial.explore(max_gpus=MAX_GPUS, space=SPACE)
    serial_s = time.perf_counter() - start

    cache = PredictionCache()
    engine = DesignSpaceExplorer(MEGATRON_7_5B, TRAINING)
    start = time.perf_counter()
    parallel_result = engine.explore(max_gpus=MAX_GPUS, space=SPACE,
                                     workers=WORKERS, cache=cache)
    parallel_s = time.perf_counter() - start
    assert parallel_result.points == serial_result.points

    warm = DesignSpaceExplorer(MEGATRON_7_5B, TRAINING)
    # A warm sweep answers from the cache in milliseconds, so one round
    # is one noisy sample: the reading is taken over five, and every
    # round must answer every plan from the cache.
    rounds, hits, misses = 5, cache.hits, cache.misses
    warm_result = benchmark.pedantic(
        lambda: warm.explore(max_gpus=MAX_GPUS, space=SPACE,
                             workers=WORKERS, cache=cache),
        rounds=rounds, iterations=1)
    assert warm_result.points == serial_result.points
    assert cache.hits >= len(serial_result.points)
    assert cache.misses == misses
    assert cache.hits - hits == rounds * len(serial_result.points)

    structure_stats = structure_cache_stats()
    emit_table("dse_parallel", "Sweep engine: serial vs parallel vs cache",
               [{"plans": len(serial_result.points),
                 "workers": WORKERS,
                 "serial_s": serial_s,
                 "parallel_s": parallel_s,
                 "speedup": serial_s / parallel_s if parallel_s else 0.0,
                 "cache_hits": cache.hits,
                 "structure_reuse": structure_stats["hits"],
                 "structures_built": structure_stats["misses"]}],
               notes="warm-cache sweep time is the benchmarked quantity; "
                     "it runs zero simulations. structure_reuse counts "
                     "plans in this process that re-timed an "
                     "already-compiled graph topology instead of "
                     "rebuilding it")
    benchmark.extra_info["plans"] = len(serial_result.points)
    benchmark.extra_info["workers"] = WORKERS

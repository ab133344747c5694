"""Ablation: run-to-run noise magnitude vs measurement spread (Section IV).

The paper treats a real iteration as essentially deterministic, yet its
error analysis names per-kernel jitter as one of the residual sources.
This bench sweeps the emulated testbed's kernel-jitter amplitude and
quantifies how iteration-level spread responds: per-kernel noise is
heavily averaged by the thousands of kernels on the critical path, so
iteration-level variation stays far below the kernel-level amplitude —
the paper's justification for single-iteration measurements.

The sampling runs through ``TestbedEmulator.measure_samples``: all K
perturbed duration vectors of one configuration replay on the engine
``use_batched_replay`` picks for K columns of that structure (either
engine bit-identical to scalar measurements, sample 0 to ``measure()``
itself), so the sweep also exercises the measurement path end to end.
"""

import dataclasses
import os
import statistics

from _helpers import emit_table

from repro.sim.estimator import VTrain
from repro.testbed.emulator import TestbedConfig, TestbedEmulator
from repro.validation.campaigns import single_node_points

JITTERS = (0.0, 0.02, 0.05, 0.10)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
NUM_SAMPLES = 8 if QUICK else 16
NUM_POINTS = 3 if QUICK else 6


def _spread_pct(times):
    """Coefficient of variation of one sample campaign, in percent."""
    mean = statistics.fmean(times)
    return 100.0 * statistics.pstdev(times) / mean


def run_noise_sweep():
    stride = 120 // NUM_POINTS
    points = single_node_points(limit=120)[::stride][:NUM_POINTS]
    vtrain = VTrain(points[0].system(), check_memory_feasibility=False)
    rows = []
    for jitter in JITTERS:
        config = dataclasses.replace(TestbedConfig(), kernel_jitter=jitter)
        emulator = TestbedEmulator(points[0].system(), config=config)
        spreads = []
        gaps = []
        for point in points:
            samples = emulator.measure_samples(
                point.model, point.plan, point.training, NUM_SAMPLES
            )
            assert samples[0] == emulator.measure(point.model, point.plan, point.training)
            times = [sample.iteration_time for sample in samples]
            spreads.append(_spread_pct(times))
            predicted = vtrain.predict(point.model, point.plan, point.training).iteration_time
            gaps.append(100.0 * abs(statistics.fmean(times) - predicted) / predicted)
        rows.append(
            {
                "kernel_jitter_pct": 100.0 * jitter,
                "samples": NUM_SAMPLES,
                "iteration_spread_pct": statistics.fmean(spreads),
                "mean_gap_vs_predicted_pct": statistics.fmean(gaps),
            }
        )
    return rows


def test_ablation_noise_sweep(benchmark):
    rows = benchmark.pedantic(run_noise_sweep, rounds=1, iterations=1)
    emit_table(
        "ablation_noise",
        "Ablation: kernel-jitter amplitude vs iteration-level spread",
        rows,
        notes=f"{NUM_SAMPLES} batched samples per point over {NUM_POINTS} "
        "single-node configurations; spread = stdev/mean of the sample "
        "campaign (batched measurement path)",
    )
    spread = {row["kernel_jitter_pct"]: row["iteration_spread_pct"] for row in rows}
    # Kernel jitter drives iteration-level spread: turning the knob up
    # must widen the campaign's sample distribution.
    assert spread[10.0] > spread[0.0]
    # ...but averaging across the critical path keeps the iteration-level
    # spread well under the kernel-level amplitude.
    assert spread[10.0] < 10.0
    # With kernel jitter off, the only run-to-run variation left is the
    # per-iteration overhead draw — the spread collapses to near zero.
    assert spread[0.0] < 1.0


def test_samples_are_deterministic():
    point = single_node_points(limit=1)[0]
    emulator = TestbedEmulator(point.system())
    first = emulator.measure_samples(point.model, point.plan, point.training, 4)
    second = emulator.measure_samples(point.model, point.plan, point.training, 4)
    assert first == second
    assert len({sample.iteration_time for sample in first}) == 4

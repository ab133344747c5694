"""Ablation: the bandwidth-effectiveness factor alpha (Section IV).

The paper sweeps alpha from 0.1 to 1.0 and finds prediction error
minimised at alpha = 1.0 — its cluster is a *non-blocking* fat tree, so
the full nominal inter-node bandwidth is achievable and no derating
helps. The same sweep run against a cluster with the dynamic
interference effects the paper's future-work section describes (shared
ToR uplinks, concurrent DP groups) fits alpha < 1: the knob absorbs
unmodelled communication slowdowns.

This bench runs both regimes on our testbed emulator:

* ``contention-free`` — interference effects disabled: the paper's
  setting; the sweep must bottom out at alpha ~ 1.0.
* ``contended`` — the default emulated cluster; the fitted alpha drops
  below 1.0, quantifying how much effective bandwidth the interference
  costs.
"""

import dataclasses

import numpy as np
from _helpers import emit_table

from repro.graph.builder import Granularity
from repro.sim.engine import (simulate_retimed, simulate_retimed_batch,
                              use_batched_replay)
from repro.sim.estimator import VTrain
from repro.testbed.emulator import TestbedConfig, TestbedEmulator
from repro.validation.campaigns import multi_node_points
from repro.validation.metrics import mape

ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)


def _sweep(points, testbed_config):
    measured = []
    testbeds = {}
    for point in points:
        key = point.num_nodes
        if key not in testbeds:
            testbeds[key] = TestbedEmulator(point.system(),
                                            config=testbed_config)
        measured.append(testbeds[key].measure_time(point.model, point.plan,
                                                   point.training))
    # Alpha only rescales communication durations — all five deratings
    # of one point share one compiled structure, so each point is a
    # natural batch: five duration columns, replayed on the engine the
    # width rule picks for them (either is bit-identical per column).
    simulators = {}
    predicted = {alpha: [] for alpha in ALPHAS}
    for point in points:
        prepared_by_alpha = []
        for alpha in ALPHAS:
            key = (point.num_nodes, alpha)
            if key not in simulators:
                system = dataclasses.replace(point.system(),
                                             bandwidth_effectiveness=alpha)
                simulators[key] = VTrain(system,
                                         granularity=Granularity.OPERATOR,
                                         check_memory_feasibility=False)
            prepared_by_alpha.append(
                simulators[key].prepare(point.model, point.plan,
                                        point.training))
        groups = {}
        for alpha, prepared in zip(ALPHAS, prepared_by_alpha):
            groups.setdefault(id(prepared.structure),
                              []).append((alpha, prepared))
        for group in groups.values():
            structure = group[0][1].structure
            if use_batched_replay(structure, len(group)):
                matrix = np.stack([prepared.durations
                                   for _, prepared in group], axis=1)
                makespans = simulate_retimed_batch(
                    structure, matrix).iteration_times()
            else:
                makespans = [simulate_retimed(
                    structure, prepared.durations).iteration_time
                    for _, prepared in group]
            for (alpha, _), makespan in zip(group, makespans):
                predicted[alpha].append(makespan)
    return {alpha: mape(measured, predicted[alpha]) for alpha in ALPHAS}


def run_alpha_sweep():
    points = [p for p in multi_node_points() if p.plan.data >= 8][::6]
    rows = []
    fitted = {}
    for regime, config in (("contention-free",
                            TestbedConfig().without_interference()),
                           ("contended", TestbedConfig())):
        errors = _sweep(points, config)
        fitted[regime] = min(errors, key=errors.get)
        for alpha in ALPHAS:
            rows.append({"regime": regime, "alpha": alpha,
                         "mape_pct": errors[alpha]})
    return rows, fitted


def test_ablation_alpha_sweep(benchmark):
    rows, fitted = benchmark.pedantic(run_alpha_sweep, rounds=1, iterations=1)
    emit_table("ablation_alpha",
               "Ablation: bandwidth-effectiveness factor sweep (Section IV)",
               rows,
               notes=f"fitted alpha: {fitted}; the paper's non-blocking "
                     "fat tree corresponds to the contention-free regime "
                     "(alpha = 1.0)")
    # Paper regime: nothing beats the full nominal bandwidth.
    assert fitted["contention-free"] >= 0.8
    clean = {row["alpha"]: row["mape_pct"] for row in rows
             if row["regime"] == "contention-free"}
    assert clean[1.0] < clean[0.2]
    # Interference shifts the fitted alpha below 1.0 — the knob absorbs
    # unmodelled comm slowdowns, as the paper's future work anticipates.
    assert fitted["contended"] < fitted["contention-free"]
    benchmark.extra_info["fitted"] = {k: float(v) for k, v in fitted.items()}

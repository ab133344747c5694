"""Helpers shared by the benchmark's workloads: statistics, goldens,
machine context and the Table I accuracy line."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
OUT = HERE / "out"

#: Table I of the paper: total MT-NLG training cost in millions of
#: dollars for the three published plans and the three vTrain plans.
PAPER_TABLE_I = {
    (8, 8, 35): 9.01, (8, 10, 35): 9.24, (8, 12, 35): 9.46,
    (8, 12, 21): 8.62, (8, 16, 21): 8.88, (8, 20, 21): 9.13,
}


#: GPU budget of the dse_sweep design space.
SWEEP_MAX_GPUS = 256


def sweep_inputs():
    """(model, training, space) of the dse_sweep design space, which the
    served stream also draws from: Megatron 7.5B at global batch 128,
    426 plans on up to :data:`SWEEP_MAX_GPUS` GPUs."""
    from repro.config.parallelism import TrainingConfig
    from repro.config.presets import MEGATRON_7_5B
    from repro.dse.space import SearchSpace

    return (MEGATRON_7_5B, TrainingConfig(global_batch_size=128),
            SearchSpace(max_tensor=16, max_data=16, max_pipeline=12,
                        micro_batch_sizes=(1, 2, 4)))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = "none (fewer than 11 samples)"
    ordered = sorted(values)
    for pct in (90.0, 99.0, 99.9):
        if len(ordered) * (1.0 - pct / 100.0) < 10:
            break
        rank = min(len(ordered) - 1, int(len(ordered) * pct / 100.0))
        best = f"p{pct:g}={ordered[rank]:.6g}"
    return best


def load_golden(name: str) -> dict:
    """A committed golden file; a missing one is an error, never
    regenerated here (``record_goldens.py`` writes them)."""
    path = GOLDENS / f"{name}.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: golden {path} is missing; goldens are "
                         f"committed and never regenerated by a run")
    return json.loads(path.read_text(encoding="utf-8"))


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of this process (or of ``pid``, via /proc)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Host time of one :func:`reference_s` loop on the 2-vCPU machine the
#: benchmark was defined on. Timings are reported at that speed.
REF_NOMINAL_S = 0.025


def reference_s() -> float:
    """Host time of one fixed loop of interpreter and numpy work.

    The machine's speed drifts by tens of percent over seconds when
    other tenants load the host, and the simulator slows with it. Each
    timed op is therefore divided by the mean of the reference loops
    run just before and after it, and scaled by :data:`REF_NOMINAL_S`
    (see :func:`normalized`). The loop is the benchmark's own code, so
    a change to the program cannot speed it up.
    """
    import numpy as np

    values = np.arange(200_000, dtype=np.float64)
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(150_000):
        acc += i * i % 7
        table[i & 1023] = acc
    np.maximum.accumulate(values * 1.0001)
    sorted(range(50_000), key=lambda x: -x)
    return time.perf_counter() - start


def normalized(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the nominal machine speed."""
    return seconds * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


def calibration_s() -> float:
    """Median of five reference loops (machine context)."""
    return statistics.median(reference_s() for _ in range(5))


def table1_error() -> tuple[float, float]:
    """(MAPE, max) of predicted Table I costs against the paper, from
    six STAGE ``estimate_training`` calls."""
    from repro.config.presets import (MT_NLG_530B, MT_NLG_BASELINE_PLANS,
                                      MT_NLG_TRAINING, MT_NLG_VTRAIN_PLANS)
    from repro.config.system import multi_node
    from repro.graph.builder import Granularity
    from repro.sim.estimator import VTrain

    errors = []
    for plan in MT_NLG_BASELINE_PLANS + MT_NLG_VTRAIN_PLANS:
        vtrain = VTrain(multi_node(plan.total_gpus // 8),
                        granularity=Granularity.STAGE)
        estimate = vtrain.estimate_training(MT_NLG_530B, plan,
                                            MT_NLG_TRAINING)
        paper = PAPER_TABLE_I[plan.way]
        errors.append(abs(estimate.dollars_total / 1e6 - paper) / paper)
    return sum(errors) / len(errors), max(errors)


def context_lines() -> list[str]:
    """Machine context and accuracy, printed beside every report."""
    import numpy as np

    mape, worst = table1_error()
    return [
        f"machine  : nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={np.__version__} calibration_s={calibration_s():.6f}",
        f"accuracy : Table I cost error vs paper: MAPE {100 * mape:.2f}%, "
        f"max {100 * worst:.2f}% (6 STAGE estimate_training calls)",
    ]

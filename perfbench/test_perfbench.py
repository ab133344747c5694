"""The benchmark's own checks (slow tier: ``pytest -m slow perfbench``).

Counts made by the traced run must repeat exactly between two runs of
one commit, the metric names must match ``BENCHMARK.json``, and every
file the benchmark relies on must be tracked by git, since a checkout
holds only tracked files.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COUNTS = ("graph.structure_cache.hits", "graph.structure_cache.misses",
          "graph.structure_cache.evictions", "graph.tasks_built",
          "profiling.operators_profiled", "network.collective_calls",
          "sim.batch_columns", "dse.plans_infeasible")


def _traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["mtnlg_predict", "dse_sweep"])
def test_counts_repeat_exactly(workload):
    first, second = (_traced_run(workload, seed) for seed in (0, 1))
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_metric_names_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_benchmark_files_are_tracked():
    if subprocess.run(["git", "rev-parse"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    files = [path for path in HERE.rglob("*")
             if path.is_file() and "out" not in path.relative_to(HERE).parts
             and "__pycache__" not in path.parts]
    for path in files:
        ignored = subprocess.run(["git", "check-ignore", "-q", str(path)],
                                 cwd=ROOT).returncode == 0
        assert not ignored, f"{path} is gitignored"
        tracked = subprocess.run(
            ["git", "ls-files", "--error-unmatch", str(path)], cwd=ROOT,
            capture_output=True).returncode == 0
        assert tracked, f"{path} is not tracked by git"

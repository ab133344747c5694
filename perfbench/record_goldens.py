"""Record the benchmark's goldens from direct ``VTrain`` predictions.

    python3 perfbench/record_goldens.py [--force]

Run it only at a commit whose predictions are known to be right; the
benchmark itself never writes goldens, and fails when one is missing.
Existing files are kept unless ``--force`` is given.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (GOLDENS, ROOT, SRC, SWEEP_MAX_GPUS,  # noqa: E402
                    sweep_inputs)

sys.path.insert(0, str(SRC))


def mtnlg_predict() -> dict:
    from repro.config.presets import (MT_NLG_530B, MT_NLG_BASELINE_PLANS,
                                      MT_NLG_TRAINING)
    from repro.config.system import multi_node
    from repro.graph.builder import Granularity
    from repro.sim.estimator import VTrain

    vtrain = VTrain(multi_node(280), granularity=Granularity.OPERATOR)
    prediction = vtrain.predict(MT_NLG_530B, MT_NLG_BASELINE_PLANS[0],
                                MT_NLG_TRAINING)
    return {"iteration_time_repr": repr(prediction.iteration_time),
            "num_tasks": prediction.simulation.num_tasks}


def dse_sweep() -> dict:
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.graph.builder import clear_structure_cache

    model, training, space = sweep_inputs()
    tables = {}
    for network in ("flat", "rail"):
        clear_structure_cache()
        explorer = DesignSpaceExplorer(model, training, network=network)
        result = explorer.explore(space=space, max_gpus=SWEEP_MAX_GPUS)
        tables[network] = [point.to_dict() for point in result.points]
    return tables


def served_mix() -> dict:
    from repro.config.description import InputDescription
    from repro.errors import ConfigError, InfeasibleConfigError
    from repro.graph.builder import Granularity
    from repro.sim.estimator import VTrain
    from repro.workload import workload_from_dict
    from served import INFEASIBLE, request_pool

    answers = {}
    for kind, key, params in request_pool():
        description = InputDescription.from_dict(params["description"])
        description.validate()
        vtrain = VTrain(description.system,
                        granularity=Granularity(params["granularity"]),
                        zero_stage=1)
        model, plan = description.model, description.plan
        try:
            if kind == "training":
                p = vtrain.predict(model, plan, description.training)
                answers[key] = {
                    "iteration_time": p.iteration_time,
                    "gpu_compute_utilization": p.gpu_compute_utilization,
                    "memory_per_gpu": p.memory_per_gpu,
                    "tokens_per_iteration": p.tokens_per_iteration,
                    "model_flops": p.model_flops,
                    "num_gpus": p.num_gpus}
            else:
                workload = workload_from_dict(params["workload"])
                p = vtrain.predict_inference(model, plan, workload)
                answers[key] = {
                    "workload": "inference",
                    "ttft_s": p.prefill_time,
                    "tpot_s": p.decode_step_time,
                    "tokens_per_s": p.tokens_per_second,
                    "memory_per_gpu": p.memory_per_gpu,
                    "num_gpus": p.num_gpus,
                    "num_replicas": p.num_replicas}
        except (InfeasibleConfigError, ConfigError):
            answers[key] = INFEASIBLE
    return answers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing goldens")
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    GOLDENS.mkdir(exist_ok=True)
    for record in (mtnlg_predict, dse_sweep, served_mix):
        path = GOLDENS / f"{record.__name__}.json"
        if path.exists() and not args.force:
            print(f"keeping {path}")
            continue
        payload = {"recorded_at_commit": commit, **record()}
        path.write_text(json.dumps(payload, indent=0) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

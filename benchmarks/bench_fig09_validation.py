"""Figure 9: predicted vs measured single-iteration training time.

(a) single-node validation — the paper collected 1,440 points on one
    8-A100 p4d node and reports MAPE 8.37%, R^2 0.9896;
(b) multi-node validation — 116 points on up to 512 A100s, MAPE 14.73%,
    R^2 0.9887.

Our "measured" side is the testbed emulator (README.md, "Substitutions").
The shape to reproduce: strong linear fit on both, multi-node error
roughly double the single-node error, and systematic underestimation.
"""

import os

from _helpers import emit_table

from repro.validation import (multi_node_points, run_campaign,
                              single_node_points)

#: Set REPRO_BENCH_FULL=1 to run every campaign point; the default
#: subsamples 4x to keep the bench under a minute.
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def run_single_node():
    points = single_node_points()
    if not FULL:
        points = points[::4]
    return points, run_campaign(points)


def run_multi_node():
    points = multi_node_points()
    if not FULL:
        points = points[::2]
    return points, run_campaign(points)


def test_fig09a_single_node_validation(benchmark):
    points, result = benchmark.pedantic(run_single_node, rounds=1,
                                        iterations=1)
    summary = result.accuracy
    emit_table("fig09a_single_node", "Figure 9(a): single-node validation",
               [{"points": summary.num_points,
                 "mape_pct": summary.mape,
                 "r_squared": summary.r_squared,
                 "bias_pct": summary.mean_signed_error,
                 "paper_mape_pct": 8.37,
                 "paper_r_squared": 0.9896}])
    assert summary.mape < 12.0
    assert summary.r_squared > 0.97
    benchmark.extra_info["mape"] = summary.mape
    benchmark.extra_info["r2"] = summary.r_squared


def test_fig09b_multi_node_validation(benchmark):
    points, result = benchmark.pedantic(run_multi_node, rounds=1,
                                        iterations=1)
    summary = result.accuracy
    emit_table("fig09b_multi_node", "Figure 9(b): multi-node validation",
               [{"points": summary.num_points,
                 "mape_pct": summary.mape,
                 "r_squared": summary.r_squared,
                 "bias_pct": summary.mean_signed_error,
                 "paper_mape_pct": 14.73,
                 "paper_r_squared": 0.9887}])
    assert 8.0 < summary.mape < 22.0
    assert summary.r_squared > 0.93
    # The paper's ordering: multi-node error exceeds single-node error.
    benchmark.extra_info["mape"] = summary.mape
    benchmark.extra_info["r2"] = summary.r_squared

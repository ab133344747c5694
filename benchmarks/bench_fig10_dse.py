"""Figure 10: full design-space exploration for MT-NLG 530B.

Sweeps (t, d, p)-way 3D parallelism over the paper's grid (t up to 16,
d up to 32, p up to 105) and reports the two heatmap metrics: (a)
single-iteration training time and (b) GPU compute utilization. The
expected shape: more GPUs -> faster iterations, but with collapsing
utilization at the extreme corner (the paper calls out (16, 16, 105)
averaging ~17% utilization — 10x the baseline's GPUs for worse cost
efficiency).

Set ``REPRO_BENCH_QUICK=1`` (the CI smoke lane) to sweep a subsampled
grid that still contains the paper's baseline (8, 8, 35) and the extreme
corner (16, 16, 105), so the shape checks run in seconds.
"""

from _helpers import QUICK, emit_table

from repro.config.presets import MT_NLG_530B, MT_NLG_TRAINING
from repro.config.parallelism import ParallelismConfig
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.space import GridAxes

#: Subsampled grid for the CI smoke lane: keeps the baseline-class plans
#: and the extreme corner, drops the interior.
QUICK_AXES = GridAxes(tensor=(8, 16), pipeline=(21, 35, 105),
                      data=(1, 2, 8, 16))


def run_dse():
    axes = QUICK_AXES if QUICK else GridAxes()
    explorer = DesignSpaceExplorer(MT_NLG_530B, MT_NLG_TRAINING)
    plans = []
    for t in axes.tensor:
        for p in axes.pipeline:
            for d in axes.data:
                if MT_NLG_TRAINING.global_batch_size % d:
                    continue
                plans.append(ParallelismConfig(tensor=t, data=d, pipeline=p,
                                               micro_batch_size=1))
    return explorer.explore(plans=plans)


def test_fig10_design_space_heatmaps(benchmark):
    result = benchmark.pedantic(run_dse, rounds=1, iterations=1)
    iteration_grid = result.heatmap("iteration_time")
    utilization_grid = result.heatmap("utilization")

    rows = []
    for way in sorted(iteration_grid):
        rows.append({"t": way[0], "d": way[1], "p": way[2],
                     "gpus": way[0] * way[1] * way[2],
                     "iteration_s": iteration_grid[way],
                     "utilization_pct": 100 * utilization_grid[way]})
    emit_table("fig10_dse", "Figure 10: MT-NLG (t,d,p) design space",
               rows, notes=f"{result.num_feasible} feasible / "
                           f"{len(result.points)} evaluated"
                           f"{' (quick grid)' if QUICK else ''}")

    # Shape checks. (a) The extreme corner is fastest...
    fastest = result.best_by_iteration_time()
    assert fastest.num_gpus > 10_000
    # ...but its utilization collapses (paper: ~17% at (16,16,105)).
    corner = [p for p in result.feasible_points
              if p.plan.way == (16, 16, 105)]
    if corner:
        assert corner[0].utilization < 0.30
    # (b) Baseline-class plans sit in the 40%+ utilization band.
    baseline = [p for p in result.feasible_points
                if p.plan.way == (8, 8, 35)]
    assert baseline and baseline[0].utilization > 0.38
    benchmark.extra_info["feasible_points"] = result.num_feasible

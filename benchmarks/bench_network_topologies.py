"""Collective latency and end-to-end impact across network topologies.

Compares the flat Equation-1 pipe against the rail-optimized and
fat-tree topology models of :mod:`repro.network` on two axes:

* a microbenchmark table — All-Reduce latency over payload sizes and
  group shapes on each fabric, with the auto-selected algorithm — the
  shape to sanity-check against nccl-tests intuition (rail tracks the
  flat aggregate pipe; oversubscribed fat-tree uplinks starve the
  inter-node rings);
* an end-to-end table — predicted MT-NLG iteration time per fabric, the
  what-if the flat model cannot express.

Set ``REPRO_BENCH_QUICK=1`` to shrink both sweeps for CI smoke runs.
"""

from _helpers import QUICK, emit_table

from repro.config.presets import (MT_NLG_530B, MT_NLG_BASELINE_PLANS,
                                  MT_NLG_TRAINING)
from repro.config.system import multi_node
from repro.graph.builder import Granularity
from repro.graph.operators import data_allreduce
from repro.hardware.interconnect import LinkType
from repro.network.model import nccl_model_for
from repro.sim.estimator import VTrain

MIB = float(1 << 20)
NETWORKS = (("flat", "flat ring (Eq. 1)"), ("rail", None),
            ("fat-tree:4", None), ("fat-tree:8", None))
SIZES = (4 * MIB, 256 * MIB) if QUICK else (1 * MIB, 16 * MIB, 256 * MIB,
                                            1024 * MIB)
GROUPS = ((8, 64),) if QUICK else ((8, 64), (32, 64), (64, 64))
PLAN = MT_NLG_BASELINE_PLANS[0]  # t=8, d=8, p=35 on 2,240 GPUs


def test_collective_latency_across_topologies(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for group_size, num_nodes in GROUPS:
            for size in SIZES:
                row = {"group": group_size, "nodes": num_nodes,
                       "MiB": size / MIB}
                for network, label in NETWORKS:
                    model = nccl_model_for(multi_node(num_nodes,
                                                      network=network))
                    time = model.time(data_allreduce(
                        size, group_size, LinkType.INTER_NODE))
                    row[network] = 1e3 * time
                    if label is None:
                        label = model.explain(size, group_size)["algorithm"]
                    row[f"{network} algo"] = label
                rows.append(row)
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "network_collectives",
        "Inter-node All-Reduce latency (ms) by fabric",
        rows,
        notes="rail tracks the flat aggregate pipe (that is Equation 1's "
              "assumption made explicit); fat-tree:8 pays uplink "
              "contention the flat model cannot see.")


def test_mtnlg_iteration_time_across_topologies(benchmark):
    nodes = PLAN.total_gpus // 8
    rows = []

    def sweep():
        rows.clear()
        for network, _ in NETWORKS:
            vtrain = VTrain(multi_node(nodes, network=network),
                            granularity=Granularity.STAGE,
                            check_memory_feasibility=False)
            prediction = vtrain.predict(MT_NLG_530B, PLAN, MT_NLG_TRAINING)
            rows.append({
                "network": network,
                "iteration_s": prediction.iteration_time,
                "util_pct": 100 * prediction.gpu_compute_utilization,
            })
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    baseline = rows[0]["iteration_s"]
    for row in rows:
        row["vs_flat_pct"] = 100 * (row["iteration_s"] / baseline - 1)
    emit_table(
        "network_mtnlg",
        "MT-NLG 530B (t=8, d=8, p=35) iteration time by fabric",
        rows,
        notes="Topology what-if the paper's flat model cannot express: "
              "the same plan on differently shaped clusters.")

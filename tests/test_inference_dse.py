"""Tests for serving-workload design-space exploration.

Covers the serving plan enumerator, the explorer's inference sweep and
its objectives (tokens/s, TPOT, cost per million tokens), the
Pareto/report surfaces, and — critically — backward compatibility:
training design points, cache fingerprints, and pre-workload
prediction-cache checkpoints must remain byte-identical.
"""

from __future__ import annotations

import json

import pytest

from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.presets import GPT3_175B
from repro.config.system import single_node
from repro.cost.pricing import DEFAULT_PRICING
from repro.dse.cache import PredictionCache, fingerprint
from repro.dse.explorer import DesignPoint, DesignSpaceExplorer
from repro.dse.report import (SERVING_CSV_COLUMNS, load_csv,
                              save_serving_csv, to_serving_csv,
                              to_serving_markdown)
from repro.dse.space import SearchSpace, enumerate_serving_plans
from repro.errors import ConfigError
from repro.graph.builder import Granularity
from repro.sim.estimator import VTrain
from repro.workload import InferenceWorkload

#: The exact fingerprint the pre-workload release computed for
#: (tiny model, t2 d2 p2 m2, B=16 training, one node, OPERATOR). The
#: workload refactor must not move it, or every training cache
#: checkpoint in the wild silently goes cold.
PRE_WORKLOAD_KEY = (
    "296585a1946b64d942fdbfbfaaa0fc0a22092f80050065d1842b73ca978d476f")

#: A prediction-cache checkpoint exactly as the pre-workload release
#: wrote it (no workload fields anywhere in the payload).
PRE_WORKLOAD_CHECKPOINT = {
    "entries": {
        PRE_WORKLOAD_KEY: {
            "feasible": True,
            "infeasible_reason": "",
            "iteration_time": 0.123456,
            "memory_gib": 10.5,
            "plan": {"data": 2, "gradient_bucketing": True,
                     "micro_batch_size": 2, "num_gradient_buckets": 4,
                     "pipeline": 2, "recompute": "selective",
                     "schedule": "1f1b", "sequence_parallel": False,
                     "tensor": 2},
            "utilization": 0.42,
        },
    },
    "version": 1,
}


@pytest.fixture
def workload() -> InferenceWorkload:
    return InferenceWorkload(batch_size=8, prompt_len=128, gen_len=64)


@pytest.fixture
def serving_result(tiny_model, workload):
    explorer = DesignSpaceExplorer(tiny_model, None, workload=workload)
    return explorer.explore(space=SearchSpace(max_tensor=2, max_pipeline=2),
                            max_gpus=8)


class TestServingPlanEnumeration:
    def test_replica_axis_ignores_batch_divisibility(self, tiny_model):
        """d counts server replicas, so an odd serving batch still
        admits multi-replica plans (unlike training's ``d | B``)."""
        workload = InferenceWorkload(batch_size=3, prompt_len=64,
                                     gen_len=16)
        plans = list(enumerate_serving_plans(tiny_model, workload,
                                             max_gpus=8))
        assert any(plan.data == 2 for plan in plans)
        assert all(workload.batch_size % plan.micro_batch_size == 0
                   for plan in plans)

    def test_no_virtual_pipelining(self, tiny_model, workload):
        plans = list(enumerate_serving_plans(tiny_model, workload,
                                             max_gpus=8))
        assert plans
        assert all(plan.virtual_stages == 1 for plan in plans)

    def test_exact_gpu_count_filter(self, tiny_model, workload):
        plans = list(enumerate_serving_plans(tiny_model, workload,
                                             num_gpus=4))
        assert plans
        assert all(plan.total_gpus == 4 for plan in plans)

    def test_needs_exactly_one_budget(self, tiny_model, workload):
        with pytest.raises(ConfigError):
            list(enumerate_serving_plans(tiny_model, workload))
        with pytest.raises(ConfigError):
            list(enumerate_serving_plans(tiny_model, workload,
                                         num_gpus=4, max_gpus=8))


class TestServingExploration:
    def test_points_carry_serving_metrics(self, serving_result):
        assert serving_result.num_feasible > 0
        for point in serving_result.feasible_points:
            assert point.workload == "inference"
            assert point.tokens_per_s > 0
            assert 0 < point.tpot_s <= point.ttft_s or point.ttft_s > 0
            # TPOT mirrors into iteration_time for generic sorting.
            assert point.iteration_time == point.tpot_s

    def test_matches_direct_prediction(self, tiny_model, workload,
                                       serving_result):
        point = serving_result.feasible_points[0]
        vtrain = VTrain(single_node(), granularity=Granularity.STAGE)
        direct = vtrain.predict_inference(tiny_model, point.plan, workload)
        assert point.ttft_s == direct.time_to_first_token
        assert point.tpot_s == direct.time_per_output_token
        assert point.tokens_per_s == direct.tokens_per_second

    def test_tp_buys_latency_replicas_buy_throughput(self, serving_result):
        """The vLLM trade-off at equal GPU count: the TP-heavy plan has
        the lower TPOT, the replica-heavy plan the higher tokens/s."""
        by_way = {point.plan.way: point
                  for point in serving_result.feasible_points
                  if point.plan.pipeline == 1 and point.num_gpus == 2}
        tp_heavy, replica_heavy = by_way[(2, 1, 1)], by_way[(1, 2, 1)]
        assert tp_heavy.tpot_s < replica_heavy.tpot_s
        assert replica_heavy.tokens_per_s > tp_heavy.tokens_per_s

    def test_pareto_frontier_is_nondominated(self, serving_result):
        frontier = serving_result.serving_pareto_frontier()
        assert frontier
        throughputs = [point.tokens_per_s for point in frontier]
        costs = [point.cost_per_million_tokens() for point in frontier]
        # Descending throughput, strictly improving (descending) cost.
        assert throughputs == sorted(throughputs, reverse=True)
        assert costs == sorted(costs, reverse=True)
        for point in frontier:
            dominated = any(
                other.tokens_per_s >= point.tokens_per_s
                and (other.cost_per_million_tokens()
                     < point.cost_per_million_tokens())
                for other in serving_result.feasible_points)
            assert not dominated

    def test_best_by_throughput_respects_gpu_cap(self, serving_result):
        best = serving_result.best_by_throughput()
        capped = serving_result.best_by_throughput(max_gpus=2)
        assert capped.num_gpus <= 2
        assert best.tokens_per_s >= capped.tokens_per_s

    def test_evaluate_batch_equals_per_plan_evaluate(self):
        """Regression: a serving explorer's evaluate_batch used to read
        the absent training recipe (AttributeError on None) while
        evaluate() answered. Feasible and memory-infeasible plans must
        come back exactly as per-plan evaluate() rows, in order."""
        workload = InferenceWorkload(batch_size=16, prompt_len=512,
                                     gen_len=128)
        plans = [ParallelismConfig(tensor=t, data=d, pipeline=p,
                                   micro_batch_size=m)
                 for t, d, p, m in ((8, 1, 1, 16), (1, 1, 1, 16),
                                    (8, 1, 1, 8), (4, 2, 1, 16),
                                    (8, 1, 2, 16), (2, 1, 1, 16))]
        batched = DesignSpaceExplorer(GPT3_175B, None, workload=workload
                                      ).evaluate_batch(plans)
        explorer = DesignSpaceExplorer(GPT3_175B, None, workload=workload)
        assert batched == [explorer.evaluate(plan) for plan in plans]
        assert [point.feasible for point in batched] == [
            True, False, True, False, True, False]
        assert all(point.workload == "inference" for point in batched)
        assert "GiB/GPU" in batched[1].infeasible_reason

    def test_explorer_needs_training_or_workload(self, tiny_model):
        with pytest.raises(ConfigError):
            DesignSpaceExplorer(tiny_model, None)

    def test_serving_checkpoint_round_trip(self, tiny_model, workload,
                                           tmp_path):
        """A serving sweep resumed from its checkpoint returns the
        same points without recomputing."""
        checkpoint = tmp_path / "serving.cache.json"
        space = SearchSpace(max_tensor=2, max_pipeline=1)
        explorer = DesignSpaceExplorer(tiny_model, None, workload=workload)
        first = explorer.explore(space=space, max_gpus=4,
                                 checkpoint_path=checkpoint)
        assert checkpoint.exists()
        resumed = DesignSpaceExplorer(tiny_model, None, workload=workload)
        second = resumed.explore(space=space, max_gpus=4,
                                 checkpoint_path=checkpoint)
        assert ([point.to_dict() for point in second.points]
                == [point.to_dict() for point in first.points])


class TestDesignPointCompat:
    def test_training_payload_has_no_workload_fields(self):
        point = DesignPoint(
            plan=ParallelismConfig(tensor=2, data=2, pipeline=2,
                                   micro_batch_size=2),
            feasible=True, iteration_time=0.5, utilization=0.4,
            memory_gib=10.0)
        payload = point.to_dict()
        for field in ("workload", "tokens_per_s", "ttft_s", "tpot_s"):
            assert field not in payload
        assert DesignPoint.from_dict(payload) == point

    def test_serving_payload_round_trips(self):
        point = DesignPoint(
            plan=ParallelismConfig(tensor=2, data=2, pipeline=1,
                                   micro_batch_size=2),
            feasible=True, iteration_time=0.001, utilization=0.0,
            memory_gib=4.0, workload="inference", tokens_per_s=1000.0,
            ttft_s=0.01, tpot_s=0.001)
        rebuilt = DesignPoint.from_dict(point.to_dict())
        assert rebuilt == point

    def test_pre_workload_fingerprint_is_unmoved(self, tiny_model,
                                                 training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        key = fingerprint(tiny_model, plan, training, single_node(),
                          Granularity.OPERATOR)
        assert key == PRE_WORKLOAD_KEY

    def test_workload_fingerprint_is_distinct(self, tiny_model, training,
                                              workload):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        serving_key = fingerprint(tiny_model, plan, None, single_node(),
                                  Granularity.OPERATOR, workload=workload)
        assert serving_key != PRE_WORKLOAD_KEY

    def test_fingerprint_needs_training_or_workload(self, tiny_model):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        with pytest.raises(ConfigError):
            fingerprint(tiny_model, plan, None, single_node(),
                        Granularity.OPERATOR)

    def test_pre_workload_checkpoint_still_loads_and_hits(
            self, tiny_model, training, tmp_path):
        """A cache checkpoint written before the workload abstraction
        loads cleanly and its entries are found under today's keys."""
        path = tmp_path / "old.cache.json"
        path.write_text(json.dumps(PRE_WORKLOAD_CHECKPOINT))
        cache = PredictionCache.load(path)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        key = fingerprint(tiny_model, plan, training, single_node(),
                          Granularity.OPERATOR)
        point = cache.get(key)
        assert point is not None
        assert point.feasible
        assert point.iteration_time == 0.123456
        assert point.workload == "training"


class TestServingReports:
    def test_csv_has_serving_columns(self, serving_result):
        text = to_serving_csv(serving_result)
        header = text.splitlines()[0]
        assert header == ",".join(SERVING_CSV_COLUMNS)
        assert "tokens_per_s" in header

    def test_csv_round_trips_through_load(self, serving_result, tmp_path):
        path = tmp_path / "serving.csv"
        save_serving_csv(serving_result, path)
        rows = load_csv(path)
        assert len(rows) == serving_result.num_feasible
        assert all(float(row["tokens_per_s"]) > 0 for row in rows)

    @pytest.mark.parametrize("sort_by", ["cost", "throughput", "latency"])
    def test_markdown_table_renders(self, serving_result, sort_by):
        table = to_serving_markdown(serving_result, sort_by=sort_by)
        assert "$/Mtok" in table.splitlines()[0]
        assert len(table.splitlines()) > 2

    def test_markdown_cost_sort_is_ascending(self, serving_result):
        table = to_serving_markdown(serving_result, sort_by="cost")
        costs = [float(line.split("|")[-2])
                 for line in table.splitlines()[2:]]
        assert costs == sorted(costs)

    def test_markdown_rejects_unknown_sort(self, serving_result):
        with pytest.raises(ConfigError):
            to_serving_markdown(serving_result, sort_by="vibes")

    def test_cost_objective_matches_the_pricing_model(self, serving_result):
        point = serving_result.feasible_points[0]
        expected = (DEFAULT_PRICING.dollars_per_hour(point.num_gpus)
                    / 3600.0 / point.tokens_per_s * 1e6)
        assert point.cost_per_million_tokens() == expected

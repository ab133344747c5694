"""Unit tests for design-space enumeration and exploration."""

import pytest

from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.dse.explorer import DesignSpaceExplorer, evaluate_plans
from repro.dse.space import (SearchSpace, count_plans, divisors,
                             enumerate_plans, pipeline_candidates,
                             powers_of_two, tensor_candidates)
from repro.errors import ConfigError, InfeasibleConfigError
from repro.graph.builder import Granularity
from repro.network.model import nccl_model_for
from repro.profiling.cupti import CuptiTracer
from repro.profiling.lookup import profile_table
from repro.profiling.nccl import NcclModel
from repro.sim.estimator import VTrain
from repro.workload import InferenceWorkload


@pytest.fixture
def model():
    return ModelConfig(hidden_size=1024, num_layers=12, seq_length=512,
                       num_heads=16, name="dse-model")


@pytest.fixture
def training():
    return TrainingConfig(global_batch_size=32)


class TestSpaceHelpers:
    def test_powers_of_two(self):
        assert powers_of_two(16) == [1, 2, 4, 8, 16]
        assert powers_of_two(1) == [1]
        with pytest.raises(ConfigError):
            powers_of_two(0)

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(105) == [1, 3, 5, 7, 15, 21, 35, 105]
        with pytest.raises(ConfigError):
            divisors(0)

    def test_tensor_candidates_divide_heads(self, model):
        assert tensor_candidates(model, SearchSpace()) == [1, 2, 4, 8, 16]
        narrow = ModelConfig(hidden_size=768, num_layers=12, seq_length=512,
                             num_heads=12)
        assert tensor_candidates(narrow, SearchSpace()) == [1, 2, 4]

    def test_search_space_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            SearchSpace(max_tensor=0)
        with pytest.raises(ConfigError):
            SearchSpace(micro_batch_sizes=())
        with pytest.raises(ConfigError):
            SearchSpace(micro_batch_sizes=(1, 0))

    def test_pipeline_candidates_divide_layers(self, model):
        assert pipeline_candidates(model, SearchSpace(max_pipeline=6)) == [
            1, 2, 3, 4, 6]


class TestEnumeration:
    def test_exact_gpu_count(self, model, training):
        plans = list(enumerate_plans(model, training, num_gpus=16))
        assert plans
        assert all(p.total_gpus == 16 for p in plans)

    def test_max_gpu_budget(self, model, training):
        plans = list(enumerate_plans(model, training, max_gpus=8))
        assert all(p.total_gpus <= 8 for p in plans)

    def test_structural_constraints_hold(self, model, training):
        for plan in enumerate_plans(model, training, max_gpus=16):
            assert model.num_heads % plan.tensor == 0
            assert model.num_layers % plan.pipeline == 0
            assert training.global_batch_size % plan.data == 0
            per_replica = training.global_batch_size // plan.data
            assert per_replica % plan.micro_batch_size == 0

    def test_requires_exactly_one_budget(self, model, training):
        with pytest.raises(ConfigError):
            list(enumerate_plans(model, training))
        with pytest.raises(ConfigError):
            list(enumerate_plans(model, training, num_gpus=8, max_gpus=8))

    def test_count_matches_enumeration(self, model, training):
        count = count_plans(model, training, max_gpus=16)
        assert count == len(list(enumerate_plans(model, training,
                                                 max_gpus=16)))

    def test_paper_scale_space_is_thousands(self):
        """Section V-A: 'several thousands of different 3D parallelism'
        configurations for the MT-NLG sweep."""
        from repro.config.presets import MT_NLG_530B, MT_NLG_TRAINING
        count = count_plans(MT_NLG_530B, MT_NLG_TRAINING,
                            max_gpus=16 * 32 * 105)
        assert count > 2000


class TestExplorer:
    def test_explore_marks_feasibility(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=8, space=SearchSpace(
            max_tensor=8, max_data=8, max_pipeline=4,
            micro_batch_sizes=(1, 2)))
        assert result.points
        assert result.num_feasible > 0
        for point in result.feasible_points:
            assert point.iteration_time > 0
            assert 0 < point.utilization < 1

    def test_best_by_iteration_time(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=8)
        best = result.best_by_iteration_time()
        assert all(best.iteration_time <= p.iteration_time
                   for p in result.feasible_points)

    def test_best_with_gpu_constraint(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=16)
        best = result.best_by_iteration_time(num_gpus=8)
        assert best.num_gpus == 8

    def test_best_by_cost_not_worse_than_fastest(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=16)
        cheapest = result.best_by_cost()
        fastest = result.best_by_iteration_time()
        assert cheapest.cost_per_iteration() <= \
            fastest.cost_per_iteration() + 1e-12

    def test_pareto_frontier_is_monotone(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=16)
        frontier = result.pareto_frontier()
        times = [p.iteration_time for p in frontier]
        costs = [p.cost_per_iteration() for p in frontier]
        assert times == sorted(times)
        assert costs == sorted(costs, reverse=True)

    def test_selection_prices_each_point_once(self, model, training):
        """best_by_cost / pareto_frontier evaluate the pricing model
        O(n) times, not once per sort comparison."""
        from repro.cost.pricing import PricingModel

        class CountingPricing(PricingModel):
            calls = 0

            def cost(self, num_gpus, seconds):
                type(self).calls += 1
                return super().cost(num_gpus, seconds)

        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=16)
        n = result.num_feasible
        assert n > 2

        pricing = CountingPricing()
        CountingPricing.calls = 0
        result.best_by_cost(pricing=pricing)
        assert CountingPricing.calls == n

        CountingPricing.calls = 0
        result.pareto_frontier(pricing=pricing)
        assert CountingPricing.calls == n

    def test_network_threads_into_derived_systems(self, model, training):
        space = SearchSpace(max_tensor=4, max_data=4, max_pipeline=2,
                            micro_batch_sizes=(1,))
        flat = DesignSpaceExplorer(model, training).explore(
            num_gpus=16, space=space)
        rail = DesignSpaceExplorer(model, training, network="rail").explore(
            num_gpus=16, space=space)
        assert [p.plan for p in rail.points] == [p.plan for p in flat.points]
        assert rail.num_feasible == flat.num_feasible
        assert any(r.iteration_time != f.iteration_time
                   for r, f in zip(rail.feasible_points,
                                   flat.feasible_points))

    def test_network_parallel_engine_matches_serial(self, model, training):
        space = SearchSpace(max_tensor=4, max_data=4, max_pipeline=2,
                            micro_batch_sizes=(1,))
        serial = DesignSpaceExplorer(
            model, training, network="fat-tree:4").explore(
            num_gpus=16, space=space)
        parallel = DesignSpaceExplorer(
            model, training, network="fat-tree:4").explore(
            num_gpus=16, space=space, workers=2)
        assert parallel.points == serial.points

    def test_heatmap_keys_are_ways(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=8)
        grid = result.heatmap("utilization")
        assert grid
        for way in grid:
            assert len(way) == 3

    def test_heatmap_rejects_unknown_metric(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=8)
        with pytest.raises(ConfigError):
            result.heatmap("power")

    @pytest.mark.parametrize("gpus_per_node", [0, -8])
    def test_rejects_gpus_per_node_below_one(self, model, training,
                                             gpus_per_node):
        """0 used to divide by zero in ``system_for``, and -8 reached
        the sweep as "num_gpus must be positive"."""
        with pytest.raises(ConfigError, match="gpus_per_node must be at "
                                              "least 1"):
            DesignSpaceExplorer(model, training, gpus_per_node=gpus_per_node)

    def test_no_match_raises(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=8)
        with pytest.raises(InfeasibleConfigError):
            result.best_by_iteration_time(num_gpus=7)

    def test_infeasible_plan_becomes_row(self, training):
        """Memory-busting plans appear with feasible=False, not raises."""
        big = ModelConfig(hidden_size=8192, num_layers=12, seq_length=2048,
                          num_heads=64, name="big")
        explorer = DesignSpaceExplorer(big, TrainingConfig(global_batch_size=32))
        point = explorer.evaluate(ParallelismConfig(tensor=1, data=1,
                                                    pipeline=1))
        assert not point.feasible
        assert "GiB" in point.infeasible_reason

    def test_structurally_invalid_plan_becomes_row(self, model, training):
        """Regression: a ConfigError from a structurally invalid plan
        (micro-batch larger than the per-replica batch) used to abort the
        whole sweep instead of becoming an infeasible row."""
        explorer = DesignSpaceExplorer(model, training)
        bad = ParallelismConfig(tensor=1, data=1, pipeline=1,
                                micro_batch_size=64)
        point = explorer.evaluate(bad)
        assert not point.feasible
        assert point.infeasible_reason

    def test_invalid_plan_does_not_abort_explore(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        bad = ParallelismConfig(tensor=1, data=1, pipeline=1,
                                micro_batch_size=64)
        good = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        result = explorer.explore(plans=[bad, good])
        assert [p.feasible for p in result.points] == [False, True]

    def test_micro_batch_collapse(self, model, training):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=8)
        collapsed = result.best_micro_batch_per_way()
        ways = [p.plan.way for p in result.feasible_points]
        assert set(collapsed) == set(ways)


#: Plans on 1 to 4 nodes: four node counts, so four simulators per sweep.
SHARED_SPACE = SearchSpace(max_tensor=4, max_data=8, max_pipeline=2,
                           micro_batch_sizes=(1, 2))


def independent_points(explorer, plans):
    """``plans`` evaluated one by one, each on a simulator of its own."""
    return [point
            for plan in plans
            for point in evaluate_plans(
                VTrain(explorer.system_for(plan.total_gpus),
                       granularity=explorer.granularity,
                       zero_stage=explorer.zero_stage),
                explorer.model, [plan], explorer.training,
                workload=explorer.workload)]


class TestSharedProfilingStack:
    """Sweeps take the process's profile table per GPU and communication
    model per system, so what one explorer profiled and costed serves
    every later one."""

    @pytest.mark.parametrize("network", ["flat", "rail"])
    def test_second_explorer_profiles_and_costs_nothing(
            self, model, training, network, monkeypatch):
        def sweep():
            return DesignSpaceExplorer(model, training, network=network
                                       ).explore(max_gpus=32,
                                                 space=SHARED_SPACE)

        first = sweep()
        profiled, costed = [], []
        trace, dispatch = CuptiTracer.trace_operator, NcclModel._dispatch
        monkeypatch.setattr(
            CuptiTracer, "trace_operator",
            lambda self, op: profiled.append(op) or trace(self, op))
        monkeypatch.setattr(
            NcclModel, "_dispatch",
            lambda self, comm: costed.append(comm) or dispatch(self, comm))
        second = sweep()
        assert (profiled, costed) == ([], [])
        assert second.points == first.points
        profile_table.cache_clear()
        nccl_model_for.cache_clear()
        fresh = sweep()
        assert profiled and costed
        assert fresh.points == first.points

    @pytest.mark.parametrize("granularity",
                             [Granularity.STAGE, Granularity.OPERATOR])
    @pytest.mark.parametrize("network", ["flat", "rail", "fat-tree:4"])
    def test_points_match_independent_simulators(self, model, training,
                                                  network, granularity):
        explorer = DesignSpaceExplorer(model, training, network=network,
                                       granularity=granularity)
        result = explorer.explore(max_gpus=32, space=SHARED_SPACE)
        expected = independent_points(
            explorer, [point.plan for point in result.points])
        assert [point.to_dict() for point in result.points] == \
            [point.to_dict() for point in expected]

    def test_serving_points_match_independent_simulators(self, model):
        workload = InferenceWorkload(batch_size=8, prompt_len=128,
                                     gen_len=64)
        explorer = DesignSpaceExplorer(model, None, workload=workload,
                                       network="rail")
        result = explorer.explore(max_gpus=32, space=SHARED_SPACE)
        assert len(explorer._simulators) >= 3
        expected = independent_points(
            explorer, [point.plan for point in result.points])
        assert [point.to_dict() for point in result.points] == \
            [point.to_dict() for point in expected]

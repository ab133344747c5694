"""Unit tests for validation metrics and campaign generation."""

import pytest

from repro.errors import ConfigError
from repro.graph.builder import Granularity
from repro.profiling.lookup import profile_table
from repro.sim.estimator import VTrain
from repro.validation.campaigns import (multi_node_points, run_campaign,
                                        single_node_points)
from repro.validation.metrics import (accuracy, mape, mean_signed_error,
                                      r_squared)


class TestMetrics:
    def test_mape_zero_for_perfect_prediction(self):
        assert mape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mape_symmetric_magnitude(self):
        assert mape([10.0], [9.0]) == pytest.approx(10.0)
        assert mape([10.0], [11.0]) == pytest.approx(10.0)

    def test_mape_rejects_non_positive_measured(self):
        with pytest.raises(ConfigError):
            mape([0.0], [1.0])

    def test_r_squared_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r_squared_mean_predictor_is_zero(self):
        measured = [1.0, 2.0, 3.0]
        assert r_squared(measured, [2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_r_squared_constant_measured(self):
        assert r_squared([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert r_squared([2.0, 2.0], [1.0, 3.0]) == 0.0

    def test_signed_error_shows_bias_direction(self):
        assert mean_signed_error([10.0, 10.0], [9.0, 9.0]) == pytest.approx(
            -10.0)

    def test_accuracy_bundle(self):
        summary = accuracy([1.0, 2.0], [1.1, 1.9])
        assert summary.num_points == 2
        assert summary.mape == pytest.approx(7.5)
        assert "MAPE" in summary.describe()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            mape([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            mape([], [])


class TestCampaignGeneration:
    def test_single_node_campaign_scale(self):
        """The paper collected 1,440 single-node points; our generator
        must produce the same order of magnitude."""
        points = single_node_points()
        assert 1000 <= len(points) <= 1500

    def test_single_node_plans_use_8_gpus(self):
        for point in single_node_points(limit=50):
            assert point.plan.total_gpus == 8
            assert point.num_nodes == 1

    def test_single_node_limit(self):
        assert len(single_node_points(limit=10)) == 10

    def test_multi_node_campaign_has_116_points(self):
        points = multi_node_points()
        assert len(points) == 116

    def test_multi_node_spans_models_and_scales(self):
        points = multi_node_points()
        models = {point.model.name for point in points}
        nodes = {point.num_nodes for point in points}
        assert len(models) >= 3
        assert len(nodes) >= 3

    def test_points_are_structurally_valid(self):
        from repro.config.parallelism import validate_plan
        for point in multi_node_points()[:20]:
            validate_plan(point.model, point.plan, point.training,
                          point.plan.total_gpus)


class TestCampaignRun:
    def test_small_campaign_accuracy_band(self):
        """A slice of the single-node campaign must land in a sane error
        band: prediction below measurement, single-digit-to-low-teens
        MAPE, strong correlation."""
        points = single_node_points()[::40]  # ~30 points
        result = run_campaign(points)
        summary = result.accuracy
        assert summary.num_points == len(points)
        assert 2.0 < summary.mape < 18.0
        assert summary.mean_signed_error < 0  # vTrain underestimates
        assert len(result.scatter()) == len(points)

    def test_campaign_records_pairs(self):
        points = single_node_points(limit=3)
        result = run_campaign(points, granularity=Granularity.OPERATOR)
        assert len(result.predicted) == 3
        assert len(result.measured) == 3
        assert all(m > p for m, p in zip(result.measured, result.predicted))

    def test_predictors_profile_each_signature_once(self, monkeypatch):
        """The per-node-count predictors share the process's profile
        table, so a signature met on several node counts is profiled
        once; the predictions equal those of a fresh simulator per
        point."""
        points = multi_node_points()[::16]
        profile_table.cache_clear()  # count this campaign's profiles only
        predictors: dict[int, VTrain] = {}
        predict = VTrain.predict

        def recording_predict(self, *args, **kwargs):
            predictors[id(self)] = self
            return predict(self, *args, **kwargs)

        monkeypatch.setattr(VTrain, "predict", recording_predict)
        result = run_campaign(points)
        monkeypatch.undo()
        simulators = list(predictors.values())
        assert len(simulators) == len({point.num_nodes for point in points})
        first = simulators[0]
        assert all(simulator.lookup is first.lookup
                   for simulator in simulators)
        stats = first.lookup.tracer.stats
        distinct = stats.signatures
        assert stats.operators_profiled == len(distinct)
        assert set(first.lookup.signatures) == distinct
        assert result.predicted == [
            VTrain(point.system(), check_memory_feasibility=False).predict(
                point.model, point.plan, point.training).iteration_time
            for point in points]

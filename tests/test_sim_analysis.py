"""Unit tests for timeline analysis."""

import pytest
from graph_oracle import build_graph, simulate

from repro.config.parallelism import ParallelismConfig, PipelineSchedule
from repro.config.system import single_node
from repro.errors import SimulationError
from repro.sim.analysis import (critical_device, device_profiles,
                                exposed_dp_fraction, pipeline_bubble_time,
                                stage_utilization_profile, summarize,
                                _interval_overlap, _merge_intervals)
from repro.sim.estimator import VTrain
from repro.sim.results import SimulationResult, TimelineEvent


def predict_with_timeline(model, plan, training):
    vtrain = VTrain(single_node(), check_memory_feasibility=False)
    graph = build_graph(vtrain, model, plan, training)
    return simulate(graph, record_timeline=True)


class TestIntervalHelpers:
    def test_merge_overlapping(self):
        merged = _merge_intervals([(0, 2), (1, 3), (5, 6)])
        assert merged == [(0, 3), (5, 6)]

    def test_merge_empty(self):
        assert _merge_intervals([]) == []

    def test_overlap(self):
        a = [(0.0, 4.0), (6.0, 8.0)]
        b = [(2.0, 7.0)]
        assert _interval_overlap(a, b) == pytest.approx(3.0)

    def test_disjoint_overlap_is_zero(self):
        assert _interval_overlap([(0, 1)], [(2, 3)]) == 0.0


class TestProfiles:
    def test_requires_timeline(self, tiny_model, training):
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        graph = build_graph(vtrain, tiny_model, plan, training)
        result = simulate(graph)  # no timeline
        with pytest.raises(SimulationError):
            device_profiles(result)

    def test_profiles_cover_all_stages(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=2, pipeline=4)
        result = predict_with_timeline(tiny_model, plan, training)
        profiles = device_profiles(result)
        assert sorted(profiles) == [0, 1, 2, 3]

    def test_busy_plus_idle_bounded_by_iteration(self, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        result = predict_with_timeline(tiny_model, plan, training)
        for profile in device_profiles(result).values():
            busy = profile.compute_busy + profile.tp_comm
            assert busy + profile.idle == pytest.approx(
                result.iteration_time, rel=1e-6)

    def test_no_tp_comm_when_t1(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=8, pipeline=1)
        result = predict_with_timeline(tiny_model, plan, training)
        for profile in device_profiles(result).values():
            assert profile.tp_comm == 0.0


class TestBubble:
    def test_deeper_pipeline_more_bubble(self, tiny_model, training):
        shallow = predict_with_timeline(
            tiny_model, ParallelismConfig(tensor=1, data=8, pipeline=1),
            training)
        deep = predict_with_timeline(
            tiny_model, ParallelismConfig(tensor=1, data=2, pipeline=4,
                                          micro_batch_size=8), training)
        shallow_frac = pipeline_bubble_time(shallow) / shallow.iteration_time
        deep_frac = pipeline_bubble_time(deep) / deep.iteration_time
        assert deep_frac > shallow_frac

    def test_stage_profile_length(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=2, pipeline=4)
        result = predict_with_timeline(tiny_model, plan, training)
        profile = stage_utilization_profile(result)
        assert len(profile) == 4
        assert all(0.0 <= u <= 1.0 for u in profile)


class TestExposure:
    def test_bucketing_hides_most_dp_comm(self, small_model, training):
        plan = ParallelismConfig(tensor=1, data=8, pipeline=1,
                                 micro_batch_size=1,
                                 gradient_bucketing=True,
                                 num_gradient_buckets=8)
        result = predict_with_timeline(small_model, plan, training)
        overlapped_fraction = 1.0 - exposed_dp_fraction(result)
        assert overlapped_fraction > 0.3

    def test_no_bucketing_exposes_more(self, small_model, training):
        bucketed = predict_with_timeline(
            small_model,
            ParallelismConfig(tensor=1, data=8, pipeline=1,
                              micro_batch_size=1, gradient_bucketing=True,
                              num_gradient_buckets=8), training)
        exposed = predict_with_timeline(
            small_model,
            ParallelismConfig(tensor=1, data=8, pipeline=1,
                              micro_batch_size=1, gradient_bucketing=False),
            training)
        assert exposed_dp_fraction(exposed) > exposed_dp_fraction(bucketed)

    def test_no_dp_comm_reports_zero(self, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=1, pipeline=4)
        result = predict_with_timeline(tiny_model, plan, training)
        assert exposed_dp_fraction(result) == 0.0


class TestEdgeCases:
    """Degenerate inputs the analysis helpers must handle exactly."""

    def test_merge_zero_duration_intervals(self):
        assert _merge_intervals([(1.0, 1.0), (1.0, 2.0)]) == [(1.0, 2.0)]
        # a lone zero-duration interval survives as itself
        assert _merge_intervals([(3.0, 3.0)]) == [(3.0, 3.0)]

    def test_merge_touching_intervals(self):
        assert _merge_intervals([(0.0, 1.0), (1.0, 2.0)]) == [(0.0, 2.0)]

    def test_merge_contained_interval(self):
        assert _merge_intervals([(0.0, 5.0), (1.0, 2.0)]) == [(0.0, 5.0)]

    def test_empty_recorded_timeline(self):
        result = SimulationResult(iteration_time=0.0, num_tasks=0,
                                  device_timeline={}, device_busy={},
                                  events=[])
        assert device_profiles(result) == {}
        assert pipeline_bubble_time(result) == 0.0
        assert exposed_dp_fraction(result) == 0.0
        assert stage_utilization_profile(result) == []

    def test_critical_device_requires_devices(self):
        result = SimulationResult(iteration_time=0.0, num_tasks=0,
                                  device_timeline={}, device_busy={},
                                  events=[])
        with pytest.raises(SimulationError, match="no devices"):
            critical_device(result)

    def test_zero_duration_events_profile(self):
        events = [
            TimelineEvent(task_id=0, device=0, stream="compute",
                          kind="compute", label="f0", start=0.0, finish=0.0),
            TimelineEvent(task_id=1, device=0, stream="compute",
                          kind="compute", label="f1", start=0.0, finish=2.0),
        ]
        result = SimulationResult(iteration_time=2.0, num_tasks=2,
                                  device_timeline={0: 2.0},
                                  device_busy={0: {"compute": 2.0}},
                                  events=events)
        profile = device_profiles(result)[0]
        assert profile.compute_busy == pytest.approx(2.0)
        assert profile.idle == pytest.approx(0.0)
        assert profile.compute_utilization == pytest.approx(1.0)

    def test_zero_iteration_time_summary_has_no_division_error(self):
        result = SimulationResult(iteration_time=0.0, num_tasks=0,
                                  device_timeline={0: 0.0}, device_busy={},
                                  events=[])
        summary = summarize(result)
        assert summary["avg_bubble_fraction"] == 0.0
        assert summary["critical_device"] == 0.0


class TestSummary:
    def test_summary_keys(self, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        result = predict_with_timeline(tiny_model, plan, training)
        summary = summarize(result)
        assert set(summary) == {"iteration_time", "avg_bubble_s",
                                "avg_bubble_fraction", "exposed_dp_fraction",
                                "avg_tp_comm_s", "critical_device"}
        assert summary["iteration_time"] > 0

    def test_critical_device_valid(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=2, pipeline=4,
                                 schedule=PipelineSchedule.GPIPE)
        result = predict_with_timeline(tiny_model, plan, training)
        assert 0 <= critical_device(result) < 4

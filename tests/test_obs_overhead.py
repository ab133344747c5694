"""Observability must cost (near) nothing when disabled.

The hard perf gate lives in ``benchmarks/bench_sim_speed.py`` (warm
predict must stay within ``OBS_DISABLED_HEADROOM`` of the committed
baseline); these tests pin the mechanism that makes it hold — a
disabled switch records *nothing* and allocates nothing on the span
path — and its complement, that enabling actually records.
"""

import pytest

from repro import obs
from repro.config.parallelism import ParallelismConfig
from repro.config.system import single_node
from repro.obs.tracer import NULL_SPAN
from repro.sim.estimator import VTrain


@pytest.fixture
def clean_obs():
    was_enabled = obs.enabled()
    obs.reset()
    yield obs
    if was_enabled:
        obs.enable()
    else:
        obs.disable()
    obs.reset()


def run_predict(tiny_model, training):
    vtrain = VTrain(single_node(), check_memory_feasibility=False)
    plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
    return vtrain.predict(tiny_model, plan, training)


class TestDisabledRecordsNothing:
    def test_predict_leaves_tracer_and_histograms_empty(
            self, clean_obs, tiny_model, training):
        obs.disable()
        run_predict(tiny_model, training)
        snap = obs.snapshot()
        assert snap["spans_recorded"] == 0
        assert all(h["count"] == 0 for h in snap["histograms"].values())

    def test_disabled_span_is_one_shared_object(self, clean_obs):
        obs.disable()
        # Identity, not just equality: the disabled path must not
        # allocate a fresh context manager per call.
        assert obs.span("a") is obs.span("b") is NULL_SPAN

    def test_counters_still_track_caches(self, clean_obs, tiny_model,
                                         training):
        from repro.graph.builder import (clear_structure_cache,
                                         structure_cache_stats)
        obs.disable()
        clear_structure_cache()
        run_predict(tiny_model, training)
        stats = structure_cache_stats()
        assert stats["hits"] + stats["misses"] >= 1


class TestEnabledRecords:
    def test_predict_records_spans_and_histograms(
            self, clean_obs, tiny_model, training):
        obs.enable()
        run_predict(tiny_model, training)
        snap = obs.snapshot()
        span_names = {span.name for span in obs.tracer.spans}
        assert {"predict", "memory_check", "builder_init",
                "replay"} <= span_names
        # cold predicts compile, warm predicts refill durations
        assert span_names & {"structure_build", "duration_fill"}
        assert snap["histograms"]["sim.replay_s"]["count"] >= 1
        assert snap["histograms"]["sim.predict_total_s"]["count"] == 1
        assert snap["histograms"]["sim.replay_tasks_per_s"]["p50"] > 0

    def test_graph_phases_use_the_layer_names(self, clean_obs, tiny_model,
                                              training):
        """Builder init, structure build and duration fill record under
        the ``graph.*`` names ``predict --timing`` and perfbench print:
        both predicts init a builder, the cold one builds, the warm one
        refills."""
        from repro.graph.builder import clear_structure_cache
        obs.enable()
        clear_structure_cache()
        try:
            run_predict(tiny_model, training)
            run_predict(tiny_model, training)
        finally:
            clear_structure_cache()
        histograms = obs.snapshot()["histograms"]
        assert histograms["graph.builder_init_s"]["count"] == 2
        assert histograms["graph.structure_build_s"]["count"] == 1
        assert histograms["graph.duration_fill_s"]["count"] == 1
        assert not {"sim.builder_init_s", "sim.structure_build_s",
                    "sim.duration_fill_s"} & set(histograms)

    def test_predict_prepared_records_replay_throughput(
            self, clean_obs, tiny_model, training):
        obs.enable()
        vtrain = VTrain(single_node(), check_memory_feasibility=False)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        checked = vtrain.prepare_checked(tiny_model, plan, training)
        before = obs.snapshot()["histograms"]["sim.replay_s"]["count"]
        vtrain.predict_prepared([checked])
        after = obs.snapshot()["histograms"]["sim.replay_s"]["count"]
        assert after == before + 1

"""Unit tests for the observability core: metrics registry and tracer."""

import threading

import pytest

from repro import obs
from repro.obs.metrics import (HISTOGRAM_RESERVOIR, Counter, Histogram,
                               MetricsRegistry, hit_rates)
from repro.obs.tracer import ENGINE_PID, NULL_SPAN, SpanTracer


@pytest.fixture
def clean_obs():
    """Run a test against the global obs state, restored afterwards."""
    was_enabled = obs.enabled()
    obs.reset()
    yield obs
    if was_enabled:
        obs.enable()
    else:
        obs.disable()
    obs.reset()


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_rejects_negative_amounts(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.increment(7)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_exact_totals(self):
        hist = Histogram("h")
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_nearest_rank_quantiles(self):
        hist = Histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.quantile(0.50) == 51.0
        assert hist.quantile(0.90) == 91.0
        assert hist.quantile(0.99) == 100.0
        summary = hist.summary()
        assert summary["p50"] == 51.0
        assert summary["p90"] == 91.0
        assert summary["p99"] == 100.0

    def test_quantile_fraction_range(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_empty_summary_is_all_zero(self):
        summary = Histogram("h").summary()
        assert summary == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                           "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}

    def test_reservoir_is_bounded_but_totals_exact(self):
        hist = Histogram("h")
        total = HISTOGRAM_RESERVOIR + 100
        for value in range(total):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == total
        assert summary["min"] == 0.0  # exact even after FIFO eviction
        assert summary["max"] == float(total - 1)
        # Quantiles come from the newest HISTOGRAM_RESERVOIR observations.
        assert hist.quantile(0.0) == 100.0

    def test_reset(self):
        hist = Histogram("h")
        hist.observe(1.0)
        hist.reset()
        assert hist.count == 0
        assert hist.summary()["count"] == 0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.histogram("a.h") is registry.histogram("a.h")

    def test_cross_type_name_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError, match="different instrument type"):
            registry.histogram("a.b")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("z.count").increment(2)
        registry.counter("a.count").increment(1)
        registry.histogram("h.lat").observe(1.0)
        snap = registry.snapshot()
        assert list(snap) == ["counters", "histograms"]
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["counters"]["z.count"] == 2
        assert snap["histograms"]["h.lat"]["count"] == 1

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.increment(3)
        registry.reset()
        assert registry.counter("a.b") is counter
        assert counter.value == 0


class TestHitRates:
    def test_derives_rate_from_pairs(self):
        rates = hit_rates({"cache.hits": 3, "cache.misses": 1})
        assert rates == {"cache.hit_rate": pytest.approx(0.75)}

    def test_skips_unpaired_and_empty(self):
        assert hit_rates({"cache.hits": 3}) == {}
        assert hit_rates({"cache.hits": 0, "cache.misses": 0}) == {}


class TestGlobalSwitch:
    def test_disabled_span_is_shared_noop(self, clean_obs):
        obs.disable()
        assert obs.span("anything") is NULL_SPAN
        with obs.span("anything") as tags:
            assert tags == {}
        assert obs.tracer.spans == []

    def test_enabled_span_records(self, clean_obs):
        obs.enable()
        with obs.span("work", category="test", plan="t2 d2 p2") as tags:
            tags["extra"] = 1
        spans = obs.tracer.spans
        assert len(spans) == 1
        assert spans[0].name == "work"
        assert spans[0].category == "test"
        assert spans[0].tags == {"plan": "t2 d2 p2", "extra": 1}

    def test_observe_is_gated(self, clean_obs):
        obs.disable()
        obs.observe("test.lat", 1.0)
        assert "test.lat" not in obs.snapshot()["histograms"]
        obs.enable()
        obs.observe("test.lat", 1.0)
        assert obs.snapshot()["histograms"]["test.lat"]["count"] == 1

    def test_count_is_always_on(self, clean_obs):
        obs.disable()
        obs.count("test.events", 2)
        assert obs.snapshot()["counters"]["test.events"] == 2

    def test_snapshot_carries_derived_and_span_count(self, clean_obs):
        obs.enable()
        obs.count("test.cache.hits", 3)
        obs.count("test.cache.misses", 1)
        with obs.span("s"):
            pass
        snap = obs.snapshot()
        assert snap["derived"]["hit_rates"]["test.cache.hit_rate"] == 0.75
        assert snap["spans_recorded"] == 1
        assert snap["enabled"] is True

    def test_save_and_load_snapshot_round_trip(self, clean_obs, tmp_path):
        obs.enable()
        obs.count("test.events")
        obs.observe("test.lat", 2.0)
        path = obs.save_snapshot(tmp_path / "snap.json")
        loaded = obs.load_snapshot(path)
        assert loaded["counters"]["test.events"] == 1
        assert loaded["histograms"]["test.lat"]["count"] == 1

    def test_default_snapshot_path_env_override(self, clean_obs, monkeypatch):
        monkeypatch.setenv(obs.ENV_SNAPSHOT, "/tmp/custom.json")
        assert str(obs.default_snapshot_path()) == "/tmp/custom.json"

    def test_format_snapshot(self, clean_obs):
        obs.enable()
        obs.count("test.cache.hits", 1)
        obs.count("test.cache.misses", 1)
        obs.observe("test.lat", 4.0)
        text = obs.format_snapshot(obs.snapshot())
        assert "counters" in text
        assert "test.cache.hits" in text
        assert "50.0%" in text
        assert "p50=4" in text
        assert "spans recorded : 0" in text

    def test_format_empty_snapshot(self, clean_obs):
        text = obs.format_snapshot({})
        assert "no metrics recorded" in text


class TestTracer:
    def test_nesting_depth_recorded(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # inner completes first (completion order)
        assert tracer.spans[0].name == "inner"

    def test_span_duration_non_negative(self):
        tracer = SpanTracer()
        with tracer.span("s"):
            pass
        assert tracer.spans[0].duration_s >= 0.0

    def test_threads_get_distinct_dense_indices(self):
        tracer = SpanTracer()
        with tracer.span("main-span"):
            pass

        def worker():
            with tracer.span("worker-span"):
                pass

        thread = threading.Thread(target=worker, name="obs-worker")
        thread.start()
        thread.join()
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["main-span"].thread != by_name["worker-span"].thread
        assert {by_name["main-span"].thread,
                by_name["worker-span"].thread} == {0, 1}

    def test_chrome_trace_events(self):
        tracer = SpanTracer()
        with tracer.span("replay", category="engine", tasks=10):
            pass
        events = tracer.chrome_trace()
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "repro engine" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)
        assert len(spans) == 1
        span = spans[0]
        assert span["name"] == "replay"
        assert span["cat"] == "engine"
        assert span["pid"] == ENGINE_PID
        assert span["args"] == {"depth": 0, "tasks": 10}
        assert span["dur"] >= 0.0

    def test_reset_drops_spans(self):
        tracer = SpanTracer()
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.spans == []

    def test_exception_still_records_span(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert [span.name for span in tracer.spans] == ["failing"]

"""Tests for the ``repro.obs`` v2 telemetry surface.

Unit coverage for the request-scoped pieces the serving tier composes:
trace-ID context propagation, the tracer's bounded span ring (with the
``obs.spans.dropped`` self-accounting counter), the Prometheus text
renderer, the time-series sampler, the SLO tracker's error-budget
arithmetic, and the cross-process trace stitcher. The serve-level
integration of all of these lives in ``tests/test_serve_telemetry.py``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import (PROMETHEUS_CONTENT_TYPE, metric_name,
                                  render_prometheus)
from repro.obs.schema import validate
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.stitch import stitch_trace, wire_span
from repro.obs.timeseries import ServingTimeSeries
from repro.obs.tracer import SpanTracer

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture(autouse=True)
def clean_slate():
    obs.reset()
    was_enabled = obs.enabled()
    yield
    obs.reset()
    (obs.enable if was_enabled else obs.disable)()


# ---------------------------------------------------------------------------
# Trace-ID context
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_new_trace_ids_are_distinct_hex(self):
        ids = {obs.new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)

    def test_bind_and_restore(self):
        assert obs.current_trace_id() is None
        with obs.bind_trace("abc123"):
            assert obs.current_trace_id() == "abc123"
            with obs.bind_trace("nested"):
                assert obs.current_trace_id() == "nested"
            assert obs.current_trace_id() == "abc123"
        assert obs.current_trace_id() is None

    def test_bind_none_is_a_noop_binding(self):
        with obs.bind_trace("outer"):
            with obs.bind_trace(None):
                assert obs.current_trace_id() is None
            assert obs.current_trace_id() == "outer"

    def test_binding_is_thread_local(self):
        seen = {}

        def worker(name: str) -> None:
            with obs.bind_trace(name):
                time.sleep(0.01)
                seen[name] = obs.current_trace_id()

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {f"t{i}": f"t{i}" for i in range(8)}

    def test_spans_auto_tag_the_bound_trace_id(self):
        obs.enable()
        with obs.bind_trace("tid-1"):
            with obs.span("work", "test"):
                pass
        spans = list(obs.tracer.spans)
        assert spans[-1].tags["trace_id"] == "tid-1"


# ---------------------------------------------------------------------------
# Bounded span ring
# ---------------------------------------------------------------------------
class TestSpanRing:
    def test_ring_drops_oldest_and_counts(self):
        tracer = SpanTracer(max_spans=4)
        dropped = []
        tracer.on_drop = lambda n: dropped.append(n)
        for i in range(7):
            with tracer.span(f"s{i}", "test"):
                pass
        names = [s.name for s in tracer.spans]
        assert names == ["s3", "s4", "s5", "s6"]
        assert tracer.dropped == 3
        assert sum(dropped) == 3

    def test_process_tracer_feeds_dropped_counter(self):
        # The process-wide tracer's on_drop is wired to the registry's
        # obs.spans.dropped counter at import time.
        counter = obs.metrics.counter("obs.spans.dropped")
        assert obs.tracer.on_drop == counter.increment
        tracer = SpanTracer(max_spans=2)
        tracer.on_drop = counter.increment
        for i in range(5):
            with tracer.span(f"s{i}", "test"):
                pass
        assert counter.value == 3
        assert len(tracer.spans) == 2

    def test_reset_clears_drop_count(self):
        tracer = SpanTracer(max_spans=1)
        for _ in range(3):
            with tracer.span("s", "test"):
                pass
        assert tracer.dropped == 2
        tracer.reset()
        assert tracer.dropped == 0
        assert not tracer.spans

    def test_env_sets_ring_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_MAX_SPANS", "3")
        assert SpanTracer().max_spans == 3
        assert SpanTracer(max_spans=5).max_spans == 5

    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "1e6", ""])
    def test_malformed_env_capacity_raises(self, monkeypatch, raw):
        """A bad REPRO_OBS_MAX_SPANS fails loudly, naming the variable
        and its value; it used to raise a bare ValueError at import, or
        (``0``) keep no spans at all."""
        from repro.errors import ConfigError
        monkeypatch.setenv("REPRO_OBS_MAX_SPANS", raw)
        with pytest.raises(ConfigError) as excinfo:
            SpanTracer()
        assert "REPRO_OBS_MAX_SPANS" in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)


# ---------------------------------------------------------------------------
# Prometheus rendering
# ---------------------------------------------------------------------------
class TestPrometheus:
    def test_metric_name_sanitisation(self):
        assert metric_name("serve.requests") == "repro_serve_requests"
        assert metric_name("serve.p99-ms") == "repro_serve_p99_ms"
        assert metric_name("9lives") == "repro__9lives"

    def test_render_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").increment(3)
        registry.gauge("serve.slo.burn_rate").set(0.25)
        for value in (0.1, 0.2, 0.3):
            registry.histogram("serve.predict_s").observe(value)
        snap = registry.snapshot()
        text = render_prometheus(snap)
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_requests 3" in text
        assert "# TYPE repro_serve_slo_burn_rate gauge" in text
        assert "# TYPE repro_serve_predict_s summary" in text
        assert 'repro_serve_predict_s{quantile="0.99"}' in text
        assert "repro_serve_predict_s_count 3" in text
        assert text.endswith("\n")

    def test_derived_hit_rates_render_as_gauges(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").increment(3)
        registry.counter("cache.misses").increment(1)
        snap = registry.snapshot()
        snap["derived"] = {"hit_rates": {"cache.hit_rate": 0.75}}
        text = render_prometheus(snap)
        assert "# TYPE repro_cache_hit_rate gauge" in text
        assert "repro_cache_hit_rate 0.75" in text

    def test_content_type_pins_exposition_version(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------
class TestTimeSeries:
    def test_windowed_rates_between_samples(self):
        registry = MetricsRegistry()
        series = ServingTimeSeries(registry, capacity=10)
        registry.counter("serve.requests").increment(10)
        series.sample_now()
        registry.counter("serve.requests").increment(20)
        time.sleep(0.02)
        sample = series.sample_now()
        assert sample["requests"] == 30
        assert sample["req_per_s"] > 0
        # First sample has no previous window: rate pinned to zero.
        assert series.samples()[0]["req_per_s"] == 0.0

    def test_ring_eviction_counts(self):
        registry = MetricsRegistry()
        series = ServingTimeSeries(registry, capacity=3)
        for _ in range(5):
            series.sample_now()
        assert len(series.samples()) == 3
        assert registry.counter("obs.ts.evicted").value == 2
        assert registry.counter("obs.ts.samples").value == 5

    def test_cache_hit_rate_and_batch_mean(self):
        registry = MetricsRegistry()
        series = ServingTimeSeries(registry, capacity=10)
        series.sample_now()
        registry.counter("serve.requests.predict").increment(4)
        registry.counter("serve.cache.served").increment(2)
        registry.counter("serve.dedup.coalesced").increment(1)
        registry.counter("serve.batch.jobs").increment(6)
        registry.counter("serve.batch.flushes").increment(2)
        sample = series.sample_now()
        assert sample["cache_hit_rate"] == pytest.approx(0.75)
        assert sample["batch_mean"] == pytest.approx(3.0)

    def test_background_sampler_thread(self):
        registry = MetricsRegistry()
        series = ServingTimeSeries(registry, capacity=50, interval_s=0.01)
        series.start()
        try:
            deadline = time.monotonic() + 5.0
            while (len(series.samples()) < 3
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            series.stop()
        assert len(series.samples()) >= 3
        series.stop()  # idempotent

    def test_payload_matches_schema(self):
        registry = MetricsRegistry()
        series = ServingTimeSeries(registry, capacity=5)
        series.sample_now()
        series.sample_now()
        validate(series.payload(), load_schema("obs_timeseries.schema.json"))


# ---------------------------------------------------------------------------
# SLO tracking
# ---------------------------------------------------------------------------
def _sample(t: float, requests: int, errors: int,
            p99: float) -> dict:
    return {"t_unix": t, "requests": requests, "errors": errors,
            "p99_s": p99}


class TestSLO:
    def test_healthy_window(self):
        tracker = SLOTracker(SLOConfig(latency_objective_s=0.25,
                                       availability_objective=0.999,
                                       window_s=600.0))
        verdict = tracker.evaluate([
            _sample(0.0, 0, 0, 0.01),
            _sample(60.0, 1000, 0, 0.02),
        ])
        assert verdict["latency"]["ok"]
        assert verdict["availability"]["ok"]
        assert verdict["error_budget"]["remaining"] == pytest.approx(1.0)
        assert verdict["error_budget"]["burn_rate"] == pytest.approx(0.0)

    def test_burn_rate_of_exactly_on_budget(self):
        tracker = SLOTracker(SLOConfig(availability_objective=0.99))
        verdict = tracker.evaluate([
            _sample(0.0, 0, 0, 0.0),
            _sample(60.0, 1000, 10, 0.0),  # 1% errors vs 1% allowed
        ])
        assert verdict["error_budget"]["burn_rate"] == pytest.approx(1.0)
        assert verdict["error_budget"]["consumed"] == pytest.approx(1.0)

    def test_latency_violation(self):
        tracker = SLOTracker(SLOConfig(latency_objective_s=0.1))
        verdict = tracker.evaluate([
            _sample(0.0, 0, 0, 0.05),
            _sample(1.0, 10, 0, 0.5),
        ])
        assert not verdict["latency"]["ok"]
        assert verdict["latency"]["p99_s"] == 0.5

    def test_window_excludes_old_samples(self):
        tracker = SLOTracker(SLOConfig(window_s=100.0))
        verdict = tracker.evaluate([
            _sample(0.0, 0, 0, 9.9),       # outside the window
            _sample(1000.0, 500, 0, 0.01),
            _sample(1060.0, 600, 0, 0.01),
        ])
        assert verdict["window"]["samples"] == 2
        assert verdict["window"]["requests"] == 100
        assert verdict["latency"]["ok"]

    def test_empty_ring_is_healthy_no_data(self):
        tracker = SLOTracker(SLOConfig())
        verdict = tracker.evaluate([])
        assert verdict["window"]["samples"] == 0
        assert verdict["latency"]["ok"]
        assert verdict["error_budget"]["remaining"] == 1.0

    def test_gauges_published_on_registry(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(SLOConfig(availability_objective=0.9),
                             registry=registry)
        tracker.evaluate([
            _sample(0.0, 0, 0, 0.0),
            _sample(1.0, 100, 20, 0.0),  # 20% errors vs 10% allowed
        ])
        assert registry.gauge("serve.slo.burn_rate").value == pytest.approx(
            2.0)
        assert registry.gauge(
            "serve.slo.error_budget_remaining").value == pytest.approx(0.0)
        assert registry.gauge("serve.slo.latency_ok").value == 1.0


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------
class TestStitch:
    def test_two_process_trace_with_flow_events(self):
        client = [wire_span("client.call", "client", 100.0, 0.5,
                            method="predict")]
        server = [wire_span("serve.predict", "serve", 100.1, 0.3)]
        payload = stitch_trace(trace_id="tid", client_spans=client,
                               server_spans=server,
                               client_pid=11, server_pid=22)
        validate(payload, load_schema("chrome_trace.schema.json"))
        events = payload["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["pid"] for m in metas} == {11, 22}
        spans = [e for e in events if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"client.call",
                                              "serve.predict"}
        # Microsecond timestamps are relative to the earliest start.
        assert min(s["ts"] for s in spans) == 0.0
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert len(flows) == 4
        by_id = {e["id"] for e in flows}
        assert by_id == {"tid:req", "tid:res"}
        finishes = [e for e in flows if e["ph"] == "f"]
        assert all(e["bp"] == "e" for e in finishes)
        assert payload["otherData"]["trace_id"] == "tid"

    def test_one_sided_trace_has_no_flows(self):
        server = [wire_span("serve.predict", "serve", 5.0, 0.1)]
        payload = stitch_trace(trace_id="t", client_spans=[],
                               server_spans=server,
                               client_pid=1, server_pid=2)
        assert not [e for e in payload["traceEvents"]
                    if e["ph"] in ("s", "f")]
        validate(payload, load_schema("chrome_trace.schema.json"))

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no spans"):
            stitch_trace(trace_id="t", client_spans=[], server_spans=[],
                         client_pid=1, server_pid=2)

    def test_tags_and_exact_starts_ride_in_args(self):
        server = [wire_span("serve.batch.queued", "serve", 50.0, 0.002,
                            leader_trace_id="other")]
        payload = stitch_trace(trace_id="t", client_spans=[],
                               server_spans=server,
                               client_pid=1, server_pid=2)
        span = [e for e in payload["traceEvents"] if e["ph"] == "X"][0]
        assert span["args"]["start_unix"] == 50.0
        assert span["args"]["leader_trace_id"] == "other"
        assert span["args"]["trace_id"] == "t"

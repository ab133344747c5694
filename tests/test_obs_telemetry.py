"""Tests for the ``repro.obs`` v2 telemetry surface.

Unit coverage for the request-scoped pieces the serving tier composes:
trace-ID context propagation, the tracer's bounded span ring (with the
``obs.spans.dropped`` self-accounting counter), and the cross-process
trace stitcher. The serve-level integration of all of these lives in
``tests/test_serve_telemetry.py``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs.schema import validate
from repro.obs.stitch import stitch_trace, wire_span
from repro.obs.tracer import DEFAULT_MAX_SPANS, SpanTracer

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

    def test_capacity_has_one_source(self, monkeypatch):
        """No environment variable resizes the ring: a default tracer
        and the process tracer both hold ``DEFAULT_MAX_SPANS``."""
        monkeypatch.setenv("REPRO_OBS_MAX_SPANS", "3")
        assert SpanTracer().max_spans == DEFAULT_MAX_SPANS
        assert obs.tracer.max_spans == DEFAULT_MAX_SPANS

    def test_reset_clears_drop_count(self):
        tracer = SpanTracer(max_spans=1)
        for _ in range(3):
            with tracer.span("s", "test"):
                pass
        assert tracer.dropped == 2
        tracer.reset()
        assert tracer.dropped == 0
        assert not tracer.spans


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

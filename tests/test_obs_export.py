"""Tests for Chrome-trace export: exact round-trip and schema validity."""

import json
from pathlib import Path

import pytest
from graph_oracle import build_graph, simulate

from repro.config.parallelism import ParallelismConfig
from repro.config.system import single_node
from repro.errors import SimulationError
from repro.obs.export import (SIM_PID_OFFSET, combined_trace,
                              events_from_trace, load_trace,
                              simulation_trace_events, write_trace)
from repro.obs.schema import validate
from repro.obs.tracer import ENGINE_PID, SpanTracer
from repro.sim.estimator import VTrain

SCHEMA_PATH = (Path(__file__).parent.parent / "schemas"
               / "chrome_trace.schema.json")


@pytest.fixture
def timeline_result(tiny_model, training):
    vtrain = VTrain(single_node(), check_memory_feasibility=False)
    plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
    graph = build_graph(vtrain, tiny_model, plan, training)
    return simulate(graph, record_timeline=True)


class TestSimulationExport:
    def test_requires_recorded_timeline(self, tiny_model, training):
        vtrain = VTrain(single_node(), check_memory_feasibility=False)
        plan = ParallelismConfig(tensor=1, data=2, pipeline=2)
        graph = build_graph(vtrain, tiny_model, plan, training)
        result = simulate(graph)  # no timeline
        with pytest.raises(SimulationError):
            simulation_trace_events(result)

    def test_devices_become_offset_pids(self, timeline_result):
        trace = simulation_trace_events(timeline_result)
        sim_pids = {e["pid"] for e in trace if e["ph"] == "X"}
        devices = {e.device for e in timeline_result.events}
        assert sim_pids == {SIM_PID_OFFSET + d for d in devices}

    def test_streams_become_stable_tids(self, timeline_result):
        trace = simulation_trace_events(timeline_result)
        streams = sorted({e.stream for e in timeline_result.events})
        names = {e["args"]["name"]: e["tid"] for e in trace
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {stream: tid for tid, stream in enumerate(streams)}

    def test_kinds_become_categories(self, timeline_result):
        trace = simulation_trace_events(timeline_result)
        kinds = {e.kind for e in timeline_result.events}
        assert {e["cat"] for e in trace if e["ph"] == "X"} == kinds

    def test_round_trip_is_exact(self, timeline_result):
        trace = simulation_trace_events(timeline_result)
        rebuilt = events_from_trace(trace)
        assert rebuilt == timeline_result.events

    def test_round_trip_ignores_engine_spans(self, timeline_result):
        tracer = SpanTracer()
        with tracer.span("replay"):
            pass
        payload = combined_trace(timeline_result,
                                 engine_events=tracer.chrome_trace())
        rebuilt = events_from_trace(payload["traceEvents"])
        assert rebuilt == timeline_result.events


class TestCombinedTrace:
    def test_holds_both_pid_ranges(self, timeline_result):
        tracer = SpanTracer()
        with tracer.span("predict"):
            pass
        payload = combined_trace(timeline_result,
                                 engine_events=tracer.chrome_trace(),
                                 metadata={"model": "tiny"})
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert ENGINE_PID in pids
        assert any(pid >= SIM_PID_OFFSET for pid in pids)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"] == {"model": "tiny"}

    def test_engine_only_trace(self):
        tracer = SpanTracer()
        with tracer.span("structure_build"):
            pass
        payload = combined_trace(engine_events=tracer.chrome_trace())
        assert all(e["pid"] == ENGINE_PID for e in payload["traceEvents"])

    def test_matches_published_schema(self, timeline_result):
        tracer = SpanTracer()
        with tracer.span("replay", tasks=3):
            pass
        payload = combined_trace(timeline_result,
                                 engine_events=tracer.chrome_trace(),
                                 metadata={"granularity": "operator"})
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        validate(payload, schema)  # raises on violation

    def test_write_and_load_round_trip(self, timeline_result, tmp_path):
        payload = combined_trace(timeline_result)
        path = write_trace(tmp_path / "trace.json", payload)
        assert load_trace(path) == json.loads(json.dumps(payload))
        rebuilt = events_from_trace(load_trace(path)["traceEvents"])
        assert rebuilt == timeline_result.events

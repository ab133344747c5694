"""Tests for request-scoped telemetry in the serving tier.

The load-bearing claims under test:

* the envelope ``trace_id`` is bound per request and **never**
  cross-contaminates between interleaved concurrent requests;
* coalesced dedup followers report the *leader's* trace ID, naming the
  computation that actually served them;
* a traced served predict stitches into a single Chrome trace — client
  and daemon as two processes, flow events across the RPC boundary,
  micro-batch queueing visible — that round-trips through
  ``schemas/chrome_trace.schema.json``;
* the ``metrics`` RPC and ``repro stats --connect`` read the live
  registry, and the JSON access log records every request.
"""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import single_node
from repro.graph.builder import clear_structure_cache
from repro.obs.schema import validate
from repro.obs.stitch import stitch_trace
from repro.serve import (PredictionService, RemoteError, ServeClient,
                         ServeDaemon, protocol)
from repro.serve import service as service_module

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture(autouse=True)
def clean_slate():
    clear_structure_cache()
    obs.reset()
    yield
    clear_structure_cache()
    obs.reset()


@pytest.fixture
def service():
    svc = PredictionService()
    yield svc
    svc.close()


@pytest.fixture
def daemon(service):
    server = ServeDaemon(service, port=0)
    server.start()
    yield server
    server.stop()


def tiny_description(*, tensor: int = 2, data: int = 2, pipeline: int = 2,
                     micro_batch_size: int = 2) -> InputDescription:
    model = ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                        num_heads=8, vocab_size=32_000, name="tiny")
    plan = ParallelismConfig(tensor=tensor, data=data, pipeline=pipeline,
                             micro_batch_size=micro_batch_size)
    return InputDescription(model=model, system=single_node(), plan=plan,
                            training=TrainingConfig(global_batch_size=16))


def predict_params(description: InputDescription) -> dict:
    return {"description": description.to_dict(), "granularity": "stage"}


# ---------------------------------------------------------------------------
# Trace propagation
# ---------------------------------------------------------------------------
class TestTracePropagation:
    def test_envelope_trace_id_lands_in_response(self, service):
        request = protocol.request(1, "predict",
                                   predict_params(tiny_description()),
                                   trace_id="feedc0dedeadbeef")
        response, _ = service.dispatch(request)
        assert response["result"]["served"]["trace_id"] == "feedc0dedeadbeef"

    def test_untraced_request_has_no_trace_id(self, service):
        request = protocol.request(1, "predict",
                                   predict_params(tiny_description()))
        response, _ = service.dispatch(request)
        served = response["result"]["served"]
        assert "trace_id" not in served
        assert "spans" not in served

    def test_interleaved_trace_ids_never_cross_contaminate(self, service):
        """Concurrent requests with distinct trace IDs each get exactly
        their own ID back — in the response and on every span."""
        descriptions = [tiny_description(tensor=t, data=d, pipeline=p,
                                         micro_batch_size=m)
                        for t, d, p, m in
                        ((2, 2, 2, 2), (1, 4, 2, 1), (4, 2, 1, 2),
                         (2, 4, 1, 1), (1, 2, 4, 2), (8, 1, 1, 1))]
        results: dict[str, dict] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(descriptions))

        def worker(slot: int) -> None:
            trace_id = f"trace{slot:012d}"
            params = predict_params(descriptions[slot]) | {"trace": True}
            request = protocol.request(slot, "predict", params,
                                       trace_id=trace_id)
            try:
                barrier.wait()
                response, _ = service.dispatch(request)
                results[trace_id] = response["result"]["served"]
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(descriptions))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        assert len(results) == len(descriptions)
        for trace_id, served in results.items():
            assert served["trace_id"] == trace_id
            assert served["leader_trace_id"] == trace_id  # own leader
            for span in served["spans"]:
                assert span["tags"]["trace_id"] == trace_id

    def test_coalesced_followers_report_the_leaders_trace_id(
            self, monkeypatch):
        """A dedup burst: every coalesced follower's response names the
        leader's trace ID as the computation that served it."""
        monkeypatch.setattr(service_module, "BATCH_WINDOW_S", 0.05)
        service = PredictionService()
        try:
            description = tiny_description()
            burst = 6
            responses: list[dict] = [None] * burst
            errors: list[BaseException] = []
            barrier = threading.Barrier(burst)

            def worker(slot: int) -> None:
                params = predict_params(description) | {"trace": True}
                request = protocol.request(slot, "predict", params,
                                           trace_id=f"burst{slot:07d}")
                try:
                    barrier.wait()
                    response, _ = service.dispatch(request)
                    responses[slot] = response["result"]["served"]
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(burst)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors[0]
        finally:
            service.close()

        by_source: dict[str, list[dict]] = {}
        for served in responses:
            by_source.setdefault(served["source"], []).append(served)
        assert len(by_source.get("computed", [])) == 1
        leader = by_source["computed"][0]
        assert leader["leader_trace_id"] == leader["trace_id"]
        assert by_source.get("coalesced"), by_source.keys()
        for served in by_source["coalesced"]:
            assert served["leader_trace_id"] == leader["trace_id"]
            assert served["trace_id"] != leader["trace_id"]
            # The follower's execute span names the leader too.
            execute = [s for s in served["spans"]
                       if s["name"] == "serve.batch.execute"]
            assert execute[0]["tags"]["leader_trace_id"] == \
                leader["trace_id"]

    def test_daemon_mints_trace_id_when_trace_requested_without_one(
            self, service):
        params = predict_params(tiny_description()) | {"trace": True}
        result = service.predict(params)
        served = result["served"]
        assert len(served["trace_id"]) == 16
        assert served["spans"]


# ---------------------------------------------------------------------------
# Stitched traces over the wire
# ---------------------------------------------------------------------------
class TestStitchedTrace:
    def test_served_predict_stitches_and_round_trips_schema(self, daemon):
        host, port = daemon.address
        trace_id = obs.new_trace_id()
        with ServeClient.connect(host, port) as client:
            payload = client.predict(
                description=tiny_description().to_dict(),
                granularity="stage", trace=True, trace_id=trace_id)
            client_spans = client.last_call_spans
        served = payload["served"]
        assert served["trace_id"] == trace_id
        assert client_spans and client_spans[0]["name"] == "client.call"

        stitched = stitch_trace(trace_id=trace_id,
                                client_spans=client_spans,
                                server_spans=served["spans"],
                                client_pid=1234,
                                server_pid=served["pid"])
        # Round trip through JSON exactly as the CLI writes it.
        stitched = json.loads(json.dumps(stitched))
        validate(stitched, load_schema("chrome_trace.schema.json"))

        events = stitched["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {1234, served["pid"]}
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"client.call", "serve.predict",
                "serve.batch.queued"} <= names
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert {e["id"] for e in flows} == {f"{trace_id}:req",
                                            f"{trace_id}:res"}
        # The client span encloses the daemon's handling in wall time.
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        assert (spans["client.call"]["args"]["start_unix"]
                <= spans["serve.predict"]["args"]["start_unix"])

    def test_queueing_interval_is_visible(self, daemon):
        host, port = daemon.address
        with ServeClient.connect(host, port) as client:
            payload = client.predict(
                description=tiny_description(tensor=4, data=1).to_dict(),
                granularity="stage", trace=True,
                trace_id=obs.new_trace_id())
        spans = {s["name"]: s for s in payload["served"]["spans"]}
        queued = spans["serve.batch.queued"]
        execute = spans["serve.batch.execute"]
        assert queued["duration_s"] >= 0.0
        assert execute["tags"]["batch_size"] >= 1
        # Queueing ends where execution starts.
        assert (queued["start_unix"] + queued["duration_s"]
                == pytest.approx(execute["start_unix"], abs=1e-6))


# ---------------------------------------------------------------------------
# Telemetry RPCs
# ---------------------------------------------------------------------------
class TestTelemetryRPCs:
    def test_metrics_snapshot_format(self, daemon):
        with ServeClient.connect(*daemon.address) as client:
            client.ping()
            payload = client.metrics()
        assert payload["format"] == "snapshot"
        assert payload["snapshot"]["counters"]["serve.requests"] >= 1

    @pytest.mark.parametrize("fmt", ["xml", "prometheus"])
    def test_metrics_unknown_format_rejected(self, daemon, fmt):
        """``snapshot`` is the only format: a client asking for another
        exposition gets an error, never JSON it did not ask for."""
        with ServeClient.connect(*daemon.address) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.call("metrics", {"format": fmt})
        assert excinfo.value.code == protocol.INVALID_PARAMS


# ---------------------------------------------------------------------------
# Access log
# ---------------------------------------------------------------------------
class TestAccessLog:
    def test_one_json_line_per_request(self):
        sink = io.StringIO()
        service = PredictionService(access_log=sink)
        try:
            service.dispatch(protocol.request(1, "ping"),
                             peer="10.0.0.9:1234")
            service.dispatch(
                protocol.request(2, "predict",
                                 predict_params(tiny_description()),
                                 trace_id="aaaabbbbccccdddd"))
            service.dispatch(protocol.request(3, "nosuch"))
        finally:
            service.close()
        lines = [json.loads(line)
                 for line in sink.getvalue().splitlines()]
        assert len(lines) == 3
        ping, predict, bad = lines
        assert ping["method"] == "ping" and ping["status"] == "ok"
        assert ping["peer"] == "10.0.0.9:1234"
        assert ping["code"] == 0
        assert predict["trace_id"] == "aaaabbbbccccdddd"
        assert predict["elapsed_s"] > 0
        assert bad["status"] == "error"
        assert bad["code"] == protocol.METHOD_NOT_FOUND

    def test_torn_log_sink_never_fails_the_request(self):
        sink = io.StringIO()
        service = PredictionService(access_log=sink)
        try:
            sink.close()  # writes now raise ValueError
            response, _ = service.dispatch(protocol.request(1, "ping"))
            assert response["result"]["ok"] is True
        finally:
            service.close()


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
class TestCLI:
    @pytest.fixture
    def restore_obs(self):
        was_enabled = obs.enabled()
        yield
        (obs.enable if was_enabled else obs.disable)()
        obs.reset()

    def test_stats_connect_reads_live_registry(self, daemon, capsys):
        host, port = daemon.address
        with ServeClient.connect(host, port) as client:
            client.ping()
        assert main(["stats", "--connect", f"{host}:{port}"]) == 0
        out = capsys.readouterr().out
        assert f"live daemon      : {host}:{port}" in out
        assert "serve.requests" in out

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "0", "--metrics-port", "0"],
        ["serve", "--port", "0", "--sample-interval", "1"],
        ["serve", "--port", "0", "--slo-latency-ms", "250"],
        ["serve", "--port", "0", "--slo-availability", "0.999"],
        ["serve", "--port", "0", "--slo-window", "600"],
        ["top", "--connect", "127.0.0.1:7915"],
    ], ids=["metrics-port", "sample-interval", "slo-latency-ms",
            "slo-availability", "slo-window", "top"])
    def test_retired_dashboard_surface_fails_like_any_unknown_one(
            self, argv, capsys):
        """No compatibility shims: the retired flags and ``repro top``
        are rejected by the argument parser before anything starts."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    def test_predict_connect_trace_writes_stitched_file(
            self, daemon, tmp_path, capsys, restore_obs):
        host, port = daemon.address
        description = tiny_description()
        description_path = tmp_path / "desc.json"
        description.save(description_path)
        trace_path = tmp_path / "stitched.json"
        assert main(["predict", str(description_path),
                     "--granularity", "stage",
                     "--connect", f"{host}:{port}",
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "stitched events" in out
        payload = json.loads(trace_path.read_text())
        validate(payload, load_schema("chrome_trace.schema.json"))
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] == "X"}
        assert {"client.call", "serve.predict"} <= names
        # The daemon fixture shares this process, so pids coincide here;
        # the cross-process flow events are still stitched in.
        flows = [e for e in payload["traceEvents"] if e["ph"] in ("s", "f")]
        assert len(flows) == 4

    def test_predict_connect_timing_still_rejected(self, daemon, capsys):
        host, port = daemon.address
        assert main(["predict", "--preset", "mtnlg", "--timing",
                     "--connect", f"{host}:{port}"]) == 1
        assert "--timing" in capsys.readouterr().err

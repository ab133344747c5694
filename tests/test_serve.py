"""Tests for ``repro.serve`` — the prediction daemon and its guarantees.

The load-bearing claims under test:

* served predictions are **bit-identical** to direct
  :meth:`VTrain.predict` calls, on every serving path;
* N identical concurrent predicts run **exactly one** simulation
  (in-flight dedup for the concurrent window, the prediction cache for
  stragglers);
* concurrent ``VTrain.predict`` on a warm structure cache stays
  bit-identical to serial with exact hit counters (the thread-safety
  satellite of the serving PR);
* the JSON-RPC transports (TCP and stdio) round-trip results and
  streamed progress without altering them.
"""

from __future__ import annotations

import io
import json
import math
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, RecomputeMode,
                                      TrainingConfig)
from repro.config.system import single_node
from repro.dse.cache import PredictionCache, fingerprint
from repro.dse.explorer import DesignPoint, DesignSpaceExplorer
from repro.errors import ConfigError, ReproError
from repro.graph.builder import (Granularity, clear_structure_cache,
                                 structure_cache_get, structure_cache_put,
                                 structure_cache_stats)
from repro.serve import (PredictionService, RemoteError, ServeClient,
                         ServeDaemon, protocol, serve_stdio)
from repro.serve.service import ShuttingDownError
from repro.sim.estimator import VTrain


@pytest.fixture(autouse=True)
def clean_slate():
    """Serve tests assert on process-wide state (structure cache,
    metric counters); start and leave each test clean."""
    clear_structure_cache()
    obs.reset()
    yield
    clear_structure_cache()
    obs.reset()


@pytest.fixture
def service():
    svc = PredictionService(batch_window_s=0.001)
    yield svc
    svc.close()


def tiny_description(*, tensor: int = 2, data: int = 2, pipeline: int = 2,
                     micro_batch_size: int = 2) -> InputDescription:
    model = ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                        num_heads=8, vocab_size=32_000, name="tiny")
    plan = ParallelismConfig(tensor=tensor, data=data, pipeline=pipeline,
                             micro_batch_size=micro_batch_size)
    return InputDescription(model=model, system=single_node(), plan=plan,
                            training=TrainingConfig(global_batch_size=16))


# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = protocol.request(7, "predict", {"x": [1.5, "a"]})
        assert protocol.decode_line(protocol.encode(message)[:-1]) == message

    def test_float_repr_survives_the_wire(self):
        value = 0.1 + 0.2  # not exactly 0.3
        frame = protocol.encode(protocol.response(1, {"t": value}))
        assert protocol.decode_line(frame[:-1])["result"]["t"] == value

    def test_notification_has_no_id(self):
        note = protocol.notification("dse.progress", {"done": 1})
        assert "id" not in note and note["method"] == "dse.progress"

    def test_read_message_clean_eof_returns_none(self):
        assert protocol.read_message(io.BytesIO(b"")) is None

    def test_read_message_rejects_truncated_frame(self):
        with pytest.raises(protocol.ProtocolError, match="mid-message"):
            protocol.read_message(io.BytesIO(b'{"jsonrpc":"2.0"'))

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.decode_line(b"[1,2]")

    def test_parse_request_rejects_missing_method(self):
        with pytest.raises(protocol.ProtocolError, match="method"):
            protocol.parse_request({"jsonrpc": "2.0", "id": 1})

    @pytest.mark.parametrize("frame,match", [
        (b'{"jsonrpc":"2.0","id":1', "mid-message"),
        (b'{"id": 1, "method": "ping"}' + b" " * 64 + b"\n", "exceeds"),
        (b'{"method": "\xff\xfe"}\n', "invalid message frame"),
        (b"[1, 2]\n", "object"),
        (b'"ping"\n', "object"),
        (b"null\n", "object"),
    ], ids=["truncated", "oversized", "non-utf8", "array", "string",
            "null"])
    def test_read_message_rejects_bad_frames(self, monkeypatch, frame,
                                             match):
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 64)
        with pytest.raises(protocol.ProtocolError, match=match):
            protocol.read_message(io.BytesIO(frame))

    def test_stream_of_messages(self):
        stream = io.BytesIO(protocol.encode(protocol.request(1, "ping"))
                            + protocol.encode(protocol.request(2, "ping")))
        first = protocol.read_message(stream)
        second = protocol.read_message(stream)
        assert (first["id"], second["id"]) == (1, 2)
        assert protocol.read_message(stream) is None


# ---------------------------------------------------------------------------
# Service semantics (no transport)
# ---------------------------------------------------------------------------
class TestServiceBitIdentical:
    def test_served_equals_direct_vtrain(self, service):
        description = tiny_description()
        direct = VTrain(description.system).predict(
            description.model, description.plan, description.training)
        served = service.predict({"description": description.to_dict()})
        assert served["iteration_time"] == direct.iteration_time
        assert (served["gpu_compute_utilization"]
                == direct.gpu_compute_utilization)
        assert served["memory_per_gpu"] == direct.memory_per_gpu
        assert served["num_gpus"] == description.plan.total_gpus

    def test_cache_path_is_bit_identical_to_computed(self, service):
        description = tiny_description()
        params = {"description": description.to_dict()}
        computed = service.predict(params)
        cached = service.predict(params)
        assert computed["served"]["source"] == "computed"
        assert cached["served"]["source"] == "cache"
        computed.pop("served")
        cached.pop("served")
        assert cached == computed

    def test_stage_granularity_matches_direct(self, service):
        description = tiny_description()
        direct = VTrain(description.system,
                        granularity=Granularity.STAGE).predict(
            description.model, description.plan, description.training)
        served = service.predict({"description": description.to_dict(),
                                  "granularity": "stage"})
        assert served["iteration_time"] == direct.iteration_time

    def test_preset_request_resolves_zoo_key(self, service):
        served = service.predict({"preset": "megatron-1.7b",
                                  "granularity": "stage"})
        assert served["iteration_time"] > 0
        assert served["num_gpus"] == 32


class TestServiceDedup:
    def test_n_identical_concurrent_predicts_run_one_simulation(
            self, service):
        """The acceptance criterion: the dedup counter is pinned.

        Whatever the interleaving, the total across serving sources is
        exactly N with one leader — and the resident simulator counts
        exactly one simulation.
        """
        description = tiny_description()
        params = {"description": description.to_dict()}
        n = 8
        results: list[dict] = [None] * n
        errors: list[BaseException] = []
        barrier = threading.Barrier(n)

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                results[slot] = service.predict(params)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Exactly one simulation ran, no matter how threads interleaved.
        assert [v.num_predictions
                for v in service._vtrains.values()] == [1]
        stats = service.stats()["dedup"]
        assert stats["leaders"] == 1
        assert stats["coalesced"] + stats["cache_served"] == n - 1
        # And every caller saw the same bits.
        payloads = [{k: v for k, v in r.items() if k != "served"}
                    for r in results]
        assert all(payload == payloads[0] for payload in payloads)

    def test_sequential_repeats_hit_the_cache_not_the_simulator(
            self, service):
        params = {"description": tiny_description().to_dict()}
        service.predict(params)
        for _ in range(3):
            assert service.predict(params)["served"]["source"] == "cache"
        assert [v.num_predictions
                for v in service._vtrains.values()] == [1]

    def test_distinct_plans_do_not_coalesce(self, service):
        first = service.predict(
            {"description": tiny_description(tensor=2, data=2, pipeline=2)
             .to_dict()})
        second = service.predict(
            {"description": tiny_description(tensor=1, data=4, pipeline=2)
             .to_dict()})
        assert first["iteration_time"] != second["iteration_time"]
        assert service.stats()["dedup"]["leaders"] == 2


class TestServiceBatching:
    def test_predict_batch_preserves_order_and_matches_direct(
            self, service):
        descriptions = [tiny_description(tensor=2, data=2, pipeline=2),
                        tiny_description(tensor=1, data=4, pipeline=2),
                        tiny_description(tensor=4, data=2, pipeline=1)]
        rows = service.predict_batch(
            {"requests": [{"description": d.to_dict()}
                          for d in descriptions]})["results"]
        assert len(rows) == 3
        vtrain = VTrain(descriptions[0].system)
        for description, row in zip(descriptions, rows):
            direct = vtrain.predict(description.model, description.plan,
                                    description.training)
            assert row["result"]["iteration_time"] == direct.iteration_time
            assert row["result"]["memory_per_gpu"] == direct.memory_per_gpu

    def test_duplicate_entries_in_one_batch_coalesce(self, service):
        params = {"description": tiny_description().to_dict()}
        rows = service.predict_batch(
            {"requests": [params, params, params]})["results"]
        assert [v.num_predictions
                for v in service._vtrains.values()] == [1]
        payloads = [{k: v for k, v in row["result"].items()
                     if k != "served"} for row in rows]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_infeasible_entry_fails_alone(self, service):
        good = {"description": tiny_description().to_dict()}
        bad = {"description":
               tiny_description(tensor=2, data=2, pipeline=3).to_dict()}
        rows = service.predict_batch({"requests": [good, bad]})["results"]
        assert "result" in rows[0]
        assert rows[1]["error"]["code"] == protocol.INFEASIBLE

    def test_batched_jobs_flow_through_batch_counters(self, service):
        descriptions = [tiny_description(tensor=2, data=2, pipeline=2),
                        tiny_description(tensor=1, data=4, pipeline=2)]
        service.predict_batch(
            {"requests": [{"description": d.to_dict()}
                          for d in descriptions]})
        batch = service.stats()["batch"]
        assert batch["jobs"] == 2
        assert batch["flushes"] >= 1


class TestServiceErrors:
    def test_infeasible_plan_raises_like_direct_predict(self, service):
        from repro.errors import InfeasibleConfigError
        bad = tiny_description(tensor=2, data=2, pipeline=3)  # 12 != 8
        with pytest.raises(InfeasibleConfigError):
            service.predict({"description": bad.to_dict()})

    def test_needs_exactly_one_of_description_or_preset(self, service):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="exactly one"):
            service.predict({})
        with pytest.raises(ConfigError, match="exactly one"):
            service.predict({"preset": "gpt3",
                             "description": tiny_description().to_dict()})

    def test_unknown_preset_rejected(self, service):
        with pytest.raises(ReproError, match="unknown preset"):
            service.predict({"preset": "definitely-not-a-model"})

    def test_closed_service_refuses_admission(self):
        svc = PredictionService(batch_window_s=0.0)
        svc.close()
        with pytest.raises(ReproError, match="shutting down"):
            svc.predict({"description": tiny_description().to_dict()})


class TestLifecycle:
    def test_follower_of_a_refused_leader_is_refused_too(self, monkeypatch):
        """A request that coalesces onto a leader which the closed
        service then refuses gets the same refusal; it used to wait on
        a job that was never queued, forever."""
        svc = PredictionService()
        svc.close()
        description = tiny_description()
        follower = {}
        wake = svc._wake

        class FollowerArrivesFirst:
            """Admits a follower once the leader's job is in flight but
            before the leader checks for shutdown."""

            def __enter__(self):
                follower["admission"] = svc._admit(
                    description, Granularity.OPERATOR, 1)
                return wake.__enter__()

            def __exit__(self, *exc):
                return wake.__exit__(*exc)

        monkeypatch.setattr(svc, "_wake", FollowerArrivesFirst())
        with pytest.raises(ShuttingDownError):
            svc._admit(description, Granularity.OPERATOR, 1)
        _, job, source = follower["admission"]
        assert source == "coalesced"
        assert job.done.wait(timeout=5.0)
        assert isinstance(job.error, ShuttingDownError)

    def test_starts_only_the_batcher_and_close_joins_it(self):
        before = set(threading.enumerate())
        svc = PredictionService()
        started = [t for t in threading.enumerate() if t not in before]
        svc.close()
        assert [t.name for t in started] == ["repro-serve-batcher"]
        assert not started[0].is_alive()

    @pytest.mark.parametrize("name,value", [
        ("max_batch", 0), ("max_batch", -1), ("max_batch", True),
        ("max_batch", 2.0), ("batch_window_s", math.inf),
        ("batch_window_s", math.nan), ("batch_window_s", -0.001),
    ])
    def test_settings_that_would_hang_are_rejected(self, name, value):
        """``max_batch=0`` never drained the queue, and an infinite
        window killed the batcher thread (``time.sleep`` overflow): every
        predict hung. NaN and negative windows silently acted as 0."""
        with pytest.raises(ConfigError, match=name):
            PredictionService(**{name: value})

    @pytest.mark.parametrize("flag,value", [
        ("--max-batch", "0"), ("--batch-window-ms", "inf"),
        ("--batch-window-ms", "nan"),
    ])
    def test_serve_cli_rejects_them_at_startup(self, monkeypatch, capsys,
                                              flag, value):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO()))
        assert main(["serve", "--stdio", flag, value]) == 1
        assert "error:" in capsys.readouterr().err


class TestDispatch:
    def test_ping(self, service):
        response, shutdown = service.dispatch(
            protocol.request(1, "ping"), lambda note: None)
        assert response["result"] == {"ok": True} and not shutdown

    @pytest.mark.parametrize("method", ["frobnicate", "healthz",
                                        "timeseries", "slo"])
    def test_unknown_method_maps_to_method_not_found(self, service, method):
        response, _ = service.dispatch(
            protocol.request(2, method), lambda note: None)
        assert response["error"]["code"] == protocol.METHOD_NOT_FOUND

    @pytest.mark.parametrize("method", ["predict", "predict_batch"])
    def test_refused_admission_answers_shutting_down(self, method):
        """A closed service's refusal says "retry elsewhere", not
        INVALID_PARAMS, on the wire and in the access log."""
        sink = io.StringIO()
        svc = PredictionService(batch_window_s=0.0, access_log=sink)
        svc.close()
        params = {"description": tiny_description().to_dict()}
        if method == "predict_batch":
            params = {"requests": [params]}
        response, _ = svc.dispatch(protocol.request(1, method, params),
                                   lambda note: None)
        assert response["error"]["code"] == protocol.SHUTTING_DOWN
        assert json.loads(sink.getvalue())["code"] == protocol.SHUTTING_DOWN

    def test_malformed_request_maps_to_invalid_request(self, service):
        response, _ = service.dispatch({"jsonrpc": "2.0", "id": 3},
                                       lambda note: None)
        assert response["error"]["code"] == protocol.INVALID_REQUEST

    def test_infeasible_maps_to_infeasible_code(self, service):
        bad = tiny_description(tensor=2, data=2, pipeline=3)
        response, _ = service.dispatch(
            protocol.request(4, "predict",
                             {"description": bad.to_dict()}),
            lambda note: None)
        assert response["error"]["code"] == protocol.INFEASIBLE

    def test_shutdown_sets_the_flag(self, service):
        response, shutdown = service.dispatch(
            protocol.request(5, "shutdown"), lambda note: None)
        assert response["result"] == {"ok": True} and shutdown

    def test_dispatch_never_raises_on_internal_error(self, service,
                                                     monkeypatch):
        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "stats", broken)
        response, _ = service.dispatch(protocol.request(6, "stats"),
                                       lambda note: None)
        assert response["error"]["code"] == protocol.INTERNAL_ERROR
        assert "RuntimeError: boom" in response["error"]["message"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", ["internode_bandwidth",
                                      "internode_latency",
                                      "intranode_latency"])
    def test_non_finite_system_is_invalid_params(self, service, name,
                                                 value):
        """The frame decoder reads NaN and Infinity literals. A system
        holding one used to be answered with ``"iteration_time": NaN``,
        which is not JSON (RFC 8259)."""
        description = tiny_description().to_dict()
        description["system"][name] = value
        frame = protocol.encode(protocol.request(
            8, "predict", {"description": description}))
        response, _ = service.dispatch(protocol.decode_line(frame),
                                       lambda note: None)
        assert "result" not in response
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert name in response["error"]["message"]

    @pytest.mark.parametrize("bad_id", [True, False, 1.5, [1], {"a": 1}])
    def test_invalid_id_is_answered_with_null(self, service, bad_id):
        """JSON-RPC 2.0 section 5: an id that cannot be read back is
        answered as null, never echoed."""
        response, _ = service.dispatch(
            {"jsonrpc": "2.0", "id": bad_id, "method": "ping"},
            lambda note: None)
        assert response["error"]["code"] == protocol.INVALID_REQUEST
        assert response["id"] is None

    def test_invalid_request_echoes_a_valid_id(self, service):
        response, _ = service.dispatch({"jsonrpc": "2.0", "id": "a7"},
                                       lambda note: None)
        assert response["error"]["code"] == protocol.INVALID_REQUEST
        assert response["id"] == "a7"

    def test_stats_shape(self, service):
        service.predict({"description": tiny_description().to_dict()})
        response, _ = service.dispatch(protocol.request(7, "stats"),
                                       lambda note: None)
        stats = response["result"]
        assert stats["requests"]["total"] >= 1
        assert {"p50", "p99"} <= set(stats["latency"]["predict_s"])
        assert {"leaders", "coalesced",
                "cache_served"} <= set(stats["dedup"])
        assert stats["resident_simulators"] == 1
        assert stats["structure_cache"]["entries"] >= 1


#: Values of each JSON type that no documented parameter accepts: the
#: strings name no preset, granularity or fabric, and the arrays hold
#: no integer and no params object.
WRONG = {
    bool: st.booleans(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(alphabet="~!@#", max_size=6),
    list: st.lists(st.one_of(st.booleans(), st.text(max_size=2),
                             st.none()), min_size=1, max_size=3),
    dict: st.dictionaries(st.sampled_from(["a", "model", "kind"]),
                          st.sampled_from([1, "x", None]), max_size=2),
    type(None): st.none(),
}
BASE_PARAMS = {
    "predict": {"preset": "megatron-1.7b", "granularity": "stage"},
    "predict_batch": {"requests": []},
    "dse": {"model": "megatron-1.7b", "num_gpus": 8, "global_batch": 16},
    "metrics": {},
}
#: Every documented parameter and the JSON type it accepts.
PARAMS = [
    ("predict", "preset", str), ("predict", "description", dict),
    ("predict", "granularity", str), ("predict", "zero_stage", int),
    ("predict", "workload", dict), ("predict", "trace", bool),
    ("predict_batch", "requests", list),
    ("dse", "model", str), ("dse", "num_gpus", int),
    ("dse", "max_gpus", int), ("dse", "network", str),
    ("dse", "granularity", str), ("dse", "global_batch", int),
    ("dse", "total_tokens", int), ("dse", "max_tensor", int),
    ("dse", "max_data", int), ("dse", "max_pipeline", int),
    ("dse", "micro_batches", list), ("dse", "virtual_stages", list),
    ("dse", "gpus_per_node", int), ("dse", "zero_stage", int),
    ("dse", "top", int), ("dse", "include_points", bool),
    ("metrics", "format", str),
]


class TestParameterValidation:
    """A wrongly typed parameter is answered with INVALID_PARAMS before
    any work: never coerced into another question, never an internal
    error after a sweep."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_types_are_invalid_params(self, service, monkeypatch,
                                            data):
        def no_work(*args, **kwargs):
            raise AssertionError("validation let a request through")

        monkeypatch.setattr(DesignSpaceExplorer, "explore", no_work)
        monkeypatch.setattr(service, "_admit", no_work)
        method, name, accepted = data.draw(st.sampled_from(PARAMS))
        wrong = [values for kind, values in WRONG.items()
                 if kind is not accepted]
        if name == "workload":  # an object whose kind is unknown
            wrong.append(st.fixed_dictionaries(
                {"kind": st.sampled_from([1, "x", None])}))
        elif accepted is not bool and accepted is not int:
            wrong.append(WRONG[accepted])
        params = dict(BASE_PARAMS[method])
        params.pop({"description": "preset",
                    "max_gpus": "num_gpus"}.get(name), None)
        params[name] = data.draw(st.one_of(wrong))
        response, _ = service.dispatch(
            protocol.request(1, method, params), lambda note: None)
        assert response["error"]["code"] == protocol.INVALID_PARAMS, \
            response["error"]

    @pytest.mark.parametrize("params", [
        {"num_gpus": 8.9}, {"num_gpus": True},
        {"num_gpus": 8, "global_batch": 32.7},
        {"num_gpus": 8, "top": "x"}, {"num_gpus": 8, "micro_batches": 4},
    ])
    def test_dse_no_longer_coerces(self, service, params):
        """Each used to sweep another question (8 GPUs, 1 GPU, batch
        32) or answer INTERNAL_ERROR, after the full sweep for ``top``;
        now none of them sweeps."""
        response, _ = service.dispatch(
            protocol.request(1, "dse", {"model": "megatron-1.7b",
                                        "global_batch": 16, **params}),
            lambda note: None)
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert service.cache.stats["entries"] == 0

    def test_predict_batch_entries_must_be_objects(self, service):
        response, _ = service.dispatch(
            protocol.request(1, "predict_batch", {"requests": [1]}),
            lambda note: None)
        assert response["error"]["code"] == protocol.INVALID_PARAMS

    def test_zero_stage_true_is_not_stage_1(self, service):
        with pytest.raises(ReproError, match="'zero_stage' must be an "
                                             "integer"):
            service.predict({"preset": "megatron-1.7b", "zero_stage": True})


# ---------------------------------------------------------------------------
# TCP daemon + client
# ---------------------------------------------------------------------------
@pytest.fixture
def daemon(service):
    server = ServeDaemon(service, port=0)
    server.start()
    yield server
    server.stop()


def connect(daemon: ServeDaemon) -> ServeClient:
    host, port = daemon.address
    return ServeClient.connect(host, port, timeout=5.0)


class TestDaemon:
    def test_ping_and_stats_round_trip(self, daemon):
        with connect(daemon) as client:
            assert client.ping()
            assert client.stats()["requests"]["total"] >= 1

    def test_served_over_tcp_is_bit_identical(self, daemon):
        description = tiny_description()
        direct = VTrain(description.system).predict(
            description.model, description.plan, description.training)
        with connect(daemon) as client:
            served = client.predict(description=description.to_dict())
        assert served["iteration_time"] == direct.iteration_time
        assert served["memory_per_gpu"] == direct.memory_per_gpu

    def test_concurrent_clients_share_one_simulation(self, daemon,
                                                     service):
        description = tiny_description()
        n = 6
        results: list[dict] = [None] * n
        barrier = threading.Barrier(n)

        def worker(slot: int) -> None:
            with connect(daemon) as client:
                barrier.wait()
                results[slot] = client.predict(
                    description=description.to_dict())

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [v.num_predictions
                for v in service._vtrains.values()] == [1]
        payloads = [{k: v for k, v in r.items() if k != "served"}
                    for r in results]
        assert all(payload == payloads[0] for payload in payloads)

    def test_remote_error_carries_infeasible_code(self, daemon):
        bad = tiny_description(tensor=2, data=2, pipeline=3)
        with connect(daemon) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.predict(description=bad.to_dict())
        assert excinfo.value.code == protocol.INFEASIBLE

    def test_dse_streams_progress_and_reuses_the_cache(self, daemon,
                                                       service):
        params = {"model": "megatron-1.7b", "num_gpus": 8,
                  "max_tensor": 4, "max_data": 8, "max_pipeline": 4,
                  "micro_batches": [1, 2], "granularity": "stage"}
        events: list[dict] = []
        with connect(daemon) as client:
            first = client.dse(params, on_progress=events.append)
            second = client.dse(params)
        assert first["num_plans"] > 0
        assert events and events[-1]["done"] == events[-1]["total"]
        assert second == first  # replayed fully from the shared cache
        assert service.cache.stats["hits"] >= first["num_plans"]

    def test_shutdown_stops_the_daemon(self, service):
        server = ServeDaemon(service, port=0)
        server.start()
        client = connect(server)
        client.shutdown()
        # The accept loop winds down; stop() (idempotent) must not hang.
        server.stop()


# ---------------------------------------------------------------------------
# stdio transport
# ---------------------------------------------------------------------------
class TestStdio:
    def test_serve_stdio_round_trip_in_memory(self, service):
        stdin = io.BytesIO(
            protocol.encode(protocol.request(1, "ping"))
            + protocol.encode(protocol.request(
                2, "predict",
                {"description": tiny_description().to_dict()}))
            + protocol.encode(protocol.request(3, "shutdown"))
            + protocol.encode(protocol.request(4, "ping")))
        stdout = io.BytesIO()
        serve_stdio(service, stdin, stdout)
        stdout.seek(0)
        replies = []
        while (message := protocol.read_message(stdout)) is not None:
            replies.append(message)
        # The shutdown reply is the last one; request 4 is never read.
        assert [m["id"] for m in replies] == [1, 2, 3]
        assert replies[1]["result"]["iteration_time"] > 0

    def test_spawned_subprocess_serves_and_exits_cleanly(self):
        client, process = ServeClient.spawn()
        try:
            assert client.ping()
            served = client.predict(
                description=tiny_description().to_dict(),
                granularity="stage")
            assert served["iteration_time"] > 0
            client.shutdown()
            assert process.wait(timeout=30) == 0
        finally:
            client.close()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


# ---------------------------------------------------------------------------
# Thread-safety satellites: warm concurrent VTrain and the shared caches
# ---------------------------------------------------------------------------
class TestConcurrentVTrain:
    def test_warm_concurrent_predicts_are_bit_identical_with_exact_counters(
            self):
        """Concurrent ``VTrain.predict`` on a warm structure cache: every
        thread sees the serial answer, and the hit counters are exact
        under contention (the ``int +=`` races the lock now prevents)."""
        description = tiny_description()
        vtrain = VTrain(description.system)
        serial = vtrain.predict(description.model, description.plan,
                                description.training)
        assert vtrain.structure_cache_misses == 1
        threads_n, calls_each = 4, 5
        results: list[list] = [[] for _ in range(threads_n)]
        barrier = threading.Barrier(threads_n)

        def worker(slot: int) -> None:
            barrier.wait()
            for _ in range(calls_each):
                results[slot].append(vtrain.predict(
                    description.model, description.plan,
                    description.training))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for bucket in results:
            for prediction in bucket:
                assert prediction.iteration_time == serial.iteration_time
                assert prediction.memory_per_gpu == serial.memory_per_gpu
        total = threads_n * calls_each
        assert vtrain.num_predictions == total + 1
        assert vtrain.structure_cache_hits == total
        assert vtrain.structure_cache_misses == 1

    def test_cold_concurrent_predicts_agree(self):
        """No warmup: racing builders may each construct the structure,
        but every thread's answer is still the same bits and the
        counters add up."""
        description = tiny_description()
        vtrain = VTrain(description.system)
        n = 4
        results: list = [None] * n
        barrier = threading.Barrier(n)

        def worker(slot: int) -> None:
            barrier.wait()
            results[slot] = vtrain.predict(
                description.model, description.plan, description.training)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r.iteration_time == results[0].iteration_time
                   for r in results)
        assert vtrain.num_predictions == n
        assert (vtrain.structure_cache_hits
                + vtrain.structure_cache_misses) == n


class _StubStructure:
    """Just enough of a GraphStructure for the LRU's task budget."""

    num_tasks = 1

    def __init__(self, key: str) -> None:
        self.key = key


class TestConcurrentStructureCache:
    def test_concurrent_put_get_keeps_stats_consistent(self):
        """Hammer the process-wide cache from several threads; the LRU
        bookkeeping must stay coherent (no lost entries, stats add up)."""
        n_threads, n_keys, rounds = 4, 6, 50
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for i in range(rounds):
                    key = f"serve-test-{(seed + i) % n_keys}"
                    if structure_cache_get(key) is None:
                        structure_cache_put(key, _StubStructure(key))
                    cached = structure_cache_get(key)
                    assert cached is not None and cached.key == key
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = structure_cache_stats()
        assert stats["entries"] == n_keys
        assert stats["hits"] + stats["misses"] == 2 * n_threads * rounds


class TestConcurrentPredictionCache:
    @staticmethod
    def _point(key: str) -> DesignPoint:
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        return DesignPoint(plan=plan, feasible=True,
                           iteration_time=float(len(key)),
                           utilization=0.5, memory_gib=1.0)

    def test_concurrent_put_get_and_merge(self):
        cache = PredictionCache()
        other = PredictionCache()
        for i in range(8):
            other.put(f"pre-{i}", self._point(f"pre-{i}"))
        n = 4
        barrier = threading.Barrier(n)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for i in range(40):
                    key = f"k-{(seed * 7 + i) % 10}"
                    cache.put(key, self._point(key))
                    found = cache.get(key)
                    if found is not None:
                        assert found.iteration_time == float(len(key))
                    cache.merge(other)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) == 10 + 8
        stats = cache.stats
        assert stats["hits"] + stats["misses"] == n * 40

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["put", "get"]),
                  st.integers(min_value=0, max_value=4)),
        min_size=1, max_size=30))
    def test_interleaved_ops_from_two_threads_preserve_entries(self, ops):
        """Hypothesis interleaving: split one op sequence across two
        racing threads; whatever the schedule, every key that anyone
        ``put`` is present with exactly its own payload, and ``get``
        never returns a foreign point."""
        cache = PredictionCache()
        half = len(ops) // 2
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []
        put_keys: set[str] = {f"key-{i}" for op, i in ops if op == "put"}

        def run(sequence) -> None:
            try:
                barrier.wait()
                for op, i in sequence:
                    key = f"key-{i}"
                    if op == "put":
                        cache.put(key, self._point(key))
                    else:
                        found = cache.get(key)
                        if found is not None:
                            assert (found.iteration_time
                                    == float(len(key)))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(ops[:half],)),
                   threading.Thread(target=run, args=(ops[half:],))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) == len(put_keys)
        for key in put_keys:
            assert cache.get(key).iteration_time == float(len(key))


class TestServiceCacheIntegration:
    def test_service_populates_the_prediction_cache_it_was_given(self):
        cache = PredictionCache()
        svc = PredictionService(cache=cache, batch_window_s=0.0)
        try:
            description = tiny_description()
            svc.predict({"description": description.to_dict()})
            key = fingerprint(description.model, description.plan,
                              description.training, description.system,
                              svc.default_granularity)
            assert key in cache
            point = cache.get(key)
            assert point is not None and point.feasible
        finally:
            svc.close()

    def test_preloaded_cache_serves_without_any_simulation(self):
        description = tiny_description()
        warm = PredictionService(batch_window_s=0.0)
        try:
            expected = warm.predict({"description": description.to_dict()})
        finally:
            warm.close()
        svc = PredictionService(cache=warm.cache, batch_window_s=0.0)
        try:
            served = svc.predict({"description": description.to_dict()})
            assert served["served"]["source"] == "cache"
            assert not svc._vtrains  # no simulator was even constructed
            served.pop("served")
            expected.pop("served")
            assert served == expected
        finally:
            svc.close()


class TestInferenceServing:
    """The workload envelope: `predict` with a serialised
    InferenceWorkload runs the serving path and everything else is
    untouched."""

    def workload_dict(self) -> dict:
        return {"kind": "inference", "batch_size": 8, "prompt_len": 128,
                "gen_len": 64}

    def test_served_equals_direct_predict_inference(self, service):
        from repro.workload import InferenceWorkload
        description = tiny_description()
        payload = service.predict({"description": description.to_dict(),
                                   "workload": self.workload_dict()})
        vtrain = VTrain(description.system,
                        granularity=service.default_granularity)
        direct = vtrain.predict_inference(
            description.model, description.plan,
            InferenceWorkload.from_dict(self.workload_dict()))
        assert payload["workload"] == "inference"
        assert payload["ttft_s"] == direct.time_to_first_token
        assert payload["tpot_s"] == direct.time_per_output_token
        assert payload["tokens_per_s"] == direct.tokens_per_second
        assert payload["num_replicas"] == description.plan.data

    def test_flush_batches_inference_jobs_sharing_phase_graphs(
            self, monkeypatch):
        """Two inference jobs of one flush whose plans compile to the
        same prefill and decode graphs replay as one group of two
        columns per phase, bit-identical to direct predictions."""
        from repro.sim import estimator
        from repro.workload import InferenceWorkload
        columns = []
        rule = estimator.use_batched_replay

        def recording(structure, count, **kwargs):
            columns.append(count)
            return rule(structure, count, **kwargs)

        monkeypatch.setattr(estimator, "use_batched_replay", recording)
        base = tiny_description()
        # Full recomputation changes the plan (and its cache key) but
        # not a forward-only phase graph.
        full = InputDescription(model=base.model, system=base.system,
                                plan=base.plan.replaced(
                                    recompute=RecomputeMode.FULL),
                                training=base.training)
        service = PredictionService(batch_window_s=0.1)
        try:
            rows = service.predict_batch({"requests": [
                {"description": description.to_dict(),
                 "workload": self.workload_dict()}
                for description in (base, full)]})["results"]
            assert service.stats()["batch"]["flushes"] == 1
        finally:
            service.close()
        assert columns == [2, 2]
        workload = InferenceWorkload.from_dict(self.workload_dict())
        for description, row in zip((base, full), rows):
            direct = VTrain(description.system).predict_inference(
                description.model, description.plan, workload)
            assert row["result"]["ttft_s"] == direct.time_to_first_token
            assert row["result"]["tpot_s"] == direct.time_per_output_token
            assert row["result"]["tokens_per_s"] == direct.tokens_per_second

    def test_repeat_is_served_from_cache(self, service):
        description = tiny_description()
        request = {"description": description.to_dict(),
                   "workload": self.workload_dict()}
        first = service.predict(request)
        second = service.predict(request)
        assert first["served"]["source"] == "computed"
        assert second["served"]["source"] == "cache"
        for field in ("ttft_s", "tpot_s", "tokens_per_s"):
            assert second[field] == first[field]

    def test_training_and_inference_do_not_share_cache_rows(self, service):
        description = tiny_description()
        inference = service.predict({"description": description.to_dict(),
                                     "workload": self.workload_dict()})
        training = service.predict({"description": description.to_dict()})
        assert training["served"]["source"] == "computed"
        assert "ttft_s" not in training
        assert training["iteration_time"] != inference["tpot_s"]

    def test_explicit_training_envelope_is_the_classic_path(self, service):
        description = tiny_description()
        classic = service.predict({"description": description.to_dict()})
        tagged = service.predict({"description": description.to_dict(),
                                  "workload": {"kind": "training"}})
        assert tagged["served"]["source"] == "cache"
        assert tagged["iteration_time"] == classic["iteration_time"]

    def test_malformed_envelope_is_rejected(self, service):
        description = tiny_description()
        with pytest.raises(ReproError):
            service.predict({"description": description.to_dict(),
                             "workload": {"kind": "finetune"}})

    def test_envelope_rides_the_wire_unchanged(self):
        """Client → stdio transport → daemon: the envelope arrives
        intact and the serving payload comes back."""
        client_to_server = io.BytesIO()
        request = protocol.encode(protocol.request(
            1, "predict", {"description": tiny_description().to_dict(),
                           "workload": self.workload_dict()}))
        client_to_server.write(request)
        client_to_server.seek(0)
        server_to_client = io.BytesIO()
        service = PredictionService(batch_window_s=0.0)
        try:
            serve_stdio(service, client_to_server, server_to_client)
        finally:
            service.close()
        server_to_client.seek(0)
        reply = protocol.read_message(server_to_client)
        assert reply["result"]["workload"] == "inference"
        assert reply["result"]["tokens_per_s"] > 0

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
* the JSON-RPC transport (TCP) round-trips results without altering
  them.
"""

from __future__ import annotations

import io
import json
import re
import socket
import subprocess
import sys
import threading
import time

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
from repro.dse.explorer import DesignPoint
from repro.errors import InfeasibleConfigError, ReproError
from repro.graph.builder import (Granularity, clear_structure_cache,
                                 structure_cache_get, structure_cache_put,
                                 structure_cache_stats)
from repro.serve import (PredictionService, RemoteError, ServeClient,
                         ServeDaemon, protocol)
from repro.serve import service as service_module
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
    svc = PredictionService()
    yield svc
    svc.close()


#: A batch window long enough that predicts released together by a
#: barrier are all admitted before the batcher flushes.
LONG_WINDOW_S = 0.5


@pytest.fixture
def batching_service(monkeypatch):
    monkeypatch.setattr(service_module, "BATCH_WINDOW_S", LONG_WINDOW_S)
    svc = PredictionService()
    yield svc
    svc.close()


def predict_together(service: PredictionService,
                     requests: list[dict]) -> list:
    """Send each params object as its own ``predict``, each from its
    own thread, all released by one barrier; returns each call's
    payload, or the exception it raised, in request order."""
    outcomes: list = [None] * len(requests)
    barrier = threading.Barrier(len(requests))

    def worker(slot: int) -> None:
        barrier.wait()
        try:
            outcomes[slot] = service.predict(requests[slot])
        except Exception as exc:  # noqa: BLE001 - returned to the test
            outcomes[slot] = exc

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "a predict never returned"
    return outcomes


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

    def test_request_without_granularity_runs_at_operator(self, service):
        """OPERATOR is the one default: a request naming no granularity
        gets a direct OPERATOR predict's answer, cached under the
        OPERATOR fingerprint."""
        description = tiny_description()
        direct = VTrain(description.system,
                        granularity=Granularity.OPERATOR).predict(
            description.model, description.plan, description.training)
        served = service.predict({"description": description.to_dict()})
        assert served["iteration_time"] == direct.iteration_time
        assert (served["gpu_compute_utilization"]
                == direct.gpu_compute_utilization)
        assert served["memory_per_gpu"] == direct.memory_per_gpu
        assert fingerprint(description.model, description.plan,
                           description.training, description.system,
                           Granularity.OPERATOR) in service.cache

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
        params = {"description": tiny_description().to_dict()}
        n = 8
        results = predict_together(service, [params] * n)
        assert all(isinstance(r, dict) for r in results), results
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
    """Concurrent predicts admitted within one batch window run as one
    flush of the micro-batcher."""

    def test_flush_preserves_plan_order_and_matches_direct(
            self, batching_service):
        descriptions = [tiny_description(tensor=2, data=2, pipeline=2),
                        tiny_description(tensor=1, data=4, pipeline=2),
                        tiny_description(tensor=4, data=2, pipeline=1)]
        results = predict_together(
            batching_service,
            [{"description": d.to_dict()} for d in descriptions])
        assert batching_service.stats()["batch"]["flushes"] == 1
        assert len({r["iteration_time"] for r in results}) == 3
        vtrain = VTrain(descriptions[0].system)
        for description, result in zip(descriptions, results):
            direct = vtrain.predict(description.model, description.plan,
                                    description.training)
            assert result["iteration_time"] == direct.iteration_time
            assert result["memory_per_gpu"] == direct.memory_per_gpu

    def test_duplicates_in_one_flush_coalesce(self, batching_service):
        params = {"description": tiny_description().to_dict()}
        results = predict_together(batching_service, [params] * 3)
        assert [v.num_predictions
                for v in batching_service._vtrains.values()] == [1]
        assert sorted(r["served"]["source"] for r in results) == [
            "coalesced", "coalesced", "computed"]
        payloads = [{k: v for k, v in r.items() if k != "served"}
                    for r in results]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_infeasible_plan_fails_alone(self, batching_service):
        good = {"description": tiny_description().to_dict()}
        bad = {"description":
               tiny_description(tensor=2, data=2, pipeline=3).to_dict()}
        good_result, bad_result = predict_together(batching_service,
                                                   [good, bad])
        assert good_result["iteration_time"] > 0
        assert isinstance(bad_result, InfeasibleConfigError)
        batch = batching_service.stats()["batch"]
        assert (batch["flushes"], batch["jobs"]) == (1, 2)

    def test_batched_jobs_flow_through_batch_counters(
            self, batching_service):
        descriptions = [tiny_description(tensor=2, data=2, pipeline=2),
                        tiny_description(tensor=1, data=4, pipeline=2)]
        predict_together(batching_service,
                         [{"description": d.to_dict()}
                          for d in descriptions])
        batch = batching_service.stats()["batch"]
        assert (batch["flushes"], batch["jobs"]) == (1, 2)
        assert batch["size"]["max"] == 2


class TestServiceErrors:
    def test_infeasible_plan_raises_like_direct_predict(self, service):
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
        svc = PredictionService()
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

    def test_batcher_reads_the_window_and_cap_constants(self,
                                                        monkeypatch):
        """The window (2 ms) is read at every flush and the cap is the
        explorer's batched-replay cap (64): with a long window and a cap
        of 2, three predicts released together run as flushes of 2
        and 1."""
        assert (service_module.BATCH_WINDOW_S,
                service_module._MAX_EVAL_BATCH) == (0.002, 64)
        monkeypatch.setattr(service_module, "BATCH_WINDOW_S", LONG_WINDOW_S)
        monkeypatch.setattr(service_module, "_MAX_EVAL_BATCH", 2)
        svc = PredictionService()
        try:
            predict_together(svc, [
                {"description": tiny_description(
                    tensor=t, data=d, pipeline=2).to_dict()}
                for t, d in ((2, 2), (1, 4), (4, 1))])
            batch = svc.stats()["batch"]
        finally:
            svc.close()
        assert (batch["flushes"], batch["jobs"]) == (2, 3)
        assert batch["size"]["max"] == 2

    def test_stdio_transport_is_gone(self, capsys):
        """The daemon serves TCP only: ``--stdio`` is an unknown
        argument, rejected before anything starts."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--stdio"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --stdio" in capsys.readouterr().err


class TestDispatch:
    def test_ping(self, service):
        response, shutdown = service.dispatch(protocol.request(1, "ping"))
        assert response["result"] == {"ok": True} and not shutdown

    @pytest.mark.parametrize("method", ["frobnicate", "healthz",
                                        "timeseries", "slo",
                                        "predict_batch", "dse"])
    def test_unknown_method_maps_to_method_not_found(self, service, method):
        response, _ = service.dispatch(protocol.request(2, method))
        assert response["error"]["code"] == protocol.METHOD_NOT_FOUND

    def test_refused_admission_answers_shutting_down(self):
        """A closed service's refusal says "retry elsewhere", not
        INVALID_PARAMS, on the wire and in the access log."""
        sink = io.StringIO()
        svc = PredictionService(access_log=sink)
        svc.close()
        params = {"description": tiny_description().to_dict()}
        response, _ = svc.dispatch(protocol.request(1, "predict", params))
        assert response["error"]["code"] == protocol.SHUTTING_DOWN
        assert json.loads(sink.getvalue())["code"] == protocol.SHUTTING_DOWN

    def test_malformed_request_maps_to_invalid_request(self, service):
        response, _ = service.dispatch({"jsonrpc": "2.0", "id": 3})
        assert response["error"]["code"] == protocol.INVALID_REQUEST

    @pytest.mark.parametrize("params", [
        [{"preset": "megatron-1.7b"}], "megatron-1.7b", None,
    ], ids=["array", "string", "null"])
    def test_params_must_be_an_object(self, service, monkeypatch, params):
        """Only by-name params are served: JSON-RPC's positional form,
        a bare value or an explicit null is INVALID_REQUEST and never
        reaches admission."""
        def no_work(*args, **kwargs):
            raise AssertionError("a non-object params was admitted")

        monkeypatch.setattr(service, "_admit", no_work)
        response, _ = service.dispatch(
            {"jsonrpc": "2.0", "id": 9, "method": "predict",
             "params": params})
        assert response["error"]["code"] == protocol.INVALID_REQUEST
        assert "params must be an object" in response["error"]["message"]
        assert response["id"] == 9

    def test_infeasible_maps_to_infeasible_code(self, service):
        bad = tiny_description(tensor=2, data=2, pipeline=3)
        response, _ = service.dispatch(
            protocol.request(4, "predict", {"description": bad.to_dict()}))
        assert response["error"]["code"] == protocol.INFEASIBLE

    def test_shutdown_sets_the_flag(self, service):
        response, shutdown = service.dispatch(protocol.request(5, "shutdown"))
        assert response["result"] == {"ok": True} and shutdown

    def test_dispatch_never_raises_on_internal_error(self, service,
                                                     monkeypatch):
        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "stats", broken)
        response, _ = service.dispatch(protocol.request(6, "stats"))
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
        response, _ = service.dispatch(protocol.decode_line(frame))
        assert "result" not in response
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert name in response["error"]["message"]

    @pytest.mark.parametrize("bad_id", [True, False, 1.5, [1], {"a": 1}])
    def test_invalid_id_is_answered_with_null(self, service, bad_id):
        """JSON-RPC 2.0 section 5: an id that cannot be read back is
        answered as null, never echoed."""
        response, _ = service.dispatch(
            {"jsonrpc": "2.0", "id": bad_id, "method": "ping"})
        assert response["error"]["code"] == protocol.INVALID_REQUEST
        assert response["id"] is None

    def test_invalid_request_echoes_a_valid_id(self, service):
        response, _ = service.dispatch({"jsonrpc": "2.0", "id": "a7"})
        assert response["error"]["code"] == protocol.INVALID_REQUEST
        assert response["id"] == "a7"

    def test_stats_shape(self, service):
        service.predict({"description": tiny_description().to_dict()})
        response, _ = service.dispatch(protocol.request(7, "stats"))
        stats = response["result"]
        assert stats["requests"]["total"] >= 1
        assert {"p50", "p99"} <= set(stats["latency"]["predict_s"])
        assert {"leaders", "coalesced",
                "cache_served"} <= set(stats["dedup"])
        assert stats["resident_simulators"] == 1
        assert stats["structure_cache"]["entries"] >= 1


#: Values of each JSON type that no documented parameter accepts: the
#: strings name no preset, granularity or metrics format.
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
    "metrics": {},
}
#: Every documented parameter and the JSON type it accepts.
PARAMS = [
    ("predict", "preset", str), ("predict", "description", dict),
    ("predict", "granularity", str), ("predict", "zero_stage", int),
    ("predict", "workload", dict), ("predict", "trace", bool),
    ("metrics", "format", str),
]


class TestParameterValidation:
    """A wrongly typed parameter is answered with INVALID_PARAMS before
    any work: never coerced into another question, never an internal
    error after a simulation."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_types_are_invalid_params(self, service, monkeypatch,
                                            data):
        def no_work(*args, **kwargs):
            raise AssertionError("validation let a request through")

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
        if name == "description":
            del params["preset"]
        params[name] = data.draw(st.one_of(wrong))
        response, _ = service.dispatch(protocol.request(1, method, params))
        assert response["error"]["code"] == protocol.INVALID_PARAMS, \
            response["error"]

    def test_zero_stage_true_is_not_stage_1(self, service):
        with pytest.raises(ReproError, match="'zero_stage' must be an "
                                             "integer"):
            service.predict({"preset": "megatron-1.7b", "zero_stage": True})

    @pytest.mark.parametrize("params", [
        {"zero_stage": 1.0}, {"zero_stage": "1"}, {"trace": 1},
        {"granularity": None}, {"workload": None},
    ])
    def test_predict_no_longer_coerces(self, service, params):
        """Each is one lenient parse away from another question (ZeRO
        stage 1, a traced call, the default granularity, the training
        workload); none of them reaches a simulator."""
        response, _ = service.dispatch(protocol.request(
            1, "predict", {"description": tiny_description().to_dict(),
                           **params}))
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert next(iter(params)) in response["error"]["message"]
        assert service.cache.stats["entries"] == 0
        assert service._vtrains == {}

    @pytest.mark.parametrize("params, named", [
        ({"zero_stage": -1}, "zero_stage"), ({"zero_stage": 4}, "zero_stage"),
        ({"granularity": "layer"}, "granularity"),
        ({"granularity": "STAGE"}, "granularity")])
    def test_predict_out_of_range_values_are_invalid_params(
            self, service, monkeypatch, params, named):
        """Well-typed values outside a parameter's range are refused
        before admission, naming the parameter."""
        def no_work(*args, **kwargs):
            raise AssertionError("an out-of-range request was admitted")

        monkeypatch.setattr(service, "_admit", no_work)
        response, _ = service.dispatch(protocol.request(
            1, "predict", {"preset": "megatron-1.7b", **params}))
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert named in response["error"]["message"]


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

    def test_stop_returns_within_one_short_poll(self, service):
        """An idle daemon stops without waiting out socketserver's
        0.5 s default poll interval."""
        server = ServeDaemon(service, port=0)
        server.start()
        began = time.perf_counter()
        server.stop()
        assert time.perf_counter() - began < 0.25

    def test_shutdown_stops_the_daemon(self, service):
        server = ServeDaemon(service, port=0)
        server.start()
        client = connect(server)
        client.shutdown()
        # The accept loop winds down; stop() (idempotent) must not hang.
        server.stop()

    @pytest.mark.parametrize("frame", [b"{not json}\n", b"[1, 2]\n"],
                             ids=["not-json", "array"])
    def test_bad_frame_is_answered_with_parse_error_then_closed(
            self, daemon, frame):
        """A frame the daemon cannot read gets one PARSE_ERROR reply
        with a null id; the session then ends, since its framing can no
        longer be trusted."""
        with socket.create_connection(daemon.address, timeout=30) as sock:
            sock.sendall(frame)
            with sock.makefile("rb") as reader:
                reply = protocol.read_message(reader)
                assert protocol.read_message(reader) is None
        assert reply["error"]["code"] == protocol.PARSE_ERROR
        assert reply["id"] is None

    def test_pipelined_session_answers_in_order_until_shutdown(
            self, daemon):
        """Four requests written at once on one connection: the replies
        come back in order, the shutdown reply is the last one, and the
        request after it is never answered."""
        frames = b"".join(protocol.encode(message) for message in (
            protocol.request(1, "ping"),
            protocol.request(2, "predict",
                             {"description": tiny_description().to_dict()}),
            protocol.request(3, "shutdown"),
            protocol.request(4, "ping")))
        replies = []
        with socket.create_connection(daemon.address, timeout=30) as sock:
            sock.sendall(frames)
            reader = sock.makefile("rb")
            try:
                while (message := protocol.read_message(reader)) is not None:
                    replies.append(message)
            except ConnectionResetError:
                pass  # closed with request 4 still unread in the kernel
            reader.close()
        assert [m["id"] for m in replies] == [1, 2, 3]
        assert replies[1]["result"]["iteration_time"] > 0

    def test_cli_daemon_serves_and_exits_cleanly(self):
        """``repro serve --port 0`` as a child process announces its
        port, serves, and exits 0 on the ``shutdown`` method."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        try:
            announced = process.stderr.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", announced)
            assert match is not None, announced
            with ServeClient.connect(match[1], int(match[2]),
                                     timeout=30) as client:
                assert client.ping()
                served = client.predict(
                    description=tiny_description().to_dict(),
                    granularity="stage")
                assert served["iteration_time"] > 0
                client.shutdown()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)
            process.stderr.close()


class TestClient:
    """One client session over in-memory streams: what the client
    writes, and how it reads what comes back."""

    @staticmethod
    def session(*replies: dict) -> tuple[ServeClient, io.BytesIO, list]:
        reader = io.BytesIO(b"".join(protocol.encode(r) for r in replies))
        writer = io.BytesIO()
        closes: list[bool] = []
        client = ServeClient(reader, writer,
                             on_close=lambda: closes.append(True))
        return client, writer, closes

    @staticmethod
    def sent(writer: io.BytesIO) -> list[dict]:
        return [protocol.decode_line(line)
                for line in writer.getvalue().splitlines()]

    def test_frames_without_the_calls_id_are_skipped(self):
        """A reply to an aborted earlier call, and a frame with no id
        at all, are read past until the call's own reply arrives."""
        client, writer, _ = self.session(
            protocol.response(7, {"ok": False}),
            {"jsonrpc": "2.0", "method": "progress",
             "params": {"done": 1}},
            protocol.response(1, {"ok": True}))
        assert client.ping() is True
        assert [m["id"] for m in self.sent(writer)] == [1]

    def test_server_closing_mid_call_closes_the_session(self):
        client, _, closes = self.session()
        with pytest.raises(ReproError, match="closed the connection "
                                             "during 'ping'"):
            client.ping()
        assert closes == [True]
        with pytest.raises(ReproError, match="session is closed"):
            client.stats()
        client.close()
        assert closes == [True]

    def test_error_reply_raises_remote_error_with_code_and_data(self):
        client, _, _ = self.session(protocol.error_response(
            1, protocol.INFEASIBLE, "does not fit", data={"gib": 81.5}))
        with pytest.raises(RemoteError, match="does not fit") as excinfo:
            client.call("predict", {"preset": "gpt3"})
        assert excinfo.value.code == protocol.INFEASIBLE
        assert excinfo.value.data == {"gib": 81.5}

    def test_predict_sends_only_the_given_params(self):
        client, writer, _ = self.session(protocol.response(1, {}),
                                         protocol.response(2, {}))
        client.predict(preset="megatron-1.7b", granularity="stage")
        client.predict(preset="megatron-1.7b", zero_stage=0, trace=True)
        first, second = self.sent(writer)
        assert first["method"] == second["method"] == "predict"
        assert first["params"] == {"preset": "megatron-1.7b",
                                   "granularity": "stage"}
        assert second["params"] == {"preset": "megatron-1.7b",
                                    "zero_stage": 0, "trace": True}

    def test_connect_without_a_daemon_names_the_fix(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(ReproError, match=re.escape(
                f"`repro serve --port {port}`")):
            ServeClient.connect("127.0.0.1", port, timeout=5.0)


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
        # Racing puts of one key replace it: the running total still
        # counts each cached one-task stub once.
        assert stats["cached_tasks"] == n_keys
        assert stats["hits"] + stats["misses"] == 2 * n_threads * rounds


class TestConcurrentPredictionCache:
    @staticmethod
    def _point(key: str) -> DesignPoint:
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        return DesignPoint(plan=plan, feasible=True,
                           iteration_time=float(len(key)),
                           utilization=0.5, memory_gib=1.0)

    def test_concurrent_put_and_get(self):
        cache = PredictionCache()
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
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) == 10
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
        svc = PredictionService(cache=cache)
        try:
            description = tiny_description()
            svc.predict({"description": description.to_dict()})
            key = fingerprint(description.model, description.plan,
                              description.training, description.system,
                              Granularity.OPERATOR)
            assert key in cache
            point = cache.get(key)
            assert point is not None and point.feasible
        finally:
            svc.close()

    def test_preloaded_cache_serves_without_any_simulation(self):
        description = tiny_description()
        warm = PredictionService()
        try:
            expected = warm.predict({"description": description.to_dict()})
        finally:
            warm.close()
        svc = PredictionService(cache=warm.cache)
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
                        granularity=Granularity.OPERATOR)
        direct = vtrain.predict_inference(
            description.model, description.plan,
            InferenceWorkload.from_dict(self.workload_dict()))
        assert payload["workload"] == "inference"
        assert payload["ttft_s"] == direct.time_to_first_token
        assert payload["tpot_s"] == direct.time_per_output_token
        assert payload["tokens_per_s"] == direct.tokens_per_second
        assert payload["num_replicas"] == description.plan.data

    def test_flush_batches_inference_jobs_sharing_phase_graphs(
            self, batching_service, monkeypatch):
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
        results = predict_together(batching_service, [
            {"description": description.to_dict(),
             "workload": self.workload_dict()}
            for description in (base, full)])
        assert batching_service.stats()["batch"]["flushes"] == 1
        assert columns == [2, 2]
        workload = InferenceWorkload.from_dict(self.workload_dict())
        for description, result in zip((base, full), results):
            direct = VTrain(description.system).predict_inference(
                description.model, description.plan, workload)
            assert result["ttft_s"] == direct.time_to_first_token
            assert result["tpot_s"] == direct.time_per_output_token
            assert result["tokens_per_s"] == direct.tokens_per_second

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

    def test_envelope_rides_the_wire_unchanged(self, daemon):
        """Client → TCP transport → daemon: the envelope arrives intact
        and the serving payload comes back."""
        with connect(daemon) as client:
            reply = client.predict(
                description=tiny_description().to_dict(),
                workload=self.workload_dict())
        assert reply["workload"] == "inference"
        assert reply["tokens_per_s"] > 0

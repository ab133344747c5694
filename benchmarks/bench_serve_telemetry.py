"""Serving-tier telemetry: stitched traces and the obs-disabled overhead
gate for served predicts.

The serving tier's telemetry — trace propagation, request-scoped spans,
the access-log hook and the always-on ``serve.*`` instruments — must
stay off the prediction hot path. This bench exercises it end-to-end
and gates the cost:

* ``test_serve_telemetry_and_overhead_gate`` starts an in-process
  daemon, drives a concurrent warm workload, then requests one traced
  predict, stitches the client and daemon span streams into a Chrome
  trace, validates it against ``schemas/chrome_trace.schema.json``
  (flow events included) and writes it to
  ``benchmarks/results/OBS_serve_trace.json``.

  Two gates, both against the committed baseline (``entries[0]`` of
  the ``served_overhead`` trajectory in
  ``benchmarks/results/BENCH_serve_telemetry.json``):

  - **Regression tracking** — the warm served round trip, normalized
    by a direct in-process ``service.predict`` of the same cached
    request measured in the same run. Loopback RPC timings are noisy
    (scheduler wakeups dominate the µs scale), so the headroom is
    generous; this catches gross serving-layer regressions.
  - **Obs-disabled overhead (3%)** — the telemetry added to the
    request path lives in ``dispatch`` (trace binding, envelope
    trace-ID extraction, the access-log check, metric observation),
    so the gated metric is warm in-process ``dispatch`` over warm
    in-process ``predict`` of the same cached request: both sides
    share the dominant code path, which cancels machine speed *and*
    scheduler noise (measured cross-run spread ~2%). With
    observability disabled (the default) this ratio must stay within
    **3%** of the committed baseline — request-scoped telemetry can
    never silently tax serving when nothing asks for it.

Set ``REPRO_BENCH_QUICK=1`` in CI smoke/perf lanes for fewer rounds.
"""

import json
import os
import statistics
import threading
import time
from pathlib import Path

from _helpers import QUICK, RESULTS_DIR, Bound, Trajectory, emit_table

from repro import obs
from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import single_node
from repro.graph.builder import clear_structure_cache
from repro.obs.schema import validate
from repro.obs.stitch import stitch_trace
from repro.serve import PredictionService, ServeClient, ServeDaemon, protocol

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACE_FILE = RESULTS_DIR / "OBS_serve_trace.json"

#: Allowed growth of the served/in-process latency ratio vs the
#: committed baseline (catches a gross serving-layer regression
#: regardless of telemetry state; very generous because loopback RPC
#: minima swing ~2x with scheduler state — the precise bound is the
#: in-process dispatch/predict gate below).
REGRESSION_HEADROOM = 2.0
#: The telemetry bound: with observability disabled (the default),
#: the in-process dispatch/predict ratio must stay within 3% of the
#: committed baseline — trace plumbing and the access log hook must be
#: free when nothing asks for them.
OBS_DISABLED_HEADROOM = 1.03

SERVED_OVERHEAD = Trajectory(
    RESULTS_DIR / "BENCH_serve_telemetry.json", "served_overhead", (
        Bound("served_over_inprocess", "lower",
              headroom=REGRESSION_HEADROOM),
        Bound("dispatch_over_predict", "lower",
              headroom=OBS_DISABLED_HEADROOM, obs_off_only=True),
    ))

DRIVERS = 3 if QUICK else 4
REQUESTS_PER_DRIVER = 15 if QUICK else 40
WARM_ROUNDS = 60 if QUICK else 120
#: The gated dispatch/predict ratio is deliberately measured the same
#: way in quick and full lanes: its stability is what makes the 3%
#: bound honest, so the rounds are not subsampled. Deep minima pin the
#: two floors well enough that the cross-run spread of the median
#: ratio stays under 1% (measured); ~0.5s total.
GATE_WARMUP = 300
GATE_ROUNDS = 1000
GATE_REPEATS = 3


def _descriptions() -> list[InputDescription]:
    """A few distinct tiny feasible plans (distinct cache keys), plus
    one reserved for the traced predict so it goes through the
    batcher rather than the cache-hit path."""
    model = ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                        num_heads=8, vocab_size=32_000, name="tiny")
    system = single_node()
    training = TrainingConfig(global_batch_size=16)
    plans = [(2, 2, 2, 2), (1, 4, 2, 1), (4, 2, 1, 2), (2, 4, 1, 1)]
    return [InputDescription(
                model=model, system=system,
                plan=ParallelismConfig(tensor=tensor, data=data,
                                       pipeline=pipeline,
                                       micro_batch_size=micro),
                training=training)
            for tensor, data, pipeline, micro in plans]


def _drive(address: tuple, descriptions: list[InputDescription]) -> None:
    """Concurrent warm traffic (populates the latency quantiles)."""
    host, port = address
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        try:
            with ServeClient.connect(host, port, timeout=10.0) as client:
                for i in range(REQUESTS_PER_DRIVER):
                    description = descriptions[(offset + i)
                                               % len(descriptions)]
                    client.predict(description=description.to_dict(),
                                   granularity="stage")
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(DRIVERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]


def _schema(name: str) -> dict:
    return json.loads((REPO_ROOT / "schemas" / name).read_text())


def _dispatch_over_predict(service: PredictionService,
                           warm_params: dict) -> float:
    """The obs-disabled gated metric: warm in-process ``dispatch`` over
    warm in-process ``predict`` of the same cached request.

    ``dispatch`` carries the whole per-request telemetry surface
    (trace binding, envelope trace-ID extraction, the access-log
    check, metric observation) on top of the shared ``predict`` path,
    so a hot-path telemetry regression inflates only the numerator —
    while machine speed and scheduler noise cancel. Median of
    ``GATE_REPEATS`` min-of-rounds ratios keeps the cross-run spread
    around 2%, inside the 3% headroom.
    """
    request = protocol.request(1, "predict", warm_params)

    def one_dispatch() -> None:
        # A fresh envelope each round, as the wire would deliver it.
        service.dispatch(json.loads(json.dumps(request)))

    for _ in range(GATE_WARMUP):
        one_dispatch()
        service.predict(dict(warm_params))
    ratios = []
    for _ in range(GATE_REPEATS):
        dispatch_s = predict_s = float("inf")
        for _ in range(GATE_ROUNDS):
            tick = time.perf_counter()
            one_dispatch()
            dispatch_s = min(dispatch_s, time.perf_counter() - tick)
            tick = time.perf_counter()
            service.predict(dict(warm_params))
            predict_s = min(predict_s, time.perf_counter() - tick)
        ratios.append(dispatch_s / predict_s)
    return statistics.median(ratios)


def test_serve_telemetry_and_overhead_gate():
    clear_structure_cache()
    obs.reset()

    descriptions = _descriptions()
    traced_description, workload = descriptions[0], descriptions[1:]
    service = PredictionService()
    daemon = ServeDaemon(service, port=0)
    daemon.start()
    try:
        address = daemon.address
        _drive(address, workload)

        # -- One traced predict, stitched and schema-validated. ----------
        trace_id = obs.new_trace_id()
        with ServeClient.connect(*address, timeout=10.0) as client:
            payload = client.predict(
                description=traced_description.to_dict(),
                granularity="stage", trace=True, trace_id=trace_id)
            served = payload["served"]
            stitched = stitch_trace(
                trace_id=trace_id,
                client_spans=client.last_call_spans,
                server_spans=served["spans"],
                client_pid=os.getpid(), server_pid=served["pid"])
        validate(stitched, _schema("chrome_trace.schema.json"))
        span_names = {s["name"] for s in served["spans"]}
        assert "serve.batch.queued" in span_names, span_names
        flow_phases = [e["ph"] for e in stitched["traceEvents"]
                       if e["ph"] in ("s", "f")]
        assert flow_phases.count("s") == 2 and flow_phases.count("f") == 2

        # -- Warm served round trip vs direct in-process predict. --------
        warm_params = {"description": workload[0].to_dict(),
                       "granularity": "stage"}
        with ServeClient.connect(*address, timeout=10.0) as client:
            served_warm_s = float("inf")
            for _ in range(WARM_ROUNDS):
                tick = time.perf_counter()
                client.predict(**warm_params)
                served_warm_s = min(served_warm_s,
                                    time.perf_counter() - tick)
            stats = client.stats()
        inprocess_warm_s = float("inf")
        for _ in range(WARM_ROUNDS):
            tick = time.perf_counter()
            service.predict(dict(warm_params))
            inprocess_warm_s = min(inprocess_warm_s,
                                   time.perf_counter() - tick)

        RESULTS_DIR.mkdir(exist_ok=True)
        TRACE_FILE.write_text(json.dumps(stitched, indent=1) + "\n")
    finally:
        daemon.stop()
        service.close()

    # -- The obs-disabled gated metric, on a quiet service. --------------
    # Measured after the daemon is gone, so nothing wakes up mid-round;
    # the process-wide structure cache keeps the request warm.
    quiet = PredictionService()
    try:
        warm_params = {"description": workload[0].to_dict(),
                       "granularity": "stage"}
        dispatch_over_predict = _dispatch_over_predict(quiet, warm_params)
    finally:
        quiet.close()

    ratio = served_warm_s / inprocess_warm_s
    entry = {
        "quick": QUICK,
        "obs_enabled": obs.enabled(),
        "served_warm_s": round(served_warm_s, 6),
        "inprocess_warm_s": round(inprocess_warm_s, 6),
        "served_over_inprocess": round(ratio, 4),
        "dispatch_over_predict": round(dispatch_over_predict, 4),
        "served_p99_s": round(stats["latency"]["predict_s"]["p99"], 6),
        "stitched_events": len(stitched["traceEvents"]),
    }

    baseline = SERVED_OVERHEAD.baseline()
    emit_table(
        "serve_telemetry",
        "Serving telemetry: stitched trace + overhead gate",
        [entry | {"baseline_ratio": baseline["served_over_inprocess"]}],
        notes="served = warm predict round trip over loopback TCP; "
              "in-process = the same cached predict called directly on "
              "the service; dispatch_over_predict is the obs-disabled "
              "3% gate (both sides share the dominant code path, so "
              "machine speed and scheduler noise cancel)")

    SERVED_OVERHEAD.check(baseline, served_over_inprocess=ratio,
                          dispatch_over_predict=dispatch_over_predict)
    SERVED_OVERHEAD.record(entry)
    obs.reset()

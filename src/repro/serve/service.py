"""The resident prediction service behind ``repro serve``.

One :class:`PredictionService` keeps everything worth keeping warm
between requests — the process's profile tables and communication
models (:func:`~repro.profiling.lookup.profile_table` and
:func:`~repro.network.model.nccl_model_for`, the two bounded stores
every :class:`~repro.sim.estimator.VTrain` takes its costs from), the
process-wide structure cache, and a persistent
:class:`~repro.dse.cache.PredictionCache` — and serves concurrent
``predict`` requests from any number of transport threads. Three
mechanisms make the shared-warm-state story fast under concurrency:

* **In-flight deduplication.** Requests are keyed by the same complete
  fingerprint the prediction cache uses; while one is being computed,
  identical arrivals coalesce onto the leader's computation and all
  waiters receive the same result. N identical concurrent predicts run
  exactly one simulation (``serve.dedup.coalesced`` counts followers).

* **Micro-batching.** Admitted jobs queue into a bounded-delay batcher;
  each flush groups jobs by model, recipe, system, granularity, ZeRO
  stage and workload and predicts each group with a new simulator through
  :func:`~repro.dse.explorer.evaluate_plans`, whose
  :meth:`VTrain.predict_prepared` groups training or inference phase
  graphs sharing one cached structure and replays each group on the
  engine :func:`~repro.sim.engine.use_batched_replay` picks for its
  columns. Each flush waits a fixed ``BATCH_WINDOW_S`` (2 ms) and takes
  at most the explorer's ``_MAX_EVAL_BATCH`` (64) jobs, so single
  requests stay interactive. A request that names no granularity runs
  at OPERATOR.

* **Result caching.** Every computed point lands in the prediction
  cache, so repeats — including requests arriving *after* their
  duplicate finished — skip simulation entirely.

Served predictions are bit-identical to direct :meth:`VTrain.predict`
calls: the batched replay engine is column-for-column exact, and the
response is assembled from the same cached representation on every path
(computed, coalesced, or cache hit).

Every simulation runs on the one batcher thread. The service is
transport-agnostic: :meth:`dispatch` maps one parsed JSON-RPC request
to a response, and ``repro.serve.daemon`` wires it to TCP sockets.

Telemetry (the ``repro.obs`` v2 surface) is request-scoped: the
envelope's trace ID is bound for the request's lifetime, every
dedup/batch decision is stamped onto the job it routed to, and a
``predict`` asked to trace itself (``params["trace"]``) gets its
daemon-side wall-clock spans back in the response — including the
micro-batch queueing interval and, for coalesced followers, the
leader's trace ID — for the stitcher to merge with the client's spans.
The always-on ``serve.*`` instruments have one read path: the ``stats``
RPC summarises serving health, and the ``metrics`` RPC returns the
whole registry snapshot (what ``repro stats --connect`` prints).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, TextIO

from repro import obs
from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import TrainingConfig
from repro.dse.cache import PredictionCache, fingerprint
from repro.dse.explorer import _MAX_EVAL_BATCH, DesignPoint, evaluate_plans
from repro.errors import ConfigError, InfeasibleConfigError, ReproError
from repro.graph.builder import Granularity, structure_cache_stats
from repro.obs.stitch import wire_span
from repro.serve import protocol
from repro.sim.estimator import VTrain
from repro.workload import (INFERENCE, TRAINING, InferenceWorkload,
                            workload_from_dict)

GIB = float(1 << 30)

#: Bounded delay the batcher waits after the first admission of a
#: flush, letting a burst of concurrent requests coalesce into one
#: vectorized sweep (read at every flush). Small against even a warm
#: predict (~ms), large against thread-scheduling jitter. It trades
#: cold latency for cache-served latency: on perfbench's served_mix
#: (2-vCPU host, 5 alternating 20 s pairs, normalized medians) a 0 ms
#: window cut the cold p50 from 3.52 to 2.01 ms and raised throughput
#: from 861 to 1,173 req/s, but slowed the cache-served p50 from 0.391
#: to 0.487 ms (+24.6%, worse in all 5 pairs).
BATCH_WINDOW_S = 0.002


class ShuttingDownError(ReproError):
    """The service is closed and admits no more work (answered with
    ``SHUTTING_DOWN``, so a client knows to retry elsewhere rather than
    fix its parameters)."""


_JSON_TYPES = {int: "an integer", str: "a string", bool: "a boolean",
               dict: "an object"}


def _param(params: dict[str, Any], name: str, kind: type,
           default: Any = None) -> Any:
    """``params[name]`` (``default`` when absent), which must be a JSON
    ``kind``: an integer parameter refuses ``true``, ``8.9`` and ``"8"``
    rather than coerce them into an answer to a different question
    (ConfigError, answered with ``INVALID_PARAMS``)."""
    value = params.get(name, default)
    if type(value) is not kind:
        raise ConfigError(
            f"'{name}' must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _preset_description(preset: str) -> InputDescription:
    """Resolve a preset key the same way the CLI does (import deferred:
    cli imports serve for the ``--connect`` path)."""
    from repro.cli import _preset_description as cli_preset
    return cli_preset(preset)


@dataclass
class _Job:
    """One admitted prediction: parsed inputs plus its completion latch.

    The batcher thread fills exactly one of ``point`` (a cacheable
    design point — possibly infeasible) or ``error`` (an unexpected
    failure), then fires ``done``; the leader *and* every coalesced
    follower wait on the same latch and read the same fields.
    """

    description: InputDescription
    granularity: Granularity
    zero_stage: int
    key: str
    #: Inference workload of a serving prediction; ``None`` for the
    #: default training workload.
    workload: InferenceWorkload | None = None
    done: threading.Event = field(default_factory=threading.Event)
    point: DesignPoint | None = None
    error: BaseException | None = None
    #: Trace ID of the request that admitted this job (the *leader*);
    #: coalesced followers read it to name the computation that served
    #: them.
    trace_id: str | None = None
    #: Wall-clock instants of the job's life: admission into the
    #: micro-batch queue, start of the flush that executed it, and
    #: completion. ``exec_start_unix - admitted_unix`` is the
    #: micro-batch queueing interval a stitched trace renders.
    admitted_unix: float = 0.0
    exec_start_unix: float | None = None
    done_unix: float | None = None
    #: Size of the flush this job executed in.
    batch_size: int = 0


class PredictionService:
    """Long-lived, thread-safe prediction engine with warm shared state.

    Args:
        cache: Persistent prediction cache (a fresh empty one when
            omitted). The caller owns persistence — ``repro serve``
            loads/saves it around the daemon's lifetime.
        access_log: Writable text stream receiving one JSON line per
            dispatched request (method, request/trace IDs, status,
            latency); the caller owns the stream's lifetime.
    """

    def __init__(self, *, cache: PredictionCache | None = None,
                 access_log: TextIO | None = None) -> None:
        self.cache = cache if cache is not None else PredictionCache()
        self.started_at = time.monotonic()
        self._access_log = access_log
        self._access_log_lock = threading.Lock()

        self._inflight: dict[str, _Job] = {}
        self._inflight_lock = threading.Lock()

        self._queue: deque[_Job] = deque()
        self._wake = threading.Condition()
        self._closed = False
        self._batcher = threading.Thread(target=self._batch_loop,
                                         name="repro-serve-batcher",
                                         daemon=True)
        self._batcher.start()

        # Serving metrics are always-on (the daemon exists to report
        # them), so the service observes its histograms directly
        # instead of going through the gated obs.observe() helper.
        m = obs.metrics
        self._requests = m.counter("serve.requests")
        self._request_errors = m.counter("serve.requests.errors")
        self._predicts = m.counter("serve.requests.predict")
        self._dedup_leaders = m.counter("serve.dedup.leaders")
        self._dedup_coalesced = m.counter("serve.dedup.coalesced")
        self._cache_served = m.counter("serve.cache.served")
        self._batch_flushes = m.counter("serve.batch.flushes")
        self._batch_jobs = m.counter("serve.batch.jobs")
        self._request_latency = m.histogram("serve.request_s")
        self._predict_latency = m.histogram("serve.predict_s")
        self._batch_size = m.histogram("serve.batch.size")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the batcher (after draining its queue)."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        self._batcher.join(timeout=10.0)

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    def _parse_predict(self, params: dict[str, Any]) -> tuple[
            InputDescription, Granularity, int, InferenceWorkload | None]:
        """Validate every predict parameter; raises ConfigError."""
        if ("description" in params) == ("preset" in params):
            raise ConfigError(
                "predict needs exactly one of 'description' or 'preset'")
        if "preset" in params:
            description = _preset_description(_param(params, "preset", str))
        else:
            description = InputDescription.from_dict(
                _param(params, "description", dict))
        try:
            granularity = Granularity(_param(
                params, "granularity", str, Granularity.OPERATOR.value))
        except ValueError as exc:
            raise ConfigError(f"unknown granularity: {exc}") from None
        zero_stage = _param(params, "zero_stage", int, 1)
        if zero_stage not in (0, 1, 2, 3):
            raise ConfigError("zero_stage must be 0..3")
        _param(params, "trace", bool, False)
        # The workload envelope arrives exactly as the client serialised
        # it (absent / training / inference); parsing is the only
        # transformation it undergoes on the way to the simulator.
        workload = workload_from_dict(_param(params, "workload", dict, {}))
        return description, granularity, zero_stage, workload

    # ------------------------------------------------------------------
    # Predict: dedup + batch admission
    # ------------------------------------------------------------------
    def predict(self, params: dict[str, Any]) -> dict[str, Any]:
        """Serve one prediction (blocking; safe from any thread).

        When ``params["trace"]`` is truthy, the response's ``served``
        section additionally carries the daemon's wall-clock spans for
        this request (dispatch, micro-batch queueing, batched
        execution) and the daemon pid, ready for
        :func:`repro.obs.stitch.stitch_trace`.
        """
        description, granularity, zero_stage, workload = \
            self._parse_predict(params)
        trace = params.get("trace", False)
        trace_id = obs.current_trace_id() or protocol.trace_id_of(params)
        if trace and trace_id is None:
            trace_id = obs.new_trace_id()  # daemon-minted fallback
        self._predicts.increment()
        started = time.perf_counter()
        started_unix = time.time()
        point, job, source = self._admit(description, granularity,
                                         zero_stage, workload,
                                         trace_id=trace_id)
        if job is not None:
            job.done.wait()
            if job.error is not None:
                raise job.error
            point = job.point
        result = self._result_from_point(description, point, source)
        served = result["served"]
        if trace_id is not None:
            served["trace_id"] = trace_id
        if job is not None and job.trace_id is not None:
            served["leader_trace_id"] = job.trace_id
        if trace:
            served["pid"] = os.getpid()
            served["spans"] = self._predict_spans(trace_id, source, job,
                                                  started_unix)
        self._predict_latency.observe(time.perf_counter() - started)
        return result

    @staticmethod
    def _predict_spans(trace_id: str | None, source: str,
                       job: _Job | None,
                       started_unix: float) -> list[dict[str, Any]]:
        """The daemon-side wire spans of one traced predict.

        The outer ``serve.predict`` span covers the whole server-side
        handling; jobs that went through the batcher additionally
        expose the micro-batch queueing interval and the batched
        execution (stamped with the flush size and the leader's trace
        ID — for a coalesced follower these are the *leader's* job
        timestamps, which is exactly what "who served me" means).
        """
        now = time.time()
        spans = [wire_span("serve.predict", "serve", started_unix,
                           now - started_unix, trace_id=trace_id,
                           source=source)]
        if job is not None and job.exec_start_unix is not None:
            spans.append(wire_span(
                "serve.batch.queued", "serve", job.admitted_unix,
                max(job.exec_start_unix - job.admitted_unix, 0.0),
                trace_id=trace_id, leader_trace_id=job.trace_id))
            done_unix = job.done_unix or now
            spans.append(wire_span(
                "serve.batch.execute", "serve", job.exec_start_unix,
                max(done_unix - job.exec_start_unix, 0.0),
                trace_id=trace_id, leader_trace_id=job.trace_id,
                batch_size=job.batch_size))
        return spans

    def _admit(self, description: InputDescription,
               granularity: Granularity, zero_stage: int,
               workload: InferenceWorkload | None = None,
               trace_id: str | None = None,
               ) -> tuple[DesignPoint | None, _Job | None, str]:
        """Route one prediction to the cache, an in-flight job, or a
        fresh job; returns ``(cached_point, job_to_wait_on, source)``
        — exactly one of the first two is non-``None``. A fresh job is
        stamped with the admitting request's ``trace_id`` (it becomes
        the *leader* that coalesced followers point at)."""
        key = fingerprint(description.model, description.plan,
                          description.training, description.system,
                          granularity, zero_stage=zero_stage,
                          workload=workload)
        with self._inflight_lock:
            point = self.cache.get(key)
            if point is not None:
                self._cache_served.increment()
                return point, None, "cache"
            job = self._inflight.get(key)
            if job is not None:
                self._dedup_coalesced.increment()
                return None, job, "coalesced"
            job = _Job(description=description, granularity=granularity,
                       zero_stage=zero_stage, key=key, workload=workload,
                       trace_id=trace_id, admitted_unix=time.time())
            self._inflight[key] = job
            self._dedup_leaders.increment()
        with self._wake:
            if self._closed:
                with self._inflight_lock:
                    self._inflight.pop(key, None)
                # Followers that coalesced onto this job before the pop
                # wait on its latch: refuse them too.
                job.error = ShuttingDownError("service is shutting down")
                job.done.set()
                raise job.error
            self._queue.append(job)
            self._wake.notify()
        return None, job, "computed"

    def _result_from_point(self, description: InputDescription,
                           point: DesignPoint, source: str,
                           ) -> dict[str, Any]:
        """Assemble the predict response from a cached design point.

        Every serving path (fresh compute, coalesced wait, cache hit)
        goes through this one function, so identical requests receive
        identical payloads no matter how they were served. Infeasible
        points raise exactly like a direct :meth:`VTrain.predict`.
        """
        if not point.feasible:
            raise InfeasibleConfigError(point.infeasible_reason)
        if point.workload == "inference":
            return {
                "workload": "inference",
                "ttft_s": point.ttft_s,
                "tpot_s": point.tpot_s,
                "tokens_per_s": point.tokens_per_s,
                "memory_per_gpu": point.memory_gib * GIB,
                "num_gpus": point.plan.total_gpus,
                "num_replicas": point.plan.data,
                "served": {"source": source},
            }
        model = description.model
        training = description.training
        tokens = training.tokens_per_iteration(model)
        return {
            "iteration_time": point.iteration_time,
            "gpu_compute_utilization": point.utilization,
            "memory_per_gpu": point.memory_gib * GIB,
            "tokens_per_iteration": tokens,
            "model_flops": model.model_flops_per_iteration(tokens),
            "num_gpus": point.plan.total_gpus,
            "served": {"source": source},
        }

    # ------------------------------------------------------------------
    # The batcher
    # ------------------------------------------------------------------
    def _batch_loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if not self._queue and self._closed:
                    return
            # Bounded delay: let the burst that woke us accumulate.
            time.sleep(BATCH_WINDOW_S)
            with self._wake:
                jobs = [self._queue.popleft()
                        for _ in range(min(len(self._queue),
                                           _MAX_EVAL_BATCH))]
            if jobs:
                self._execute(jobs)

    def _execute(self, jobs: list[_Job]) -> None:
        """Run one flush: group, replay (batched), publish, release."""
        self._batch_flushes.increment()
        self._batch_jobs.increment(len(jobs))
        self._batch_size.observe(len(jobs))
        flush_start = time.time()
        for job in jobs:
            job.exec_start_unix = flush_start
            job.batch_size = len(jobs)
        groups: dict[str, list[_Job]] = {}
        for job in jobs:
            key_parts = {"model": job.description.model.to_dict(),
                         "training": job.description.training.to_dict(),
                         "system": job.description.system.to_dict(),
                         "granularity": job.granularity.value,
                         "zero_stage": job.zero_stage}
            if job.workload is not None:
                key_parts["workload"] = job.workload.to_dict()
            group_key = json.dumps(key_parts, sort_keys=True)
            groups.setdefault(group_key, []).append(job)
        for members in groups.values():
            self._execute_group(members)

    def _execute_group(self, jobs: list[_Job]) -> None:
        """Predict one (model, training, system, granularity) group.

        Plans inside a group that share a cached structure replay in a
        single vectorized sweep via :meth:`VTrain.predict_prepared`.
        Whatever happens, every job's latch fires.
        """
        model = jobs[0].description.model
        training = jobs[0].description.training
        try:
            group_span = obs.span(
                "serve.batch.execute_group", "serve", jobs=len(jobs),
                trace_ids=[job.trace_id for job in jobs
                           if job.trace_id is not None])
            with group_span:
                self._execute_group_inner(jobs, model, training)
        except BaseException as exc:  # noqa: BLE001 - published to waiters
            for job in jobs:
                if job.point is None:
                    job.error = exc
        finally:
            done_unix = time.time()
            for job in jobs:
                job.done_unix = done_unix
                if job.point is not None:
                    self.cache.put(job.key, job.point)
                with self._inflight_lock:
                    self._inflight.pop(job.key, None)
                job.done.set()

    def _execute_group_inner(self, jobs: list[_Job], model: ModelConfig,
                             training: TrainingConfig) -> None:
        """Predict one group's jobs (exceptions bubble to the caller)."""
        vtrain = VTrain(jobs[0].description.system,
                        granularity=jobs[0].granularity,
                        zero_stage=jobs[0].zero_stage)
        workload = jobs[0].workload
        valid: list[_Job] = []
        for job in jobs:
            try:
                job.description.validate()
            except (InfeasibleConfigError, ConfigError) as exc:
                job.point = DesignPoint(
                    plan=job.description.plan, feasible=False,
                    infeasible_reason=str(exc),
                    workload=INFERENCE if workload is not None else TRAINING)
            else:
                valid.append(job)
        points = evaluate_plans(vtrain, model,
                                [job.description.plan for job in valid],
                                training, workload=workload)
        for job, point in zip(valid, points):
            job.point = point

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload: req/s, latency quantiles, hit rates."""
        uptime = max(time.monotonic() - self.started_at, 1e-9)
        total = self._requests.value
        return {
            "uptime_s": uptime,
            "requests": {
                "total": total,
                "predict": self._predicts.value,
                "errors": self._request_errors.value,
                "per_second": total / uptime,
            },
            "latency": {
                "request_s": self._request_latency.summary(),
                "predict_s": self._predict_latency.summary(),
            },
            "dedup": {
                "leaders": self._dedup_leaders.value,
                "coalesced": self._dedup_coalesced.value,
                "cache_served": self._cache_served.value,
            },
            "batch": {
                "flushes": self._batch_flushes.value,
                "jobs": self._batch_jobs.value,
                "size": self._batch_size.summary(),
            },
            "prediction_cache": self.cache.stats,
            "structure_cache": structure_cache_stats(),
        }

    def metrics_payload(self, params: dict[str, Any]) -> dict[str, Any]:
        """The ``metrics`` RPC: the full registry as a JSON snapshot.
        ``snapshot`` is the only ``format``; any other is refused, so a
        client asking for another exposition gets an error rather than
        JSON it did not ask for."""
        fmt = _param(params, "format", str, "snapshot")
        if fmt != "snapshot":
            raise ConfigError(f"unknown metrics format {fmt!r} (snapshot)")
        return {"format": fmt, "snapshot": obs.snapshot()}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, message: dict[str, Any],
                 peer: str | None = None) -> tuple[dict[str, Any], bool]:
        """Answer one JSON-RPC request.

        Returns ``(response, shutdown_requested)``; transports write
        the response and tear themselves down when the flag is set.
        Never raises — every failure becomes a JSON-RPC error response.

        The envelope's ``trace_id`` (if any) is bound for the request's
        lifetime, so every span, metric label, and dedup decision the
        handler makes is attributable to the originating client call;
        ``peer`` (the transport's remote address) rides along in the
        access log only.
        """
        try:
            request_id, method, params = protocol.parse_request(message)
        except protocol.ProtocolError as exc:
            self._request_errors.increment()
            response = protocol.error_response(
                protocol.reply_id(message), protocol.INVALID_REQUEST,
                str(exc))
            self._log_access(message.get("method"), message.get("id"),
                             protocol.trace_id_of(message), response,
                             0.0, peer)
            return response, False
        self._requests.increment()
        started = time.perf_counter()
        trace_id = protocol.trace_id_of(message)
        shutdown = False
        with obs.bind_trace(trace_id):
            try:
                if method == "ping":
                    result: Any = {"ok": True}
                elif method == "predict":
                    result = self.predict(params)
                elif method == "stats":
                    result = self.stats()
                elif method == "metrics":
                    result = self.metrics_payload(params)
                elif method == "shutdown":
                    result = {"ok": True}
                    shutdown = True
                else:
                    self._request_errors.increment()
                    response = protocol.error_response(
                        request_id, protocol.METHOD_NOT_FOUND,
                        f"unknown method {method!r}")
                    self._log_access(method, request_id, trace_id, response,
                                     time.perf_counter() - started, peer)
                    return response, False
                response = protocol.response(request_id, result)
            except InfeasibleConfigError as exc:
                self._request_errors.increment()
                response = protocol.error_response(
                    request_id, protocol.INFEASIBLE, str(exc))
            except ShuttingDownError as exc:
                self._request_errors.increment()
                response = protocol.error_response(
                    request_id, protocol.SHUTTING_DOWN, str(exc))
            except (ConfigError, ReproError) as exc:
                self._request_errors.increment()
                response = protocol.error_response(
                    request_id, protocol.INVALID_PARAMS, str(exc))
            except Exception as exc:  # noqa: BLE001 - answered, not raised
                self._request_errors.increment()
                response = protocol.error_response(
                    request_id, protocol.INTERNAL_ERROR,
                    f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        self._request_latency.observe(elapsed)
        self._log_access(method, request_id, trace_id, response,
                         elapsed, peer)
        return response, shutdown

    def _log_access(self, method: Any, request_id: Any,
                    trace_id: str | None, response: dict[str, Any],
                    elapsed_s: float, peer: str | None) -> None:
        """One structured JSON access-log line per answered request."""
        if self._access_log is None:
            return
        error = response.get("error")
        record = {
            "t_unix": time.time(),
            "method": method,
            "id": request_id,
            "trace_id": trace_id,
            "status": "error" if error else "ok",
            "code": error["code"] if error else 0,
            "elapsed_s": round(elapsed_s, 9),
            "peer": peer,
        }
        line = json.dumps(record, separators=(",", ":"))
        try:
            with self._access_log_lock:
                self._access_log.write(line + "\n")
                self._access_log.flush()
        except (OSError, ValueError):
            pass  # a torn log sink must never fail the request

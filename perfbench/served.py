"""The ``served_mix`` workload: a seeded request stream against the
shipped daemon (``python -m repro serve --port 0``, which turns obs on).

This process is the load: two connections in a closed loop, each
sending its next request when the previous reply arrives. A run is a
series of rounds; each round spawns a fresh daemon (one set-up sample,
up to ``ping``), plays one stream through it and shuts it down, so every
round starts from the same cold state.

The stream of a round is drawn from the seed. Every plan of the pool
appears once, in seeded order, and about half the requests repeat an
earlier one. The pool holds the ``dse_sweep`` space at STAGE
granularity and GPT-3 175B serving plans at OPERATOR granularity, each
on a system with exactly the plan's GPU count. Memory-infeasible plans
stay in the stream: their correct answer is an INFEASIBLE error.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import threading
import time

from common import (OUT, ROOT, SRC, SWEEP_MAX_GPUS, context_lines,
                    load_golden, median, normalized, peak_rss_mb,
                    reference_s, sweep_inputs, tail)
from layers import MAX_EVENTS, write_trace

CONNECTIONS = 2
REPEAT_SHARE = 0.5
#: Requests between two reference loops: the load pauses for each loop,
#: so the latencies of a segment are normalized by the machine's speed
#: around it (a round lasts seconds, over which that speed drifts).
SEGMENT = 100
MIN_SETUP_SAMPLES = 3
INFEASIBLE = "INFEASIBLE"


def plan_key(kind: str, plan) -> str:
    return (f"{kind}:t{plan.tensor}-d{plan.data}-p{plan.pipeline}"
            f"-m{plan.micro_batch_size}")


def request_pool() -> list[tuple[str, str, dict]]:
    """Every request a stream may draw: ``(kind, golden key, params)``."""
    from repro.config.description import InputDescription
    from repro.config.presets import GPT3_175B
    from repro.config.system import SystemConfig
    from repro.dse.space import (SearchSpace, enumerate_plans,
                                 enumerate_serving_plans)
    from repro.workload import InferenceWorkload

    def fits(plan) -> bool:
        # A description's system has exactly the plan's GPU count, so
        # it must be one partial node or whole nodes of eight.
        return plan.total_gpus <= 8 or plan.total_gpus % 8 == 0

    pool = []
    model, training, space = sweep_inputs()
    for plan in enumerate_plans(model, training, space=space,
                                max_gpus=SWEEP_MAX_GPUS):
        if fits(plan):
            description = InputDescription(
                model, SystemConfig(num_gpus=plan.total_gpus), plan,
                training)
            pool.append(("training", plan_key("training", plan),
                         {"description": description.to_dict(),
                          "granularity": "stage"}))
    workload = InferenceWorkload(batch_size=16, prompt_len=512, gen_len=128)
    space = SearchSpace(max_tensor=8, max_data=4, max_pipeline=8)
    for plan in enumerate_serving_plans(GPT3_175B, workload, space=space,
                                        max_gpus=32):
        if fits(plan):
            description = InputDescription(
                GPT3_175B, SystemConfig(num_gpus=plan.total_gpus), plan,
                workload.training_proxy(plan.data))
            pool.append(("inference", plan_key("inference", plan),
                         {"description": description.to_dict(),
                          "granularity": "operator",
                          "workload": workload.to_dict()}))
    return pool


def stream(pool_size: int, seed: int, round_: int) -> list[tuple[int, bool]]:
    """``(pool index, first occurrence)`` for every request of a round."""
    rng = random.Random(f"served_mix:{seed}:{round_}")
    fresh = list(range(pool_size))
    rng.shuffle(fresh)
    seen: list[int] = []
    requests = []
    while fresh:
        if seen and rng.random() < REPEAT_SHARE:
            requests.append((rng.choice(seen), False))
        else:
            seen.append(fresh.pop())
            requests.append((seen[-1], True))
    return requests


class Daemon:
    """One ``repro serve`` process, up and answering ``ping``."""

    def __init__(self) -> None:
        from repro.serve import ServeClient

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            line = self.process.stderr.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.address = (match.group(1), int(match.group(2)))
            self.client = ServeClient.connect(*self.address, timeout=60.0)
            self.client.ping()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.setup_s = time.perf_counter() - start

    def close(self) -> tuple[float, dict]:
        """Shut down; returns (peak RSS in MB, final ``stats``)."""
        try:
            rss = peak_rss_mb(self.process.pid)
            stats = self.client.stats()
            self.client.shutdown()
            self.process.communicate(timeout=30)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.communicate()
        return rss, stats


def drive(address, pool, requests, traced: bool, round_: int, offset: int):
    """Play ``requests`` (a segment of a round's stream starting at
    ``offset``) over two closed-loop connections.

    Returns one ``(latency_s, sent_unix, connection, reply, error
    code)`` per request, in stream order, and the segment's wall time.
    """
    from repro.serve import ServeClient
    from repro.serve.protocol import RemoteError

    results = [None] * len(requests)
    order = iter(range(len(requests)))
    lock = threading.Lock()
    failures: list[BaseException] = []

    def connection(slot: int) -> None:
        try:
            with ServeClient.connect(*address, timeout=60.0) as client:
                while True:
                    with lock:
                        position = next(order, None)
                    if position is None:
                        return
                    params = dict(pool[requests[position][0]][2])
                    trace_id = None
                    if traced and (offset + position) % 2 == 0:
                        params["trace"] = True
                        trace_id = f"{round_:04x}{offset + position:012x}"
                    sent_unix = time.time()
                    start = time.perf_counter()
                    try:
                        reply = client.call("predict", params,
                                            trace_id=trace_id)
                        error = None
                    except RemoteError as exc:
                        reply, error = None, exc.code
                    results[position] = (time.perf_counter() - start,
                                         sent_unix, slot, reply, error)
        except BaseException as exc:  # re-raised on the main thread
            failures.append(exc)

    threads = [threading.Thread(target=connection, args=(slot,))
               for slot in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    if failures:
        raise failures[0]
    return results, wall_s


def correct(golden, reply, error) -> bool:
    """The served answer equals a direct ``VTrain`` prediction."""
    from repro.serve.protocol import INFEASIBLE as INFEASIBLE_CODE

    if golden == INFEASIBLE:
        return error == INFEASIBLE_CODE
    if error is not None:
        return False
    return {k: v for k, v in reply.items() if k != "served"} == golden


class Attribution:
    """Traced requests split into serving layers from the wire spans.

    A served round trip is transport (the client's time minus the
    daemon's ``serve.predict`` span), admission (``serve.predict`` minus
    queueing and execution), the batch window wait and the batched
    execution. A coalesced follower reports its leader's queue and
    execute spans, so both are clipped to the follower's own span.
    Error replies carry no spans; their time is unaccounted.
    """

    def __init__(self) -> None:
        self.totals = {"serve.transport_s": 0.0, "serve.admit_s": 0.0,
                       "serve.queue_wait_s": 0.0,
                       "serve.execute_s.training": 0.0,
                       "serve.execute_s.inference": 0.0}
        self.requests = 0
        self.round_trip_s = 0.0
        self.unaccounted_s = 0.0
        self.events: list[dict] = []

    def add(self, kind: str, latency: float, sent_unix: float, slot: int,
            reply) -> None:
        self.requests += 1
        self.round_trip_s += latency
        if len(self.events) < MAX_EVENTS:
            self.events.append({"name": "client.predict", "cat": "client",
                                "ph": "X", "ts": sent_unix,
                                "dur": latency, "pid": os.getpid(),
                                "tid": slot, "args": {"kind": kind}})
        if reply is None:
            self.unaccounted_s += latency
            return
        served = reply["served"]
        spans = {span["name"]: span for span in served["spans"]}
        predict = spans["serve.predict"]["duration_s"]
        queued = min(spans.get("serve.batch.queued", {}).get(
            "duration_s", 0.0), predict)
        execute = min(spans.get("serve.batch.execute", {}).get(
            "duration_s", 0.0), predict - queued)
        self.totals["serve.transport_s"] += latency - predict
        self.totals["serve.admit_s"] += predict - queued - execute
        self.totals["serve.queue_wait_s"] += queued
        self.totals[f"serve.execute_s.{kind}"] += execute
        if len(self.events) < MAX_EVENTS:
            for span in spans.values():
                self.events.append({
                    "name": span["name"], "cat": span["cat"], "ph": "X",
                    "ts": span["start_unix"], "dur": span["duration_s"],
                    "pid": served["pid"], "tid": 0,
                    "args": {"trace_id": served.get("trace_id", "")}})

    def chrome_trace(self) -> dict:
        origin = min((event["ts"] for event in self.events), default=0.0)
        for event in self.events:
            event["ts"] = (event["ts"] - origin) * 1e6
            event["dur"] = max(event["dur"], 0.0) * 1e6
        return {"traceEvents": self.events, "displayTimeUnit": "ms",
                "otherData": {"workload": "served_mix"}}


def run(seed: int, seconds: float, traced: bool,
        layer_names: list[str]) -> dict:
    golden = load_golden("served_mix")
    pool = request_pool()
    missing = [key for _, key, _ in pool if key not in golden]
    if missing:
        raise SystemExit(f"perfbench: served_mix golden lacks {missing[:3]}")
    # First occurrence -> latencies, as measured and normalized.
    raw = {True: [], False: []}
    latencies = {True: [], False: []}
    by_parity = {(first, even): [] for first in (True, False)
                 for even in (True, False)}
    setups, rss, stats = [], [], []
    attribution = Attribution()
    attempted = failed = infeasible = requests_done = 0
    busy_s = 0.0
    deadline = time.perf_counter() + seconds
    round_ = 0
    while round_ == 0 or time.perf_counter() < deadline:
        requests = stream(len(pool), seed, round_)
        ref = reference_s()
        daemon = Daemon()
        try:
            refs = [reference_s()]
            setups.append(normalized(daemon.setup_s, ref, refs[0]))
            results, scales = [], []
            for start in range(0, len(requests), SEGMENT):
                part, wall_s = drive(daemon.address, pool,
                                     requests[start:start + SEGMENT],
                                     traced, round_, start)
                refs.append(reference_s())
                scale = normalized(1.0, refs[-2], refs[-1])
                busy_s += wall_s * scale
                results += part
                scales += [scale] * len(part)
        finally:
            peak, round_stats = daemon.close()
        rss.append(peak)
        stats.append(round_stats)
        for position, ((index, first), (latency, sent_unix, slot, reply,
                                         error)) in enumerate(
                zip(requests, results)):
            kind, key, _ = pool[index]
            attempted += 1
            failed += not correct(golden[key], reply, error)
            infeasible += error is not None
            raw[first].append(latency)
            latencies[first].append(latency * scales[position])
            by_parity[(first, position % 2 == 0)].append(latency)
            if traced and position % 2 == 0:
                attribution.add(kind, latency, sent_unix, slot, reply)
        requests_done += len(requests)
        round_ += 1
    while not traced and len(setups) < MIN_SETUP_SAMPLES:
        ref = reference_s()
        daemon = Daemon()
        setups.append(normalized(daemon.setup_s, ref, reference_s()))
        daemon.close()

    predicts = sum(s["requests"]["predict"] for s in stats)
    flushes = sum(s["batch"]["flushes"] for s in stats)
    jobs = sum(s["batch"]["jobs"] for s in stats)
    hits, misses = latencies[False], latencies[True]
    lines = [
        f"served_mix: {round_} rounds, {attempted} requests over "
        f"{len(pool)} distinct plans, {infeasible} INFEASIBLE answers; "
        f"{failed} failed against goldens",
        "host time, as measured:",
        f"serve_hit_p50_s    {median(raw[False]):.6f} s  "
        f"(n={len(raw[False])}; tail {tail(raw[False])})",
        f"serve_miss_p50_s   {median(raw[True]):.6f} s  "
        f"(n={len(raw[True])}; tail {tail(raw[True])})",
        f"all requests       p50 {median(raw[False] + raw[True]):.6f} s  "
        f"(tail {tail(raw[False] + raw[True])})",
        "normalized to the reference loop (the result line):",
        f"serve_req_per_s    {requests_done / busy_s:.3f} req/s  "
        f"({requests_done} requests in {busy_s:.3f} s)",
        f"serve_hit_p50_s    {median(hits):.6f} s  (n={len(hits)}; "
        f"tail {tail(hits)})",
        f"serve_miss_p50_s   {median(misses):.6f} s  (n={len(misses)}; "
        f"tail {tail(misses)})",
        f"batching           mean flush {jobs / flushes:.3f} jobs; "
        f"cache-served {sum(s['dedup']['cache_served'] for s in stats)}, "
        f"coalesced {sum(s['dedup']['coalesced'] for s in stats)} of "
        f"{predicts} predicts",
    ]
    if traced:
        weights = {first: len(latencies[first]) for first in (True, False)}
        traced_s = sum(weights[f] * median(by_parity[(f, True)])
                       for f in weights)
        plain_s = sum(weights[f] * median(by_parity[(f, False)])
                      for f in weights)
        per = attribution.requests
        metrics = {name: 0.0 for name in layer_names}  # daemon internals
        metrics.update({name: total / per for name, total
                        in attribution.totals.items()})
        for counter in ("hits", "misses", "evictions"):
            metrics[f"graph.structure_cache.{counter}"] = sum(
                s["structure_cache"][counter] for s in stats) / predicts
        metrics.update({
            "serve.cache_served_frac":
                sum(s["dedup"]["cache_served"] for s in stats) / predicts,
            "serve.coalesced_frac":
                sum(s["dedup"]["coalesced"] for s in stats) / predicts,
            "serve.mean_batch_size": jobs / flushes,
            "obs.tracing_overhead_frac": traced_s / plain_s - 1.0,
            "unaccounted_frac":
                attribution.unaccounted_s / attribution.round_trip_s,
        })
        path = OUT / f"trace-served_mix-seed{seed}.json"
        write_trace(path, attribution.chrome_trace())
        lines.append(f"trace    : {len(attribution.events)} spans written "
                     f"to {path} (schema-valid)")
    else:
        metrics = {"setup_s": median(setups), "peak_rss_mb": median(rss),
                   "cold_op_s": median(misses), "warm_op_s": median(hits),
                   "ops_per_s": requests_done / busy_s}
        lines.insert(1, f"setup_s            {median(setups):.6f} s  "
                        f"(normalized; median of {len(setups)} daemon "
                        f"starts)")
    lines += context_lines()
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "report": lines}

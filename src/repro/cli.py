"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``predict <description.json>`` — run one simulation from a vTrain-style
  input description file (or ``--preset mtnlg``) and print iteration
  time, utilization, memory, and (if the description carries a token
  budget) days and dollars. ``--trace out.json`` additionally writes a
  Chrome Trace Event Format file holding the simulated device timeline
  next to the engine's own spans (open in chrome://tracing or Perfetto).
* ``dse <preset>`` — sweep the (t, d, p, m) design space for a preset
  model, optionally in parallel (``--workers``) and with a persistent
  prediction cache (``--cache``, saved every 512 newly evaluated plans
  and at the end, so rerunning an interrupted sweep resumes it);
  ``--metrics`` prints and saves the observability registry snapshot.
* ``stats`` — pretty-print a saved metrics snapshot (cache hit rates,
  replay-throughput histograms with p50/p99), or — with ``--connect
  HOST:PORT`` — the *live* metrics registry of a running daemon (its
  ``metrics`` RPC).
* ``serve`` — run the long-lived prediction daemon: one resident
  process owning the warm structure cache and a persistent prediction
  cache, serving concurrent predict requests over TCP (``--port N``)
  with in-flight deduplication and a fixed 2 ms micro-batch window;
  requests that name no granularity run at OPERATOR (see
  :mod:`repro.serve`).
  ``predict --connect HOST:PORT`` routes a prediction through a
  running daemon instead of paying cold start; add ``--trace out.json``
  to get a *stitched* Chrome trace showing the request end-to-end
  across both processes. ``--access-log`` writes structured JSON
  request logs.
* ``example <name>`` — write a ready-to-edit description file for a
  preset model (``gpt3-175b``, ``mt-nlg-530b``, ...).
* ``presets`` — list the bundled model presets.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from repro import obs
from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.presets import (GPT3_TRAINING, MODEL_ZOO,
                                  MT_NLG_530B, MT_NLG_BASELINE_PLANS,
                                  MT_NLG_TRAINING)
from repro.config.system import NetworkSpec, multi_node
from repro.cost.pricing import DEFAULT_PRICING, SECONDS_PER_DAY
from repro.dse.cache import PredictionCache
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.report import save_csv, to_markdown
from repro.dse.space import SearchSpace
from repro.errors import ConfigError, ReproError
from repro.graph.builder import Granularity, structure_cache_stats
from repro.obs.export import combined_trace, write_trace
from repro.sim.estimator import VTrain

GIB = float(1 << 30)

#: ``repro dse --cache`` saves the cache file after every this many
#: newly evaluated plans, and once more at the end, so an interrupted
#: sweep resumes from its last save.
_CHECKPOINT_EVERY = 512

#: Short spellings accepted by ``predict --preset`` on top of the
#: canonical zoo keys (``mt-nlg-530b`` etc.).
PRESET_ALIASES = {
    "mtnlg": "mt-nlg-530b",
    "gpt3": "gpt-3-175b",
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vTrain reproduction: profiling-driven LLM training "
                    "simulation")
    commands = parser.add_subparsers(dest="command", required=True)

    predict = commands.add_parser(
        "predict", help="simulate one input description file or preset")
    predict.add_argument("description", type=Path, nargs="?",
                         help="path to a JSON input description (omit when "
                              "using --preset)")
    predict.add_argument("--preset", metavar="NAME",
                         help="simulate a bundled preset instead of a "
                              "description file: a `repro presets` key or "
                              "a short alias "
                              f"({', '.join(sorted(PRESET_ALIASES))})")
    predict.add_argument("--granularity", default="operator",
                         choices=[g.value for g in Granularity],
                         help="execution-graph detail level")
    _add_workload_arguments(predict)
    predict.add_argument("--no-memory-check", action="store_true",
                         help="skip the per-GPU memory feasibility check")
    predict.add_argument("--timing", action="store_true",
                         help="print a phase breakdown of where the "
                              "prediction's wall time went, under the "
                              "repository benchmark's layer names "
                              "(memory.check_s, graph.builder_init_s, "
                              "graph.structure_build_s on a cache miss or "
                              "graph.duration_fill_s on a hit, "
                              "sim.replay_s; summed over the prefill and "
                              "decode graphs of an inference workload)")
    predict.add_argument("--trace", type=Path, metavar="PATH",
                         help="write a Chrome Trace Event Format JSON "
                              "file holding the simulated device timeline "
                              "and the engine's own spans (view in "
                              "chrome://tracing or ui.perfetto.dev)")
    predict.add_argument("--connect", metavar="HOST:PORT",
                         help="serve the prediction from a running "
                              "`repro serve` daemon instead of "
                              "simulating in-process (warm caches, no "
                              "cold start); with --trace, writes a "
                              "stitched client+daemon trace instead of "
                              "the in-process timeline; incompatible "
                              "with --timing")

    serve = commands.add_parser(
        "serve", help="run the long-lived prediction daemon (warm shared "
                      "caches, in-flight dedup, request micro-batching)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7915,
                       help="TCP port to listen on; 0 picks a free port "
                            "(default: 7915)")
    serve.add_argument("--cache", type=Path, metavar="PATH",
                       help="persistent prediction cache (JSON): loaded "
                            "at startup if it exists, saved on shutdown, "
                            "shared by every request")
    serve.add_argument("--access-log", type=Path, metavar="PATH",
                       help="append one structured JSON line per request "
                            "(method, request/trace IDs, status, "
                            "latency, peer) to this file; '-' for "
                            "stderr")

    dse = commands.add_parser(
        "dse", help="sweep the 3D-parallelism design space for a preset "
                    "model, in parallel and with optional result caching")
    dse.add_argument("model", choices=_preset_keys(),
                     help="preset model to sweep")
    budget = dse.add_mutually_exclusive_group(required=True)
    budget.add_argument("--num-gpus", type=int,
                        help="only plans using exactly this many GPUs")
    budget.add_argument("--max-gpus", type=int,
                        help="plans using at most this many GPUs")
    _add_workload_arguments(dse)
    dse.add_argument("--global-batch", type=int, default=64,
                     help="global batch size in sequences (default: 64)")
    dse.add_argument("--total-tokens", type=int, default=0,
                     help="token budget used for cost/day estimates")
    dse.add_argument("--max-tensor", type=int, default=16,
                     help="tensor-parallel upper bound (default: 16)")
    dse.add_argument("--max-data", type=int, default=32,
                     help="data-parallel upper bound (default: 32)")
    dse.add_argument("--max-pipeline", type=int, default=105,
                     help="pipeline-parallel upper bound (default: 105)")
    dse.add_argument("--micro-batches", type=int, nargs="+",
                     default=[1, 2, 4, 8, 16], metavar="M",
                     help="candidate micro-batch sizes (default: 1 2 4 8 16)")
    dse.add_argument("--virtual-stages", type=int, nargs="+", default=[1],
                     metavar="V",
                     help="candidate virtual-pipeline (interleaved-1F1B) "
                          "chunk counts per device; values above 1 sweep "
                          "Megatron-interleaved variants of every plan "
                          "that satisfies the interleave constraints "
                          "(default: 1)")
    dse.add_argument("--zero-stage", type=int, default=1,
                     choices=[0, 1, 2, 3],
                     help="ZeRO sharding stage assumed by the memory "
                          "feasibility filter: 0 none, 1 optimizer states "
                          "(default), 2 +gradients, 3 +parameters")
    dse.add_argument("--gpus-per-node", type=int, default=8,
                     help="GPUs per server node (default: 8)")
    dse.add_argument("--network", default="flat", metavar="SPEC",
                     help="inter-node fabric model: 'flat' (the paper's "
                          "Equation-1 aggregate pipe; default), 'rail' "
                          "(rail-optimized, one switch per HCA rail) or "
                          "'fat-tree:<ratio>' (2-level fat tree with the "
                          "given uplink oversubscription, e.g. "
                          "fat-tree:4)")
    dse.add_argument("--granularity", default="stage",
                     choices=[g.value for g in Granularity],
                     help="graph detail level (stage is the fast sweep "
                          "mode; default: stage)")
    dse.add_argument("--workers", type=int, default=1,
                     help="evaluate plans on this many worker processes; "
                          "results are merged back into plan order and are "
                          "identical to a serial sweep (default: 1)")
    dse.add_argument("--cache", type=Path, metavar="PATH",
                     help="persistent prediction cache (JSON): loaded "
                          "before the sweep if it exists, saved every "
                          f"{_CHECKPOINT_EVERY} newly evaluated plans and "
                          "at the end, so repeated or interrupted sweeps "
                          "skip already-predicted plans")
    dse.add_argument("--csv", type=Path, metavar="PATH",
                     help="write all feasible design points to a CSV file")
    dse.add_argument("--top", type=int, default=10,
                     help="rows in the printed best-plans table "
                          "(default: 10)")
    dse.add_argument("--sort", default="cost", choices=["cost", "time"],
                     help="ranking for the best-plans table (default: cost)")
    dse.add_argument("--quiet", action="store_true",
                     help="suppress progress reporting on stderr")
    dse.add_argument("--metrics", type=Path, nargs="?", metavar="PATH",
                     const=Path(""), default=None,
                     help="enable observability for the sweep, print the "
                          "metrics snapshot afterwards, and save it as "
                          "JSON (default path: repro_obs_snapshot.json; "
                          "inspect later with `repro stats`)")

    stats = commands.add_parser(
        "stats", help="pretty-print a saved metrics snapshot (cache hit "
                      "rates, replay-throughput histograms with p50/p99) "
                      "or a running daemon's live instruments")
    stats.add_argument("snapshot", type=Path, nargs="?",
                       help="snapshot JSON written by `repro dse "
                            "--metrics` (default: "
                            "repro_obs_snapshot.json, or "
                            "$REPRO_OBS_SNAPSHOT)")
    stats.add_argument("--connect", metavar="HOST:PORT",
                       help="read the live metrics registry of a running "
                            "`repro serve` daemon instead of a snapshot "
                            "file")

    example = commands.add_parser(
        "example", help="write an editable example description file")
    example.add_argument("model", choices=_preset_keys(),
                         help="preset model to describe")
    example.add_argument("--output", type=Path, default=Path("vtrain.json"),
                         help="where to write the description")

    commands.add_parser("presets", help="list bundled model presets")
    return parser


def _add_workload_arguments(command: argparse.ArgumentParser) -> None:
    """Shared ``--workload`` flag family for predict and dse."""
    command.add_argument("--workload", default="training",
                         choices=["training", "inference"],
                         help="what the plan runs: a training iteration "
                              "(default) or a static serving batch "
                              "(prefill + decode phase graphs)")
    command.add_argument("--batch-size", type=int, default=None, metavar="N",
                         help="inference: concurrent requests per replica "
                              "(default: 32)")
    command.add_argument("--prompt-len", type=int, default=None, metavar="L",
                         help="inference: prompt tokens per request "
                              "(default: 512)")
    command.add_argument("--gen-len", type=int, default=None, metavar="G",
                         help="inference: generated tokens per request "
                              "(default: 128)")
    command.add_argument("--continuous-batching", action="store_true",
                         help="inference: model vLLM-style continuous "
                              "batching (decode attends the mean, not the "
                              "max, KV length)")


def _workload_from_args(args: argparse.Namespace) -> "InferenceWorkload | None":
    """The inference workload the flags describe, or None for training."""
    from repro.workload import InferenceWorkload

    inference_flags = (args.batch_size, args.prompt_len, args.gen_len)
    if args.workload != "inference":
        if any(flag is not None for flag in inference_flags) \
                or args.continuous_batching:
            raise ReproError(
                "--batch-size/--prompt-len/--gen-len/--continuous-batching "
                "require --workload inference")
        return None
    return InferenceWorkload(
        batch_size=args.batch_size if args.batch_size is not None else 32,
        prompt_len=args.prompt_len if args.prompt_len is not None else 512,
        gen_len=args.gen_len if args.gen_len is not None else 128,
        continuous_batching=args.continuous_batching)


def _preset_keys() -> list[str]:
    return sorted(name.lower().replace(" ", "-") for name in MODEL_ZOO)


def _preset_by_key(key: str) -> ModelConfig:
    for name, model in MODEL_ZOO.items():
        if name.lower().replace(" ", "-") == key:
            return model
    raise ReproError(f"unknown preset {key!r}")


def _preset_description(key: str) -> InputDescription:
    """An :class:`InputDescription` for one bundled preset.

    MT-NLG gets its published Table-I plan and training recipe; other
    presets get the same heuristic plan ``repro example`` writes.
    """
    key = PRESET_ALIASES.get(key, key)
    model = _preset_by_key(key)
    if model is MT_NLG_530B:
        plan = MT_NLG_BASELINE_PLANS[0]
        training = MT_NLG_TRAINING
    else:
        plan = ParallelismConfig(tensor=min(8, model.num_heads), data=4,
                                 pipeline=1)
        while model.num_heads % plan.tensor:
            plan = plan.replaced(tensor=plan.tensor // 2)
        training = (GPT3_TRAINING if key == "gpt-3-175b"
                    else TrainingConfig(global_batch_size=64,
                                        total_tokens=1_000_000_000))
    nodes = max(1, plan.total_gpus // 8)
    return InputDescription(model=model, system=multi_node(nodes),
                            plan=plan, training=training)


def _cmd_predict(args: argparse.Namespace) -> int:
    if (args.description is None) == (args.preset is None):
        raise ReproError(
            "predict needs a description file or --preset (not both)")
    if args.preset is not None:
        description = _preset_description(args.preset)
    else:
        description = InputDescription.load(args.description)
    description.validate()
    workload = _workload_from_args(args)
    if args.connect:
        if args.timing:
            raise ReproError(
                "--timing runs in-process; it is not available with "
                "--connect (the daemon's `stats` method reports "
                "serving latency)")
        return _predict_connected(args, description, workload)
    if args.trace:
        obs.enable()
    vtrain = VTrain(description.system,
                    granularity=Granularity(args.granularity),
                    check_memory_feasibility=not args.no_memory_check)
    if workload is not None:
        return _predict_inference(args, description, workload, vtrain)
    prediction = vtrain.predict(description.model, description.plan,
                                description.training,
                                record_timeline=args.trace is not None)
    print(f"model            : {description.model.describe()}")
    print(f"system           : {description.system.describe()}")
    print(f"plan             : {description.plan.describe()}")
    print(f"iteration time   : {prediction.iteration_time:.4f} s")
    print(f"utilization      : "
          f"{100 * prediction.gpu_compute_utilization:.2f} %")
    print(f"memory per GPU   : {prediction.memory_per_gpu / GIB:.2f} GiB")
    if args.timing:
        _print_timing(vtrain)
    if args.trace:
        payload = combined_trace(
            prediction.simulation,
            engine_events=obs.tracer.chrome_trace(),
            metadata={"model": description.model.describe(),
                      "plan": description.plan.describe(),
                      "granularity": args.granularity})
        write_trace(args.trace, payload)
        print(f"trace            : wrote "
              f"{len(payload['traceEvents'])} events to {args.trace}")
    if description.training.total_tokens:
        estimate = vtrain.estimate_training(description.model,
                                            description.plan,
                                            description.training)
        print(f"iterations       : {estimate.num_iterations:,}")
        print(f"training time    : {estimate.total_days:.2f} days")
        print(f"cost             : ${estimate.dollars_total:,.0f} "
              f"(${estimate.dollars_per_hour:,.0f}/hour)")
    return 0


def _predict_inference(args: argparse.Namespace,
                       description: InputDescription,
                       workload, vtrain: VTrain) -> int:
    """``predict --workload inference``: serving latency report."""
    prediction = vtrain.predict_inference(
        description.model, description.plan, workload,
        record_timeline=args.trace is not None)
    print(f"model            : {description.model.describe()}")
    print(f"system           : {description.system.describe()}")
    print(f"plan             : {description.plan.describe()}")
    print(f"workload         : inference batch={workload.batch_size} "
          f"prompt={workload.prompt_len} gen={workload.gen_len}"
          f"{' continuous' if workload.continuous_batching else ''}")
    print(f"TTFT (prefill)   : {prediction.prefill_time * 1e3:.2f} ms")
    print(f"TPOT (decode)    : {prediction.decode_step_time * 1e3:.3f} ms")
    print(f"decode tokens/s  : {prediction.tokens_per_second:,.0f} "
          f"({prediction.num_replicas} replica"
          f"{'s' if prediction.num_replicas != 1 else ''})")
    print(f"request latency  : {prediction.request_latency * 1e3:.1f} ms")
    print(f"memory per GPU   : {prediction.memory_per_gpu / GIB:.2f} GiB")
    rate = DEFAULT_PRICING.dollars_per_hour(prediction.num_gpus)
    print(f"cost             : "
          f"${prediction.cost_per_million_tokens(rate):.3f}/Mtok "
          f"(${rate:,.0f}/hour)")
    if args.timing:
        _print_timing(vtrain)
    if args.trace:
        payload = combined_trace(
            prediction.decode_simulation,
            engine_events=obs.tracer.chrome_trace(),
            metadata={"model": description.model.describe(),
                      "plan": description.plan.describe(),
                      "granularity": args.granularity,
                      "workload": "inference",
                      "phase": "decode",
                      "ttft_s": prediction.prefill_time})
        write_trace(args.trace, payload)
        print(f"trace            : wrote "
              f"{len(payload['traceEvents'])} decode-phase events to "
              f"{args.trace}")
    return 0


def _print_timing(vtrain: VTrain) -> None:
    """``predict --timing``: the last predict's phase breakdown (summed
    over the prefill and decode graphs of an inference prediction)."""
    timing = vtrain.last_predict_timing
    print("timing breakdown :")
    for phase, seconds in timing.phases().items():
        source = (f" ({timing.structure_source})"
                  if phase == "graph.structure_build_s" else "")
        print(f"  {phase:<23}: {seconds * 1e3:.2f} ms{source}")
    print(f"  {'total':<23}: {timing.total_s * 1e3:.2f} ms")


def _parse_endpoint(spec: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` endpoint spec."""
    host, separator, port = spec.rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ReproError(f"--connect expects HOST:PORT, got {spec!r}")
    return host, int(port)


def _predict_connected(args: argparse.Namespace,
                       description: InputDescription,
                       workload=None) -> int:
    """``predict --connect``: serve the request from a running daemon.

    An inference workload's serialised envelope is forwarded to the
    daemon unchanged — the daemon's parser is the only thing that
    interprets it.
    """
    import os

    from repro.obs.stitch import stitch_trace
    from repro.serve import ServeClient

    host, port = _parse_endpoint(args.connect)
    trace_id = obs.new_trace_id() if args.trace else None
    with ServeClient.connect(host, port) as client:
        payload = client.predict(description=description.to_dict(),
                                 granularity=args.granularity,
                                 zero_stage=None,
                                 workload=(workload.to_dict()
                                           if workload is not None else None),
                                 trace=args.trace is not None,
                                 trace_id=trace_id)
        client_spans = list(client.last_call_spans)
    print(f"model            : {description.model.describe()}")
    print(f"system           : {description.system.describe()}")
    print(f"plan             : {description.plan.describe()}")
    print(f"served by        : {host}:{port} "
          f"({payload['served']['source']})")
    if payload.get("workload") == "inference":
        print(f"workload         : inference batch={workload.batch_size} "
              f"prompt={workload.prompt_len} gen={workload.gen_len}"
              f"{' continuous' if workload.continuous_batching else ''}")
        print(f"TTFT (prefill)   : {payload['ttft_s'] * 1e3:.2f} ms")
        print(f"TPOT (decode)    : {payload['tpot_s'] * 1e3:.3f} ms")
        print(f"decode tokens/s  : {payload['tokens_per_s']:,.0f} "
              f"({payload['num_replicas']} replica"
              f"{'s' if payload['num_replicas'] != 1 else ''})")
        print(f"memory per GPU   : "
              f"{payload['memory_per_gpu'] / GIB:.2f} GiB")
    else:
        print(f"iteration time   : {payload['iteration_time']:.4f} s")
        print(f"utilization      : "
              f"{100 * payload['gpu_compute_utilization']:.2f} %")
        print(f"memory per GPU   : "
              f"{payload['memory_per_gpu'] / GIB:.2f} GiB")
    if args.trace:
        served = payload["served"]
        stitched = stitch_trace(
            trace_id=trace_id,
            client_spans=client_spans,
            server_spans=served.get("spans", []),
            client_pid=os.getpid(),
            server_pid=served.get("pid", 0),
            metadata={"model": description.model.describe(),
                      "plan": description.plan.describe(),
                      "endpoint": f"{host}:{port}",
                      "source": served["source"]})
        write_trace(args.trace, stitched)
        print(f"trace            : wrote "
              f"{len(stitched['traceEvents'])} stitched events to "
              f"{args.trace} (trace id {trace_id})")
    if workload is None and description.training.total_tokens:
        iterations = description.training.num_iterations(description.model)
        total_seconds = payload["iteration_time"] * iterations
        num_gpus = description.plan.total_gpus
        print(f"iterations       : {iterations:,}")
        print(f"training time    : "
              f"{total_seconds / SECONDS_PER_DAY:.2f} days")
        print(f"cost             : "
              f"${DEFAULT_PRICING.cost(num_gpus, total_seconds):,.0f} "
              f"(${DEFAULT_PRICING.dollars_per_hour(num_gpus):,.0f}/hour)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the prediction daemon until interrupted or shut down."""
    from repro.serve import PredictionService, ServeDaemon

    obs.enable()  # the serving tier exists to report latency metrics
    cache = (PredictionCache.load(args.cache)
             if args.cache and args.cache.exists() else PredictionCache())
    with contextlib.ExitStack() as stack:
        access_log = None
        if args.access_log is not None:
            access_log = (sys.stderr if str(args.access_log) == "-"
                          else stack.enter_context(open(
                              args.access_log, "a", encoding="utf-8")))
        service = PredictionService(cache=cache, access_log=access_log)
        try:
            daemon = ServeDaemon(service, host=args.host, port=args.port)
            host, port = daemon.address
            print(f"repro serve: listening on {host}:{port} "
                  f"(cache: {len(cache)} entries)", file=sys.stderr,
                  flush=True)
            try:
                daemon.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                daemon.server_close()
        finally:
            service.close()
            if args.cache:
                cache.save(args.cache)
                print(f"repro serve: saved {len(cache)} cache entries to "
                      f"{args.cache}", file=sys.stderr)
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    model = _preset_by_key(args.model)
    NetworkSpec.parse(args.network)  # reject bad specs before sweeping
    if args.top < 0:
        raise ConfigError(f"--top must be >= 0, got {args.top}")
    if args.metrics is not None:
        obs.enable()
    workload = _workload_from_args(args)
    training = TrainingConfig(global_batch_size=args.global_batch,
                              total_tokens=args.total_tokens)
    space = SearchSpace(max_tensor=args.max_tensor, max_data=args.max_data,
                        max_pipeline=args.max_pipeline,
                        micro_batch_sizes=tuple(args.micro_batches),
                        virtual_stages=tuple(args.virtual_stages))
    if workload is not None and tuple(args.virtual_stages) != (1,):
        raise ReproError("--virtual-stages applies to training sweeps only "
                         "(inference phase graphs are plain pipelines)")
    cache = (PredictionCache.load(args.cache)
             if args.cache and args.cache.exists() else PredictionCache())
    saved_at = None  # plans done at the last save; set by the cache scan

    def report(done: int, total: int) -> None:
        nonlocal saved_at
        if saved_at is None:
            saved_at = done
        elif args.cache and done - saved_at >= _CHECKPOINT_EVERY:
            cache.save(args.cache)
            saved_at = done
        if not args.quiet and total:
            print(f"\r  evaluated {done}/{total} plans", end="",
                  file=sys.stderr, flush=True)
            if done == total:
                print(file=sys.stderr)

    explorer = DesignSpaceExplorer(model, training,
                                   gpus_per_node=args.gpus_per_node,
                                   granularity=Granularity(args.granularity),
                                   network=args.network,
                                   zero_stage=args.zero_stage,
                                   workload=workload)
    result = explorer.explore(space=space, num_gpus=args.num_gpus,
                              max_gpus=args.max_gpus, workers=args.workers,
                              cache=cache, progress=report)
    if args.cache:
        cache.save(args.cache)
    if workload is not None:
        return _report_serving_dse(args, model, workload, result, cache)

    print(f"model            : {model.describe()}")
    print(f"search space     : {len(result.points)} plans "
          f"({result.num_feasible} feasible)")
    print(f"cache            : {cache.hits} hits, {cache.misses} misses, "
          f"{len(cache)} entries")
    structure = structure_cache_stats()
    print(f"structure cache  : {structure['hits']} hits, "
          f"{structure['misses']} misses, "
          f"{structure['evictions']} evictions, "
          f"{structure['entries']} entries")
    if result.num_feasible:
        fastest = result.best_by_iteration_time()
        cheapest = result.best_by_cost()
        print(f"fastest plan     : {fastest.plan.describe()} — "
              f"{fastest.iteration_time:.4f} s/iter on "
              f"{fastest.num_gpus} GPUs")
        print(f"cheapest plan    : {cheapest.plan.describe()} — "
              f"${cheapest.cost_per_iteration():.2f}/iter on "
              f"{cheapest.num_gpus} GPUs")
        print()
        print(f"top {args.top} by {args.sort}:")
        print(to_markdown(result, top=args.top, sort_by=args.sort))
    else:
        print("no feasible plans in the requested space")
    if args.csv:
        save_csv(result, args.csv)
        print(f"\nwrote {result.num_feasible} feasible points to {args.csv}")
    if args.metrics is not None:
        target = None if args.metrics == Path("") else args.metrics
        written = obs.save_snapshot(target)
        print()
        print("observability snapshot:")
        print(obs.format_snapshot(obs.snapshot()))
        print(f"saved metrics    : {written}")
    return 0


def _report_serving_dse(args: argparse.Namespace, model: ModelConfig,
                        workload, result, cache: PredictionCache) -> int:
    """Print the serving-sweep report: Pareto table over throughput
    and cost per million output tokens."""
    from repro.dse.report import save_serving_csv, to_serving_markdown

    print(f"model            : {model.describe()}")
    print(f"workload         : inference batch={workload.batch_size} "
          f"prompt={workload.prompt_len} gen={workload.gen_len}"
          f"{' continuous' if workload.continuous_batching else ''}")
    print(f"search space     : {len(result.points)} plans "
          f"({result.num_feasible} feasible)")
    print(f"cache            : {cache.hits} hits, {cache.misses} misses, "
          f"{len(cache)} entries")
    if result.num_feasible:
        frontier = result.serving_pareto_frontier()
        best = result.best_by_throughput()
        cheapest = min(result.feasible_points,
                       key=lambda p: p.cost_per_million_tokens())
        print(f"highest tokens/s : {best.plan.describe()} — "
              f"{best.tokens_per_s:,.0f} tok/s on {best.num_gpus} GPUs")
        print(f"cheapest $/Mtok  : {cheapest.plan.describe()} — "
              f"${cheapest.cost_per_million_tokens():.3f}/Mtok on "
              f"{cheapest.num_gpus} GPUs")
        print(f"pareto frontier  : {len(frontier)} plans "
              f"(tokens/s vs $/Mtok)")
        print()
        print(f"top {args.top} by {args.sort}:")
        sort_by = {"cost": "cost", "time": "latency"}[args.sort]
        print(to_serving_markdown(result, top=args.top, sort_by=sort_by))
    else:
        print("no feasible serving plans in the requested space")
    if args.csv:
        save_serving_csv(result, args.csv)
        print(f"\nwrote {result.num_feasible} feasible points to {args.csv}")
    if args.metrics is not None:
        target = None if args.metrics == Path("") else args.metrics
        written = obs.save_snapshot(target)
        print()
        print("observability snapshot:")
        print(obs.format_snapshot(obs.snapshot()))
        print(f"saved metrics    : {written}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.connect:
        from repro.serve import ServeClient

        host, port = _parse_endpoint(args.connect)
        with ServeClient.connect(host, port) as client:
            snap = client.metrics()["snapshot"]
        print(f"live daemon      : {host}:{port}")
        print(obs.format_snapshot(snap))
        return 0
    path = args.snapshot if args.snapshot else obs.default_snapshot_path()
    try:
        snap = obs.load_snapshot(path)
    except FileNotFoundError:
        raise ReproError(
            f"no metrics snapshot at {path} — run `repro dse ... "
            f"--metrics` first, or pass the snapshot path") from None
    print(f"snapshot         : {path}")
    print(obs.format_snapshot(snap))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    model = _preset_by_key(args.model)
    plan = ParallelismConfig(tensor=min(8, model.num_heads), data=4,
                             pipeline=1)
    while model.num_heads % plan.tensor:
        plan = plan.replaced(tensor=plan.tensor // 2)
    nodes = max(1, plan.total_gpus // 8)
    description = InputDescription(
        model=model, system=multi_node(nodes), plan=plan,
        training=TrainingConfig(global_batch_size=64,
                                total_tokens=1_000_000_000))
    description.save(args.output)
    print(f"wrote {args.output} — edit the plan/system and run:")
    print(f"  python -m repro predict {args.output}")
    return 0


def _cmd_presets(_args: argparse.Namespace) -> int:
    for name in sorted(MODEL_ZOO):
        print(f"{name.lower().replace(' ', '-'):<18} "
              f"{MODEL_ZOO[name].describe()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Commands that switch observability on (``serve``, ``predict
    --trace``, ``dse --metrics``) leave the caller's switch as they
    found it, so an in-process call does not turn spans and histograms
    on for whatever runs next.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"predict": _cmd_predict, "dse": _cmd_dse,
                "stats": _cmd_stats, "serve": _cmd_serve,
                "example": _cmd_example, "presets": _cmd_presets}
    was_enabled = obs.enabled()
    try:
        return handlers[args.command](args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        (obs.enable if was_enabled else obs.disable)()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

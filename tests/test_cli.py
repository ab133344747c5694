"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro import cli, obs
from repro.cli import _preset_description, main
from repro.config.description import InputDescription
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.presets import MT_NLG_530B
from repro.config.system import multi_node, single_node
from repro.dse.cache import PredictionCache
from repro.dse.explorer import DesignSpaceExplorer
from repro.graph.builder import Granularity
from repro.obs.export import load_trace
from repro.obs.schema import validate
from repro.obs.tracer import ENGINE_PID
from repro.serve import PredictionService

SCHEMA_DIR = Path(__file__).parent.parent / "schemas"


@pytest.fixture
def restore_obs():
    """Commands like ``--trace``/``--metrics`` enable the global obs
    switch; put it back so later tests see the default state."""
    was_enabled = obs.enabled()
    yield
    if was_enabled:
        obs.enable()
    else:
        obs.disable()
    obs.reset()


@pytest.fixture
def description_file(tmp_path, tiny_model, training):
    plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
    description = InputDescription(model=tiny_model, system=single_node(),
                                   plan=plan, training=training)
    path = tmp_path / "desc.json"
    description.save(path)
    return path


class TestPredict:
    def test_predict_prints_metrics(self, description_file, capsys):
        assert main(["predict", str(description_file)]) == 0
        out = capsys.readouterr().out
        assert "iteration time" in out
        assert "utilization" in out
        assert "training time" in out  # token budget present

    def test_predict_without_token_budget(self, tmp_path, tiny_model,
                                          capsys):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        description = InputDescription(
            model=tiny_model, system=single_node(), plan=plan,
            training=TrainingConfig(global_batch_size=16))
        path = tmp_path / "nobudget.json"
        description.save(path)
        assert main(["predict", str(path)]) == 0
        out = capsys.readouterr().out
        assert "training time" not in out

    def test_predict_granularity_flag(self, description_file, capsys):
        assert main(["predict", str(description_file),
                     "--granularity", "stage"]) == 0
        assert "iteration time" in capsys.readouterr().out

    def test_predict_timing_flag_prints_phase_breakdown(
            self, description_file, capsys):
        assert main(["predict", str(description_file), "--timing"]) == 0
        out = capsys.readouterr().out
        assert "timing breakdown" in out
        for phase in ("memory.check_s", "graph.structure_build_s",
                      "graph.duration_fill_s", "sim.replay_s", "total"):
            assert phase in out
        assert "built" in out or "cache hit" in out

    def test_predict_without_timing_flag_omits_breakdown(
            self, description_file, capsys):
        assert main(["predict", str(description_file)]) == 0
        assert "timing breakdown" not in capsys.readouterr().out

    def test_timing_includes_network_setup_phase(self, description_file,
                                                 capsys):
        # A cold predict spends real time constructing the network model
        # inside GraphBuilder; the breakdown must account for it (as the
        # graph.builder_init_s layer) rather than leave a gap between
        # the phases and the total.
        assert main(["predict", str(description_file), "--timing"]) == 0
        assert "graph.builder_init_s" in capsys.readouterr().out

    def test_predict_needs_description_xor_preset(self, description_file,
                                                  capsys):
        assert main(["predict"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["predict", str(description_file),
                     "--preset", "megatron-1.7b"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_predict_preset_writes_schema_valid_trace(self, tmp_path, capsys,
                                                      restore_obs):
        trace_path = tmp_path / "trace.json"
        was_enabled = obs.enabled()
        assert main(["predict", "--preset", "megatron-1.7b",
                     "--granularity", "stage",
                     "--trace", str(trace_path)]) == 0
        assert obs.enabled() == was_enabled
        out = capsys.readouterr().out
        assert "iteration time" in out
        assert "trace" in out
        payload = load_trace(trace_path)
        schema_path = SCHEMA_DIR / "chrome_trace.schema.json"
        validate(payload, json.loads(schema_path.read_text()))
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert ENGINE_PID in pids  # engine spans present
        assert any(pid >= 1000 for pid in pids)  # simulated devices too

    def test_preset_alias_resolves_to_published_mtnlg_plan(self):
        description = _preset_description("mtnlg")
        assert description.model is MT_NLG_530B
        plan = description.plan
        assert (plan.tensor, plan.data, plan.pipeline) == (8, 8, 35)

    def test_unknown_preset_fails_cleanly(self, capsys):
        assert main(["predict", "--preset", "not-a-model"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_description_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {}}))
        assert main(["predict", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["predict", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestDse:
    ARGS = ["dse", "megatron-1.7b", "--max-gpus", "4", "--global-batch", "8",
            "--max-tensor", "2", "--max-data", "2", "--max-pipeline", "2",
            "--micro-batches", "1", "--quiet"]

    def test_dse_prints_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "search space" in out
        assert "fastest plan" in out
        assert "cheapest plan" in out

    def test_dse_writes_cache_and_reuses_it(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        args = self.ARGS + ["--cache", str(cache)]
        assert main(args) == 0
        assert cache.exists()
        first = capsys.readouterr().out
        assert "0 hits" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 misses" in second

    def test_dse_corrupt_cache_fails_cleanly(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text("[1, 2]")
        assert main(self.ARGS + ["--cache", str(cache)]) == 1
        assert "error: prediction cache" in capsys.readouterr().err

    def test_dse_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "points.csv"
        assert main(self.ARGS + ["--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "tensor" in csv_path.read_text().splitlines()[0]

    @pytest.mark.parametrize("flag, value, named", [
        ("--top", "-2", "--top"), ("--gpus-per-node", "0", "gpus_per_node"),
        ("--gpus-per-node", "-8", "gpus_per_node")])
    def test_dse_rejects_out_of_range_values_before_sweeping(
            self, monkeypatch, capsys, flag, value, named):
        """``--top -2`` used to sweep, then print all but two rows;
        ``--gpus-per-node 0`` ended in a ZeroDivisionError traceback."""
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(DesignSpaceExplorer, "explore", no_sweep)
        assert main(self.ARGS + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_dse_top_zero_prints_no_rows(self, capsys):
        assert main(self.ARGS + ["--top", "0"]) == 0
        table = capsys.readouterr().out.split("top 0 by cost:\n")[1]
        assert len(table.strip().splitlines()) == 2  # header and rule only

    def test_dse_requires_a_gpu_budget(self, capsys):
        with pytest.raises(SystemExit):
            main(["dse", "megatron-1.7b"])

    def test_dse_network_flag_sweeps_topology_backend(self, capsys):
        assert main(self.ARGS + ["--network", "rail"]) == 0
        out = capsys.readouterr().out
        assert "fastest plan" in out

    def test_dse_network_flag_accepts_fat_tree_ratio(self, capsys):
        assert main(self.ARGS + ["--network", "fat-tree:4"]) == 0
        assert "fastest plan" in capsys.readouterr().out

    def test_dse_rejects_bad_network_spec(self, capsys):
        assert main(self.ARGS + ["--network", "torus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_dse_reports_structure_cache_line(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "structure cache" in out
        assert "evictions" in out

    def test_dse_metrics_round_trips_through_stats(self, tmp_path, capsys,
                                                   restore_obs):
        snapshot = tmp_path / "metrics.json"
        was_enabled = obs.enabled()
        assert main(self.ARGS + ["--metrics", str(snapshot)]) == 0
        assert obs.enabled() == was_enabled
        out = capsys.readouterr().out
        assert "observability snapshot" in out
        assert "saved metrics" in out
        assert "hit rates" in out
        assert snapshot.exists()
        assert main(["stats", str(snapshot)]) == 0
        stats_out = capsys.readouterr().out
        assert f"snapshot         : {snapshot}" in stats_out
        assert "counters" in stats_out
        # the sweep replays plans, so throughput quantiles are populated
        assert "sim.replay_tasks_per_s" in stats_out
        assert "p50=" in stats_out and "p99=" in stats_out

    @pytest.mark.parametrize("command", [
        ["dse", "megatron-1.7b", "--max-gpus", "16"],
        ["serve", "--port", "0"],
    ], ids=["dse", "serve"])
    def test_cache_directory_fails_before_starting(
            self, tmp_path, capsys, monkeypatch, command):
        """A ``--cache`` path that is a directory used to end in an
        IsADirectoryError traceback; now it names the file, and neither
        the sweep nor the daemon starts."""
        def started(*args, **kwargs):
            raise AssertionError("started despite an unwritable cache")

        monkeypatch.setattr(DesignSpaceExplorer, "explore", started)
        monkeypatch.setattr("repro.serve.ServeDaemon", started)
        assert main(command + ["--cache", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: prediction cache {tmp_path} cannot be written: "
            f"{tmp_path} is a directory\n")


class TestUnwritableOutputPaths:
    """An output path that cannot be written ends in one ``error:`` line
    and exit 1, never a traceback (these used to end in
    IsADirectoryError or FileExistsError tracebacks, the last after the
    whole sweep). ``repro dse`` checks its ``--cache``, ``--csv`` and
    ``--metrics`` paths before any plan is evaluated, and ``repro
    serve`` its ``--cache`` path before the daemon binds."""

    DSE = ["dse", "megatron-1.7b", "--max-gpus", "4", "--quiet"]
    BELOW = "cannot be written: {file} is not a directory"
    IS_DIR = "cannot be written: {dir} is a directory"

    @pytest.mark.parametrize("command,message", [
        pytest.param(DSE + ["--cache", "{file}/c.json"],
                     "prediction cache {file}/c.json " + BELOW,
                     id="dse-cache"),
        pytest.param(DSE + ["--csv", "{dir}"], "CSV file {dir} " + IS_DIR,
                     id="dse-csv"),
        pytest.param(DSE + ["--csv", "{file}/p.csv"],
                     "CSV file {file}/p.csv " + BELOW, id="dse-csv-below-file"),
        pytest.param(DSE + ["--metrics", "{dir}"],
                     "metrics snapshot {dir} " + IS_DIR, id="dse-metrics"),
        pytest.param(DSE + ["--metrics", "{file}/m.json"],
                     "metrics snapshot {file}/m.json " + BELOW,
                     id="dse-metrics-below-file"),
        pytest.param(DSE + ["--metrics", ""],
                     "metrics snapshot {dir} " + IS_DIR,
                     id="dse-metrics-default-path"),
        pytest.param(DSE + ["--metrics", "."],
                     "metrics snapshot . cannot be written: . is a directory",
                     id="dse-metrics-dot"),
        pytest.param(["predict", "--preset", "megatron-1.7b", "--granularity",
                      "stage", "--trace", "{dir}"], None, id="predict-trace"),
        pytest.param(["example", "megatron-1.7b", "--output", "{dir}"], None,
                     id="example-output"),
        pytest.param(["serve", "--port", "0", "--cache", "{file}/c.json"],
                     "prediction cache {file}/c.json " + BELOW,
                     id="serve-cache"),
    ])
    def test_fails_with_one_error_line(self, tmp_path, capsys, monkeypatch,
                                       restore_obs, command, message):
        regular = tmp_path / "plain.json"
        regular.write_text("")
        directory = tmp_path / "out"
        directory.mkdir()
        # `--metrics ""` means the default snapshot path; `--metrics .`
        # names the working directory.
        monkeypatch.setenv(obs.ENV_SNAPSHOT, str(directory))
        monkeypatch.chdir(tmp_path)
        if message is not None:
            def started(*args, **kwargs):
                raise AssertionError("started despite an unwritable path")

            monkeypatch.setattr(DesignSpaceExplorer, "explore", started)
            monkeypatch.setattr("repro.serve.ServeDaemon", started)
        argv = [arg.format(file=regular, dir=directory) for arg in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if message is not None:
            assert err == ("error: "
                           + message.format(file=regular, dir=directory)
                           + "\n")
        assert regular.read_text() == ""
        assert list(directory.iterdir()) == []

    def test_missing_parents_of_every_output_are_created(self, tmp_path,
                                                         capsys,
                                                         restore_obs):
        """The rule's other half: below a missing directory, each output
        is written after the sweep, its parents created."""
        new = tmp_path / "new" / "sub"
        assert main(self.DSE + ["--cache", str(new / "c.json"),
                                "--csv", str(new / "p.csv"),
                                "--metrics", str(new / "m.json")]) == 0
        capsys.readouterr()
        assert sorted(path.name for path in new.iterdir()) == [
            "c.json", "m.json", "p.csv"]


class TestCheckpointResume:
    """``repro dse --cache`` is the sweep checkpoint: the CLI saves the
    file every ``_CHECKPOINT_EVERY`` newly evaluated plans and at the
    end, so a rerun resumes an interrupted sweep."""

    @pytest.fixture(params=[
        pytest.param([], id="training"),
        pytest.param(["--workload", "inference", "--batch-size", "4",
                      "--prompt-len", "64", "--gen-len", "16"],
                     id="serving")])
    def args(self, request):
        """A training sweep's or a serving sweep's command line; both
        run through the same sweep loop and the same ``--cache``."""
        return ["dse", "megatron-1.7b", "--quiet", *request.param]

    @staticmethod
    def summary(out: str) -> tuple[int, int, int]:
        """``(plans, cache hits, cache misses)`` of a sweep's report."""
        plans = re.search(r"search space +: (\d+) plans", out).group(1)
        hits, misses = re.search(r"cache +: (\d+) hits, (\d+) misses",
                                 out).groups()
        return int(plans), int(hits), int(misses)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_prefix_sweep_is_served_from_the_file(self, args, tmp_path,
                                                  capsys, workers):
        cache = tmp_path / "sweep.json"
        assert main(args + ["--max-gpus", "8", "--cache", str(cache)]) == 0
        prefix, _, _ = self.summary(capsys.readouterr().out)
        resumed, fresh = tmp_path / "resumed.csv", tmp_path / "fresh.csv"
        assert main(args + ["--max-gpus", "16", "--workers", workers,
                            "--cache", str(cache),
                            "--csv", str(resumed)]) == 0
        total, hits, misses = self.summary(capsys.readouterr().out)
        assert (hits, misses) == (prefix, total - prefix)
        assert 0 < prefix < total
        assert main(args + ["--max-gpus", "16", "--csv", str(fresh)]) == 0
        assert resumed.read_text() == fresh.read_text()

    def test_parallel_sweep_file_serves_the_whole_rerun(self, args,
                                                        tmp_path, capsys):
        """A finished ``--workers 2`` sweep leaves every plan in the
        file: the serial rerun evaluates nothing and prints the same
        points."""
        cache = tmp_path / "done.json"
        first, rerun = tmp_path / "first.csv", tmp_path / "rerun.csv"
        assert main(args + ["--max-gpus", "16", "--workers", "2",
                            "--cache", str(cache),
                            "--csv", str(first)]) == 0
        total, hits, _ = self.summary(capsys.readouterr().out)
        assert hits == 0
        assert main(args + ["--max-gpus", "16", "--cache", str(cache),
                            "--csv", str(rerun)]) == 0
        assert self.summary(capsys.readouterr().out) == (total, total, 0)
        assert rerun.read_text() == first.read_text()

    @pytest.mark.parametrize("quiet", [True, False],
                             ids=["quiet", "progress"])
    def test_file_is_saved_at_the_cadence_and_at_the_end(
            self, args, tmp_path, capsys, monkeypatch, quiet):
        """The periodic saves ride on the progress callback, which the
        CLI installs whether or not ``--quiet`` hides the progress
        line."""
        if not quiet:
            args = [arg for arg in args if arg != "--quiet"]
        monkeypatch.setattr(cli, "_CHECKPOINT_EVERY", 4)
        sizes = []
        original = PredictionCache.save

        def recording_save(self, path):
            sizes.append(len(self))
            original(self, path)

        monkeypatch.setattr(PredictionCache, "save", recording_save)
        cache = tmp_path / "cadence.json"
        assert main(args + ["--max-gpus", "8", "--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        assert ("evaluated" in captured.err) is not quiet
        total, _, _ = self.summary(captured.out)
        *periodic, final = sizes
        assert final == total == len(PredictionCache.load(cache))
        assert len(periodic) > 2 and periodic[0] >= 4
        assert all(later - earlier >= 4
                   for earlier, later in zip(periodic, periodic[1:]))
        assert periodic[-1] <= total

    def test_interrupted_sweep_resumes_from_its_last_save(
            self, args, tmp_path, capsys, monkeypatch):
        """A sweep killed mid-way leaves the plans saved so far on
        disk; the rerun serves them and evaluates only the rest."""
        class Killed(Exception):
            pass

        monkeypatch.setattr(cli, "_CHECKPOINT_EVERY", 4)
        original = DesignSpaceExplorer.evaluate_batch
        evaluated = []

        def dying(self, plans):
            if len(evaluated) == 10:
                raise Killed
            evaluated.append(len(plans))
            return original(self, plans)

        monkeypatch.setattr(DesignSpaceExplorer, "evaluate_batch", dying)
        cache = tmp_path / "interrupted.json"
        args = args + ["--max-gpus", "8", "--cache", str(cache)]
        with pytest.raises(Killed):
            main(args)
        saved = len(PredictionCache.load(cache))
        assert 4 <= saved <= sum(evaluated)
        monkeypatch.setattr(DesignSpaceExplorer, "evaluate_batch", original)
        assert main(args) == 0
        total, hits, misses = self.summary(capsys.readouterr().out)
        assert (hits, misses) == (saved, total - saved)


class TestRemovedSettings:
    """One setting per decision: each removed flag fails in argparse
    (exit 2) and each removed keyword raises TypeError."""

    @pytest.mark.parametrize("call, error", [
        pytest.param(lambda: main(["serve", "--port", "0",
                                   "--batch-window-ms", "1"]),
                     SystemExit, id="serve --batch-window-ms"),
        pytest.param(lambda: main(["serve", "--port", "0",
                                   "--max-batch", "8"]),
                     SystemExit, id="serve --max-batch"),
        pytest.param(lambda: main(["serve", "--port", "0",
                                   "--granularity", "stage"]),
                     SystemExit, id="serve --granularity"),
        pytest.param(lambda: main(["dse", "megatron-1.7b", "--max-gpus",
                                   "16", "--checkpoint", "x"]),
                     SystemExit, id="dse --checkpoint"),
        pytest.param(lambda: PredictionService(batch_window_s=0.002), TypeError,
                     id="PredictionService(batch_window_s)"),
        pytest.param(lambda: PredictionService(max_batch=64), TypeError,
                     id="PredictionService(max_batch)"),
        pytest.param(lambda: PredictionService(
            default_granularity=Granularity.OPERATOR), TypeError,
            id="PredictionService(default_granularity)"),
        pytest.param(lambda: DesignSpaceExplorer(
            MT_NLG_530B, TrainingConfig(global_batch_size=8),
            system_factory=multi_node), TypeError,
            id="DesignSpaceExplorer(system_factory)"),
        pytest.param(lambda: DesignSpaceExplorer(
            MT_NLG_530B, TrainingConfig(global_batch_size=8)).explore(
            plans=[], checkpoint_path="x"), TypeError,
            id="explore(checkpoint_path)"),
    ])
    def test_removed_setting_is_refused(self, capsys, monkeypatch, call,
                                        error):
        def serve_forever(*args, **kwargs):
            raise AssertionError("the daemon started")

        monkeypatch.setattr("repro.serve.ServeDaemon", serve_forever)
        with pytest.raises(error) as excinfo:
            call()
        if error is SystemExit:
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        else:
            assert "unexpected keyword argument" in str(excinfo.value)


class TestStats:
    def test_stats_missing_snapshot_fails_cleanly(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--metrics" in err

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", None],
                             ids=["invalid-json", "array", "directory"])
    def test_stats_bad_snapshot_fails_cleanly(self, tmp_path, capsys,
                                              content):
        """Invalid JSON, a non-object and a directory used to end in a
        traceback; now each names the file."""
        path = tmp_path / "snap.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        assert main(["stats", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: metrics snapshot")
        assert str(path) in err


class TestExampleAndPresets:
    def test_example_round_trips_through_predict(self, tmp_path, capsys):
        output = tmp_path / "example.json"
        assert main(["example", "megatron-1.7b",
                     "--output", str(output)]) == 0
        assert output.exists()
        assert main(["predict", str(output),
                     "--granularity", "stage"]) == 0
        out = capsys.readouterr().out
        assert "iteration time" in out

    def test_presets_lists_models(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "mt-nlg-530b" in out
        assert "gpt-3-175b" in out


class TestInferenceCli:
    def test_predict_inference_prints_serving_report(
            self, description_file, capsys):
        assert main(["predict", str(description_file),
                     "--workload", "inference", "--batch-size", "8",
                     "--prompt-len", "128", "--gen-len", "64"]) == 0
        out = capsys.readouterr().out
        assert "TTFT (prefill)" in out
        assert "TPOT (decode)" in out
        assert "decode tokens/s" in out
        assert "Mtok" in out

    def test_inference_flags_require_inference_workload(
            self, description_file, capsys):
        assert main(["predict", str(description_file),
                     "--batch-size", "8"]) == 1
        err = capsys.readouterr().err
        assert "--workload inference" in err

    def test_predict_inference_timing_prints_breakdown(
            self, description_file, capsys):
        # The breakdown sums both phase graphs (prefill + decode); its
        # phases must cover the total up to bookkeeping and rounding.
        assert main(["predict", str(description_file),
                     "--workload", "inference", "--timing"]) == 0
        out = capsys.readouterr().out
        assert "TTFT (prefill)" in out and "timing breakdown" in out
        rows = dict(re.findall(r"^  (\w[\w. ]*?)\s*: ([\d.]+) ms", out,
                               re.MULTILINE))
        phases = ("memory.check_s", "graph.builder_init_s",
                  "graph.structure_build_s", "graph.duration_fill_s",
                  "sim.replay_s")
        assert set(rows) == set(phases) | {"total"}
        accounted = sum(float(rows[phase]) for phase in phases)
        total = float(rows["total"])
        assert 0.7 * total <= accounted <= total + 0.03

    def test_predict_inference_writes_decode_trace(
            self, description_file, tmp_path, capsys, restore_obs):
        trace_path = tmp_path / "decode.json"
        assert main(["predict", str(description_file),
                     "--workload", "inference",
                     "--trace", str(trace_path)]) == 0
        trace = load_trace(trace_path)
        categories = {event.get("cat") for event in trace["traceEvents"]
                      if event.get("ph") == "X"}
        assert "decode" in categories
        assert trace["otherData"]["workload"] == "inference"
        assert trace["otherData"]["phase"] == "decode"

    def test_dse_inference_prints_pareto_summary(self, capsys):
        assert main(["dse", "gpt-3-175b", "--workload", "inference",
                     "--batch-size", "8", "--prompt-len", "128",
                     "--gen-len", "64", "--max-gpus", "16",
                     "--max-data", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "tok/s" in out
        assert "$/Mtok" in out
        assert "pareto" in out.lower()

    def test_dse_inference_resumes_from_checkpoint(self, tmp_path, capsys):
        """A serving sweep's ``--cache`` file is its checkpoint: the
        rerun serves every plan from it."""
        args = ["dse", "megatron-1.7b", "--workload", "inference",
                "--max-gpus", "4", "--max-pipeline", "2", "--quiet",
                "--cache", str(tmp_path / "serving.cache.json")]
        assert main(args) == 0
        assert "0 hits" in capsys.readouterr().out
        assert main(args) == 0
        assert " 0 misses" in capsys.readouterr().out

    def test_dse_inference_writes_serving_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "serving.csv"
        assert main(["dse", "gpt-3-175b", "--workload", "inference",
                     "--batch-size", "8", "--prompt-len", "128",
                     "--gen-len", "64", "--max-gpus", "16",
                     "--max-data", "2", "--quiet",
                     "--csv", str(csv_path)]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert "tokens_per_s" in header
        assert "cost_per_million_tokens_usd" in header

    def test_dse_inference_rejects_virtual_stages(self, capsys):
        assert main(["dse", "gpt-3-175b", "--workload", "inference",
                     "--batch-size", "8", "--prompt-len", "128",
                     "--gen-len", "64", "--max-gpus", "8",
                     "--virtual-stages", "2"]) == 1

"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro import obs
from repro.cli import _preset_description, main
from repro.config.description import InputDescription
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.presets import MT_NLG_530B
from repro.config.system import single_node
from repro.obs.export import load_trace
from repro.obs.schema import validate
from repro.obs.tracer import ENGINE_PID

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
        for phase in ("memory check", "structure", "duration fill",
                      "replay", "total"):
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
        # "builder init" layer) rather than leave a gap between the
        # phases and the total.
        assert main(["predict", str(description_file), "--timing"]) == 0
        assert "builder init" in capsys.readouterr().out

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
        assert main(["predict", "--preset", "megatron-1.7b",
                     "--granularity", "stage",
                     "--trace", str(trace_path)]) == 0
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
        assert main(self.ARGS + ["--metrics", str(snapshot)]) == 0
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
        rows = dict(re.findall(r"^  (\w[\w ]*?)\s*: ([\d.]+) ms", out,
                               re.MULTILINE))
        phases = ("memory check", "builder init", "structure build",
                  "duration fill", "replay")
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
        """Regression: serving sweeps ignored --checkpoint whenever a
        cache was passed, which `repro dse` always does."""
        args = ["dse", "megatron-1.7b", "--workload", "inference",
                "--max-gpus", "4", "--max-pipeline", "2", "--quiet",
                "--checkpoint", str(tmp_path / "serving.ck.json")]
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

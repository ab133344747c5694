"""Tests for the perf-store harness of the gated benches.

``benchmarks/_helpers.py`` owns the one store layout, the baseline
reader, the bound check and the recorder that ``bench_sim_speed``,
``bench_inference_dse``, ``bench_service_throughput`` and
``bench_serve_telemetry`` share. It is loaded by path, the way
``tests/test_schemas.py`` loads ``validate_artifacts.py``; every store
here lives under ``tmp_path``, never the committed ones.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from repro import obs

HELPERS = Path(__file__).parent.parent / "benchmarks" / "_helpers.py"
_spec = importlib.util.spec_from_file_location("bench_helpers", HELPERS)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses resolve the module by name
_spec.loader.exec_module(bench)

Failed = pytest.fail.Exception


def write_store(path: Path, entries: list[dict], *, name: str = "t",
                schema: int = bench.BENCH_SCHEMA) -> bytes:
    """Write a one-trajectory store gating metric ``m``; returns its
    bytes."""
    store = {"schema": schema, "benchmark": "t",
             "trajectories": {name: {"gated_metrics": ["m"],
                                     "entries": entries}}}
    path.write_text(json.dumps(store, indent=1) + "\n")
    return path.read_bytes()


def trajectory(path: Path, *bounds) -> "bench.Trajectory":
    return bench.Trajectory(path, "t", bounds or (bench.Bound("m", floor=0),))


@pytest.fixture
def obs_state():
    was = obs.enabled()
    yield
    (obs.enable if was else obs.disable)()


class TestRecord:
    def test_truncation_keeps_the_baseline_and_the_newest(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        write_store(path, [{"quick": False, "m": -1.0}])
        gate = trajectory(path)
        runs = bench.TRAJECTORY_LIMIT + 5
        for run in range(runs):
            gate.record({"quick": True, "m": float(run)})
        entries = json.loads(path.read_text())["trajectories"]["t"]["entries"]
        assert len(entries) == bench.TRAJECTORY_LIMIT
        assert entries[0] == {"quick": False, "m": -1.0}
        assert [entry["m"] for entry in entries[1:]] \
            == [float(run) for run in range(runs - bench.TRAJECTORY_LIMIT + 1,
                                            runs)]

    @pytest.mark.parametrize("entry", [{"quick": True}, {"m": 1.0}])
    def test_an_entry_without_quick_or_a_gated_metric_is_refused(
            self, tmp_path, entry):
        path = tmp_path / "BENCH_t.json"
        before = write_store(path, [{"quick": False, "m": 1.0}])
        with pytest.raises(Failed, match="entry lacks"):
            trajectory(path).record(entry)
        assert path.read_bytes() == before


class TestBaseline:
    @pytest.mark.parametrize("name, entries", [
        ("other", [{"quick": False, "m": 1.0}]), ("t", [])],
        ids=["no trajectory", "no entries"])
    def test_a_missing_baseline_fails_and_writes_nothing(self, tmp_path,
                                                         name, entries):
        path = tmp_path / "BENCH_t.json"
        before = write_store(path, entries, name=name)
        gate = trajectory(path)
        with pytest.raises(Failed, match="holds no committed baseline"):
            gate.baseline()
        with pytest.raises(Failed, match="holds no committed baseline"):
            gate.record({"quick": True, "m": 1.0})
        assert path.read_bytes() == before

    def test_a_store_of_another_version_fails_and_writes_nothing(
            self, tmp_path):
        """A store in an older layout used to be replaced in memory by
        an empty one, which the next write saved over the committed
        baselines."""
        path = tmp_path / "BENCH_t.json"
        before = write_store(path, [{"quick": False, "m": 1.0}], schema=2)
        gate = trajectory(path)
        for attempt in (gate.baseline,
                        lambda: gate.record({"quick": True, "m": 1.0}),
                        lambda: bench.load_store(path)):
            with pytest.raises(Failed, match="store schema 2 but this "
                                             "harness reads schema 3"):
                attempt()
        assert path.read_bytes() == before

    def test_gated_metrics_must_match_the_bounds(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        before = write_store(path, [{"quick": False, "m": 1.0, "n": 1.0}])
        gate = trajectory(path, bench.Bound("m", floor=0),
                          bench.Bound("n", floor=0))
        with pytest.raises(Failed, match=r"\['m'\] as 't'"):
            gate.baseline()
        assert path.read_bytes() == before

    def test_a_missing_store_reads_empty(self, tmp_path):
        path = tmp_path / "BENCH_fresh.json"
        assert bench.load_store(path) == {
            "schema": bench.BENCH_SCHEMA, "benchmark": "fresh",
            "trajectories": {}}
        with pytest.raises(Failed, match="holds no committed baseline"):
            trajectory(path).baseline()
        assert not path.exists()


class TestBounds:
    def check(self, bound, value, baseline=None):
        gate = bench.Trajectory(Path("unused"), "t", (bound,))
        gate.check({"m": baseline}, m=value)

    def test_lower_is_better_holds_exactly_at_the_bound(self):
        bound = bench.Bound("m", "lower", headroom=1.25)
        limit = 0.5 * 1.25
        self.check(bound, limit, baseline=0.5)
        with pytest.raises(Failed, match="exceeds 1.25x"):
            self.check(bound, math.nextafter(limit, math.inf), baseline=0.5)

    def test_higher_is_better_holds_exactly_at_the_bound(self):
        bound = bench.Bound("m", headroom=1.25)
        limit = 10.0 / 1.25
        self.check(bound, limit, baseline=10.0)
        with pytest.raises(Failed, match="more than 1.25x below"):
            self.check(bound, math.nextafter(limit, -math.inf),
                       baseline=10.0)

    def test_a_floor_holds_exactly_at_the_floor(self):
        bound = bench.Bound("m", floor=3.0)
        self.check(bound, 3.0)
        with pytest.raises(Failed, match="below its floor 3.0"):
            self.check(bound, math.nextafter(3.0, -math.inf))

    def test_every_broken_bound_is_named(self):
        gate = bench.Trajectory(Path("unused"), "t", (
            bench.Bound("a", floor=2.0),
            bench.Bound("b", "lower", headroom=1.0)))
        with pytest.raises(Failed, match="a 1 is below.*; b 3 exceeds"):
            gate.check({"b": 1.0}, a=1.0, b=3.0)

    def test_an_obs_disabled_bound_is_not_applied_while_obs_is_on(
            self, obs_state):
        bound = bench.Bound("m", "lower", headroom=1.03, obs_off_only=True)
        obs.enable()
        self.check(bound, 100.0, baseline=1.0)
        obs.disable()
        with pytest.raises(Failed, match="exceeds 1.03x"):
            self.check(bound, 100.0, baseline=1.0)

    @pytest.mark.parametrize("kwargs", [
        {}, {"floor": 1.0, "headroom": 1.0},
        {"better": "lower", "floor": 1.0},
        {"better": "lowr", "headroom": 1.25}])
    def test_a_malformed_bound_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="bound on 'm'"):
            bench.Bound("m", **kwargs)


class TestQuickMode:
    @pytest.mark.parametrize("value", ["", "0", "false", "off", "OFF",
                                       " 0 "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_QUICK", value)
        assert bench.quick_mode() is False

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_QUICK", raising=False)
        assert bench.quick_mode() is False

    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_QUICK", value)
        assert bench.quick_mode() is True

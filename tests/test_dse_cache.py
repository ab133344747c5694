"""Unit tests for the persistent prediction cache."""

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      RecomputeMode, TrainingConfig)
from repro.config.system import single_node
from repro.dse.cache import (CACHE_FORMAT_VERSION, PredictionCache,
                             fingerprint)
from repro.dse.explorer import DesignPoint
from repro.errors import ConfigError
from repro.graph.builder import Granularity


@pytest.fixture
def plan():
    return ParallelismConfig(tensor=2, data=2, pipeline=2)


@pytest.fixture
def point(plan):
    return DesignPoint(plan=plan, feasible=True, iteration_time=0.25,
                       utilization=0.4, memory_gib=10.0)


A_TRAINING = TrainingConfig(global_batch_size=16)


def a_key(model, plan, training=A_TRAINING):
    return fingerprint(model, plan, training, single_node(),
                       Granularity.STAGE)


class TestFingerprint:
    def test_deterministic(self, tiny_model, plan):
        assert a_key(tiny_model, plan) == a_key(tiny_model, plan)

    def test_equal_configs_share_keys(self, tiny_model, plan):
        clone = ModelConfig(**tiny_model.to_dict())
        assert a_key(clone, plan) == a_key(tiny_model, plan)

    def test_any_component_changes_the_key(self, tiny_model, plan):
        base = a_key(tiny_model, plan)
        assert a_key(tiny_model.scaled(num_layers=8), plan) != base
        assert a_key(tiny_model, plan.replaced(data=4)) != base
        # The training recipe determines micro-batch scheduling and
        # memory feasibility, so it must be part of the key.
        assert a_key(tiny_model, plan,
                     TrainingConfig(global_batch_size=32)) != base
        assert a_key(tiny_model, plan,
                     TrainingConfig(global_batch_size=16,
                                    total_tokens=1)) != base
        system = single_node()
        assert fingerprint(tiny_model, plan, A_TRAINING,
                           system.with_gpus(16), Granularity.STAGE) != base
        assert fingerprint(tiny_model, plan, A_TRAINING, system,
                           Granularity.OPERATOR) != base


class TestCacheAccounting:
    def test_miss_then_hit(self, tiny_model, plan, point):
        cache = PredictionCache()
        key = a_key(tiny_model, plan)
        assert cache.get(key) is None
        cache.put(key, point)
        assert cache.get(key) == point
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1}
        assert key in cache
        assert len(cache) == 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, tiny_model, plan, point):
        cache = PredictionCache()
        key = a_key(tiny_model, plan)
        cache.put(key, point)
        infeasible = DesignPoint(plan=plan.replaced(data=8), feasible=False,
                                 infeasible_reason="out of memory")
        other = a_key(tiny_model, plan.replaced(data=8))
        cache.put(other, infeasible)
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = PredictionCache.load(path)
        assert len(loaded) == 2
        assert loaded.get(key) == point
        assert loaded.get(other) == infeasible

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": %d, "entries": {}}'
                        % (CACHE_FORMAT_VERSION + 1))
        with pytest.raises(ConfigError):
            PredictionCache.load(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            PredictionCache.load(path)

    @pytest.mark.parametrize("text", [
        "[]", "null", "3", '"cache"',
        '{"version": true, "entries": {}}',
        '{"version": 1, "entries": []}',
        '{"version": 1, "entries": {"k": [1, 2]}}',
        '{"version": 1, "entries": {"k": {"plan": "2x2x2", '
        '"feasible": true}}}',
        '{"version": 1, "entries": {"k": {"plan": {"tensor": 1, '
        '"data": 1, "pipeline": 1}, "feasible": "no"}}}',
    ])
    def test_malformed_payload_rejected(self, tmp_path, text):
        """Regression: these raised AttributeError/TypeError/ValueError,
        or (``"feasible": "no"``) loaded as a feasible point."""
        path = tmp_path / "cache.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            PredictionCache.load(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError):
            PredictionCache.load(path)

    def test_merge_counts_new_entries(self, tiny_model, plan, point):
        first = PredictionCache()
        first.put(a_key(tiny_model, plan), point)
        second = PredictionCache()
        second.put(a_key(tiny_model, plan), point)
        second.put(a_key(tiny_model, plan.replaced(data=4)),
                   DesignPoint(plan=plan.replaced(data=4), feasible=False,
                               infeasible_reason="nope"))
        assert first.merge(second) == 1
        assert len(first) == 2


class TestExplorerUsesCache:
    def test_serial_explore_populates_cache(self, tiny_model):
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.dse.space import SearchSpace
        training = TrainingConfig(global_batch_size=8)
        explorer = DesignSpaceExplorer(tiny_model, training)
        cache = PredictionCache()
        space = SearchSpace(max_tensor=2, max_data=2, max_pipeline=2,
                            micro_batch_sizes=(1,))
        result = explorer.explore(max_gpus=4, space=space, cache=cache)
        assert len(cache) == len(result.points)
        assert cache.misses == len(result.points)
        assert cache.hits == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=8)


def _valid_payload() -> dict:
    """A cache holding a training, an infeasible and a serving point."""
    plan = ParallelismConfig(tensor=2, data=2, pipeline=2)
    cache = PredictionCache()
    cache.put("train", DesignPoint(plan=plan, feasible=True,
                                   iteration_time=0.25, utilization=0.4,
                                   memory_gib=10.0))
    cache.put("oom", DesignPoint(plan=plan.replaced(data=8), feasible=False,
                                 infeasible_reason="out of memory"))
    cache.put("serve", DesignPoint(plan=plan, feasible=True,
                                   iteration_time=0.01, memory_gib=3.0,
                                   workload="inference", tokens_per_s=900.0,
                                   ttft_s=0.2, tpot_s=0.01))
    return json.loads(json.dumps(cache.to_dict()))


def _field_paths(payload) -> list[tuple]:
    """Every replaceable location in a payload, as a key path."""
    paths = []
    for key, value in payload.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key,) + sub for sub in _field_paths(value))
    return paths


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _assert_loads_typed_or_rejects(payload) -> None:
    """Loading raises ConfigError or yields points of declared types."""
    try:
        cache = PredictionCache.from_dict(payload)
    except ConfigError:
        return
    for key in cache.to_dict()["entries"]:
        point = cache.get(key)
        assert type(point.feasible) is bool
        for name in ("iteration_time", "utilization", "memory_gib",
                     "tokens_per_s", "ttft_s", "tpot_s"):
            assert _is_number(getattr(point, name)), name
        assert isinstance(point.infeasible_reason, str)
        assert isinstance(point.workload, str)
        plan = point.plan
        for name in ("tensor", "data", "pipeline", "micro_batch_size",
                     "virtual_stages", "num_gradient_buckets"):
            value = getattr(plan, name)
            assert isinstance(value, int) and not isinstance(value, bool)
        assert type(plan.gradient_bucketing) is bool
        assert type(plan.sequence_parallel) is bool
        assert isinstance(plan.schedule, PipelineSchedule)
        assert isinstance(plan.recompute, RecomputeMode)


class TestCorruptFiles:
    """Every --cache/--checkpoint file goes through PredictionCache
    loading: a corrupt one must fail loudly, never answer wrong."""

    @given(JSON_VALUES)
    def test_arbitrary_json_loads_typed_or_raises(self, value):
        _assert_loads_typed_or_rejects(value)

    @given(st.data(), JSON_VALUES)
    def test_one_replaced_field_loads_typed_or_raises(self, data, value):
        payload = _valid_payload()
        path = data.draw(st.sampled_from(_field_paths(payload)))
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        _assert_loads_typed_or_rejects(copy.deepcopy(payload))

    def test_valid_payload_loads(self):
        assert len(PredictionCache.from_dict(_valid_payload())) == 3

"""Tests for the parallel, cache-aware sweep engine.

Covers the determinism contract (parallel == serial, bit-identical),
cache hit/miss accounting, checkpoint interrupt/resume, and the progress
callback.
"""

import pytest

from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.dse.cache import PredictionCache
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.parallel import ParallelExplorer
from repro.dse.space import SearchSpace, enumerate_plans
from repro.errors import ConfigError
from repro.sim.estimator import VTrain


@pytest.fixture
def model():
    return ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                       num_heads=8, vocab_size=32_000, name="sweep-model")


@pytest.fixture
def training():
    return TrainingConfig(global_batch_size=16)


@pytest.fixture
def space():
    return SearchSpace(max_tensor=4, max_data=4, max_pipeline=4,
                       micro_batch_sizes=(1, 2))


@pytest.fixture
def serial_result(model, training, space):
    return DesignSpaceExplorer(model, training).explore(max_gpus=8,
                                                        space=space)


class TestParity:
    def test_parallel_matches_serial_bit_identical(self, model, training,
                                                   space, serial_result):
        engine = ParallelExplorer(model, training, workers=2)
        result = engine.explore(max_gpus=8, space=space)
        assert result.points == serial_result.points

    def test_explore_workers_kwarg_delegates(self, model, training, space,
                                             serial_result):
        explorer = DesignSpaceExplorer(model, training)
        result = explorer.explore(max_gpus=8, space=space, workers=2)
        assert result.points == serial_result.points

    def test_single_worker_matches_serial(self, model, training, space,
                                          serial_result):
        engine = ParallelExplorer(model, training, workers=1)
        result = engine.explore(max_gpus=8, space=space)
        assert result.points == serial_result.points

    def test_points_follow_enumeration_order(self, model, training, space):
        plans = list(enumerate_plans(model, training, max_gpus=8,
                                     space=space))
        engine = ParallelExplorer(model, training, workers=2, chunk_size=3)
        result = engine.explore(plans=plans)
        assert [p.plan for p in result.points] == plans


class TestCacheAccounting:
    def test_cold_sweep_is_all_misses(self, model, training, space):
        cache = PredictionCache()
        engine = ParallelExplorer(model, training, workers=1, cache=cache)
        result = engine.explore(max_gpus=8, space=space)
        assert cache.misses == len(result.points)
        assert cache.hits == 0
        assert len(cache) == len(result.points)

    def test_warm_sweep_skips_all_predict_calls(self, model, training,
                                                space, monkeypatch):
        cache = PredictionCache()
        ParallelExplorer(model, training, workers=1,
                         cache=cache).explore(max_gpus=8, space=space)
        entries = len(cache)
        cache.hits = cache.misses = 0

        calls = []
        original = VTrain.predict_prepared

        def counting_predict(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        # Every DSE prediction replays through predict_prepared.
        monkeypatch.setattr(VTrain, "predict_prepared", counting_predict)
        engine = ParallelExplorer(model, training, workers=1, cache=cache)
        result = engine.explore(max_gpus=8, space=space)
        assert not calls  # every point served from the cache
        assert cache.hits == len(result.points) == entries
        assert cache.misses == 0

    def test_changed_training_recipe_misses_stale_cache(self, model, space):
        """Regression: the fingerprint must include the training recipe,
        or a sweep with a different global batch would silently reuse
        predictions computed for the old one."""
        cache = PredictionCache()
        first = TrainingConfig(global_batch_size=16)
        second = TrainingConfig(global_batch_size=8)
        ParallelExplorer(model, first, workers=1,
                         cache=cache).explore(max_gpus=8, space=space)
        cache.hits = cache.misses = 0
        result = ParallelExplorer(model, second, workers=1,
                                  cache=cache).explore(max_gpus=8,
                                                       space=space)
        assert cache.hits == 0
        assert cache.misses == len(result.points)

    def test_warm_parallel_sweep_serves_from_cache(self, model, training,
                                                   space):
        cache = PredictionCache()
        cold = ParallelExplorer(model, training, workers=2, cache=cache)
        expected = cold.explore(max_gpus=8, space=space)
        cache.hits = cache.misses = 0
        warm = ParallelExplorer(model, training, workers=2, cache=cache)
        result = warm.explore(max_gpus=8, space=space)
        assert result.points == expected.points
        assert cache.hits == len(result.points)
        assert cache.misses == 0


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_from_checkpoint(self, model, training,
                                                       space, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        plans = list(enumerate_plans(model, training, max_gpus=8,
                                     space=space))
        # First run covers only a prefix of the space (an "interrupted"
        # sweep that checkpointed before dying).
        partial = ParallelExplorer(model, training, workers=1,
                                   checkpoint_path=checkpoint)
        partial.explore(plans=plans[:5])
        assert checkpoint.exists()

        resumed_cache = PredictionCache()
        resumed = ParallelExplorer(model, training, workers=1,
                                   cache=resumed_cache,
                                   checkpoint_path=checkpoint)
        result = resumed.explore(plans=plans)
        # The checkpointed prefix is served from disk, the rest computed.
        assert resumed_cache.hits == 5
        assert resumed_cache.misses == len(plans) - 5
        serial = DesignSpaceExplorer(model, training).explore(plans=plans)
        assert result.points == serial.points

    def test_checkpoint_written_mid_sweep(self, model, training, space,
                                          tmp_path):
        checkpoint = tmp_path / "mid.json"
        engine = ParallelExplorer(model, training, workers=1,
                                  checkpoint_path=checkpoint,
                                  checkpoint_every=1, chunk_size=4)
        result = engine.explore(max_gpus=8, space=space)
        saved = PredictionCache.load(checkpoint)
        assert len(saved) == len(result.points)

    def test_full_checkpoint_round_trip(self, model, training, space,
                                        tmp_path, serial_result):
        checkpoint = tmp_path / "done.json"
        ParallelExplorer(model, training, workers=2,
                         checkpoint_path=checkpoint).explore(max_gpus=8,
                                                             space=space)
        rerun_cache = PredictionCache()
        rerun = ParallelExplorer(model, training, workers=1,
                                 cache=rerun_cache,
                                 checkpoint_path=checkpoint)
        result = rerun.explore(max_gpus=8, space=space)
        assert rerun_cache.misses == 0
        assert result.points == serial_result.points


class TestProgress:
    def test_progress_reaches_total(self, model, training, space):
        seen = []
        engine = ParallelExplorer(model, training, workers=1, chunk_size=4,
                                  progress=lambda done, total:
                                  seen.append((done, total)))
        result = engine.explore(max_gpus=8, space=space)
        total = len(result.points)
        assert seen[-1] == (total, total)
        dones = [done for done, _ in seen]
        assert dones == sorted(dones)
        assert all(t == total for _, t in seen)

    def test_progress_threads_through_explore(self, model, training, space):
        seen = []
        explorer = DesignSpaceExplorer(model, training)
        explorer.explore(max_gpus=8, space=space,
                         progress=lambda done, total:
                         seen.append((done, total)))
        assert seen and seen[-1][0] == seen[-1][1]


class TestValidation:
    def test_rejects_bad_worker_count(self, model, training):
        with pytest.raises(ConfigError):
            ParallelExplorer(model, training, workers=0)

    def test_rejects_bad_chunk_size(self, model, training):
        with pytest.raises(ConfigError):
            ParallelExplorer(model, training, workers=1, chunk_size=0)

    def test_rejects_bad_checkpoint_cadence(self, model, training):
        with pytest.raises(ConfigError):
            ParallelExplorer(model, training, workers=1, checkpoint_every=0)


class TestStructurallyInvalidPlans:
    def test_invalid_plan_becomes_infeasible_row_in_parallel_sweep(
            self, model, training):
        # micro-batch 64 cannot divide the 16-sequence per-replica batch;
        # the resulting ConfigError must not abort the sweep.
        bad = ParallelismConfig(tensor=1, data=1, pipeline=1,
                                micro_batch_size=64)
        good = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        engine = ParallelExplorer(model, training, workers=2)
        result = engine.explore(plans=[bad, good])
        assert not result.points[0].feasible
        assert result.points[0].infeasible_reason
        assert result.points[1].feasible

"""Tests for the sweep loop's worker, cache and checkpoint options.

Covers the determinism contract (every combination of ``workers``,
``cache``, ``checkpoint_path`` and ``progress`` returns the serial
sweep's points, bit-identical), cache hit/miss accounting, checkpoint
interrupt/resume, and the progress callback — each for a training
explorer and a serving explorer, which share one sweep loop.
"""

import concurrent.futures
import itertools
import os

import pytest

from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.dse import explorer as explorer_module
from repro.dse.cache import PredictionCache
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.space import SearchSpace
from repro.errors import ConfigError
from repro.sim.estimator import VTrain
from repro.workload import InferenceWorkload

WORKLOAD = InferenceWorkload(batch_size=4, prompt_len=64, gen_len=16)


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


@pytest.fixture(params=["training", "serving"])
def make_explorer(request, model, training):
    """Builds fresh explorers of one kind: a training sweep, or a serving
    sweep of the same model (a prefill + decode graph per plan)."""
    if request.param == "training":
        return lambda: DesignSpaceExplorer(model, training)
    return lambda: DesignSpaceExplorer(model, None, workload=WORKLOAD)


@pytest.fixture
def serial_result(make_explorer, space):
    return make_explorer().explore(max_gpus=8, space=space)


class TestParity:
    def test_parallel_matches_serial_bit_identical(self, make_explorer,
                                                   space, serial_result):
        result = make_explorer().explore(max_gpus=8, space=space, workers=2)
        assert result.points == serial_result.points

    def test_single_worker_matches_serial(self, make_explorer, space,
                                          serial_result):
        result = make_explorer().explore(max_gpus=8, space=space, workers=1)
        assert result.points == serial_result.points

    def test_points_follow_enumeration_order(self, make_explorer,
                                             serial_result):
        plans = [point.plan for point in serial_result.points]
        result = make_explorer().explore(plans=plans, workers=2)
        assert [p.plan for p in result.points] == plans

    @pytest.mark.parametrize(
        "workers,use_cache,use_checkpoint,use_progress",
        [combo for combo in itertools.product((1, 2), (False, True),
                                              (False, True), (False, True))
         if combo[0] == 1 or combo[1:] in ((False,) * 3, (True,) * 3)])
    def test_every_option_combination_matches_serial(
            self, make_explorer, space, serial_result, tmp_path, workers,
            use_cache, use_checkpoint, use_progress):
        seen = []
        result = make_explorer().explore(
            max_gpus=8, space=space, workers=workers,
            cache=PredictionCache() if use_cache else None,
            checkpoint_path=tmp_path / "ck.json" if use_checkpoint else None,
            progress=((lambda done, total: seen.append(done))
                      if use_progress else None))
        assert result.points == serial_result.points
        assert bool(seen) == use_progress


class TestCacheAccounting:
    def test_cold_sweep_is_all_misses(self, make_explorer, space):
        cache = PredictionCache()
        result = make_explorer().explore(max_gpus=8, space=space,
                                         cache=cache)
        assert cache.misses == len(result.points)
        assert cache.hits == 0
        assert len(cache) == len(result.points)

    def test_warm_sweep_skips_all_predict_calls(self, make_explorer, space,
                                                monkeypatch):
        cache = PredictionCache()
        make_explorer().explore(max_gpus=8, space=space, cache=cache)
        entries = len(cache)
        cache.hits = cache.misses = 0

        calls = []
        original = VTrain.predict_prepared

        def counting_predict(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        # Every DSE prediction replays through predict_prepared.
        monkeypatch.setattr(VTrain, "predict_prepared", counting_predict)
        result = make_explorer().explore(max_gpus=8, space=space,
                                         cache=cache)
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
        DesignSpaceExplorer(model, first).explore(max_gpus=8, space=space,
                                                  cache=cache)
        cache.hits = cache.misses = 0
        result = DesignSpaceExplorer(model, second).explore(
            max_gpus=8, space=space, cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(result.points)

    def test_changed_workload_misses_stale_cache(self, model, space):
        """The serving twin: a different inference workload must not
        reuse predictions computed for the old one."""
        cache = PredictionCache()
        DesignSpaceExplorer(model, None, workload=WORKLOAD).explore(
            max_gpus=8, space=space, cache=cache)
        cache.hits = cache.misses = 0
        longer = InferenceWorkload(batch_size=4, prompt_len=64, gen_len=32)
        result = DesignSpaceExplorer(model, None, workload=longer).explore(
            max_gpus=8, space=space, cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(result.points)

    def test_warm_parallel_sweep_serves_from_cache(self, make_explorer,
                                                   space):
        cache = PredictionCache()
        expected = make_explorer().explore(max_gpus=8, space=space,
                                           workers=2, cache=cache)
        cache.hits = cache.misses = 0
        result = make_explorer().explore(max_gpus=8, space=space,
                                         workers=2, cache=cache)
        assert result.points == expected.points
        assert cache.hits == len(result.points)
        assert cache.misses == 0

    def test_no_cache_computes_no_fingerprints(self, make_explorer, space,
                                               monkeypatch):
        def fail(self, plan):
            raise AssertionError("fingerprinted without a cache")

        monkeypatch.setattr(DesignSpaceExplorer, "fingerprint_for", fail)
        assert make_explorer().explore(max_gpus=8, space=space).points


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_from_checkpoint(self, make_explorer,
                                                       serial_result,
                                                       tmp_path):
        checkpoint = tmp_path / "sweep.json"
        plans = [point.plan for point in serial_result.points]
        # First run covers only a prefix of the space (an "interrupted"
        # sweep that checkpointed before dying).
        make_explorer().explore(plans=plans[:5], checkpoint_path=checkpoint)
        assert checkpoint.exists()

        resumed_cache = PredictionCache()
        result = make_explorer().explore(plans=plans, cache=resumed_cache,
                                         checkpoint_path=checkpoint)
        # The checkpointed prefix is served from disk, the rest computed.
        assert resumed_cache.hits == 5
        assert resumed_cache.misses == len(plans) - 5
        assert result.points == serial_result.points

    def test_full_checkpoint_round_trip(self, make_explorer, space,
                                        tmp_path, serial_result):
        checkpoint = tmp_path / "done.json"
        make_explorer().explore(max_gpus=8, space=space, workers=2,
                                checkpoint_path=checkpoint)
        rerun_cache = PredictionCache()
        result = make_explorer().explore(max_gpus=8, space=space,
                                         cache=rerun_cache,
                                         checkpoint_path=checkpoint)
        assert rerun_cache.misses == 0
        assert result.points == serial_result.points

    def test_checkpoint_saved_at_cadence_and_end(self, make_explorer, space,
                                                 tmp_path, monkeypatch):
        """The checkpoint is saved once ``_CHECKPOINT_EVERY`` plans have
        been evaluated since the last save, and again at the end."""
        monkeypatch.setattr(explorer_module, "_CHECKPOINT_EVERY", 4)
        saved_sizes = []
        original = PredictionCache.save

        def recording_save(self, path):
            saved_sizes.append(len(self))
            original(self, path)

        monkeypatch.setattr(PredictionCache, "save", recording_save)
        checkpoint = tmp_path / "cadence.json"
        result = make_explorer().explore(max_gpus=8, space=space,
                                         checkpoint_path=checkpoint)
        total = len(result.points)
        assert saved_sizes[-1] == total
        assert len(saved_sizes) > 2
        assert saved_sizes[0] < total
        assert saved_sizes == sorted(saved_sizes)
        assert len(PredictionCache.load(checkpoint)) == total


class TestProgress:
    def test_progress_reaches_total(self, make_explorer, space):
        seen = []
        result = make_explorer().explore(
            max_gpus=8, space=space,
            progress=lambda done, total: seen.append((done, total)))
        total = len(result.points)
        assert seen[-1] == (total, total)
        dones = [done for done, _ in seen]
        assert dones == sorted(dones)
        assert len(dones) > 2
        assert all(t == total for _, t in seen)

    def test_progress_threads_through_explore(self, make_explorer, space):
        seen = []
        make_explorer().explore(max_gpus=8, space=space, workers=2,
                                progress=lambda done, total:
                                seen.append((done, total)))
        assert seen and seen[-1][0] == seen[-1][1]


class TestWorkerProcesses:
    def test_serving_sweep_runs_on_worker_processes(self, model, space,
                                                    monkeypatch):
        """Regression: serving sweeps used to ignore ``workers``."""
        serial = DesignSpaceExplorer(model, None, workload=WORKLOAD).explore(
            max_gpus=8, space=space)
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        in_process = []
        original = DesignSpaceExplorer.evaluate_batch

        def recording_evaluate_batch(self, plans):
            in_process.append(os.getpid())
            return original(self, plans)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        monkeypatch.setattr(DesignSpaceExplorer, "evaluate_batch",
                            recording_evaluate_batch)
        result = DesignSpaceExplorer(model, None, workload=WORKLOAD).explore(
            max_gpus=8, space=space, workers=2)
        assert pools == [2]
        assert not in_process  # every group ran in a worker process
        assert result.points == serial.points


class TestValidation:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_bad_worker_count(self, make_explorer, space, workers):
        with pytest.raises(ConfigError, match="workers"):
            make_explorer().explore(max_gpus=8, space=space,
                                    workers=workers)


class TestStructurallyInvalidPlans:
    def test_invalid_plan_becomes_infeasible_row_in_parallel_sweep(
            self, model, training):
        # micro-batch 64 cannot divide the 16-sequence per-replica batch;
        # the resulting ConfigError must not abort the sweep.
        bad = ParallelismConfig(tensor=1, data=1, pipeline=1,
                                micro_batch_size=64)
        good = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        result = DesignSpaceExplorer(model, training).explore(
            plans=[bad, good], workers=2)
        assert not result.points[0].feasible
        assert result.points[0].infeasible_reason
        assert result.points[1].feasible

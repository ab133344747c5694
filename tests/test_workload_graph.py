"""Tests for the prefill/decode phase graphs and the training goldens.

The refactor's load-bearing claims:

* **training is bit-identical** — graphs, fingerprints, iteration
  times, and utilizations match byte-for-byte goldens captured before
  the workload layer landed, at every granularity;
* a **prefill graph is exactly the forward-only subgraph** of the
  matching training graph (same labels, devices, streams, durations —
  only the compute ``kind`` differs);
* a **decode graph** is a single-token forward step whose latency is
  monotone in KV-cache depth and batch size;
* workload-tagged fingerprints never collide across workloads or
  phases, so the structure cache can never serve a prefill structure
  for a training predict (or vice versa);
* decode-phase timelines round-trip exactly through the Chrome-trace
  exporter, with ``prefill``/``decode`` as event categories.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest
from graph_oracle import build_graph
from hypothesis import given
from hypothesis import strategies as st

from repro.config.parallelism import ParallelismConfig
from repro.config.system import single_node
from repro.errors import ConfigError
from repro.graph.builder import (Granularity, StructureKey,
                                 clear_structure_cache)
from repro.obs.export import events_from_trace, simulation_trace_events
from repro.sim.estimator import VTrain
from repro.workload import (DECODE, INFERENCE_PHASES, PREFILL,
                            InferenceWorkload, TrainingWorkload)

# ---------------------------------------------------------------------------
# Goldens captured at the pre-workload HEAD (tiny model, B=16 training,
# one A100 node). Keys: plan name -> granularity -> (iteration_time,
# gpu_compute_utilization, graph sha256, task count). Any drift here is
# a behaviour change in the training path, which this PR promises not
# to make.
# ---------------------------------------------------------------------------
GOLDEN_PLANS = {
    "tp2dp2pp2": ParallelismConfig(tensor=2, data=2, pipeline=2,
                                   micro_batch_size=2),
    "tp1dp1pp4": ParallelismConfig(tensor=1, data=1, pipeline=4,
                                   micro_batch_size=4),
    "tp2dp1pp2v2": ParallelismConfig(tensor=2, data=1, pipeline=2,
                                     micro_batch_size=2, virtual_stages=2),
}

GOLDENS = {
    ("tp2dp2pp2", Granularity.KERNEL): (
        0.0019234877649131857, 0.15934950892867497,
        "433381226aaa65da1122e48c66aedc621e183771bbeb194cae25f28a4752b149",
        722),
    ("tp2dp2pp2", Granularity.OPERATOR): (
        0.0019234877649131846, 0.15934950892867508,
        "5c1da55cde6bce4e8e8ac7857df41be15d04be2b75720de8bf1710b1b9d395d1",
        162),
    ("tp2dp2pp2", Granularity.STAGE): (
        0.0019234877649131868, 0.1593495089286749,
        "640fd2771b4b4db8a145f0e2ae76a3115975556cc3fb78933e5702171b0150c0",
        32),
    ("tp1dp1pp4", Granularity.KERNEL): (
        0.0035623909944771178, 0.17207927554522653,
        "84a34f16d79dfcf313b1bfcb01caf96426b95ec29c0796db512b8bf2839fb6fe",
        668),
    ("tp1dp1pp4", Granularity.OPERATOR): (
        0.0035623909944771056, 0.17207927554522712,
        "f0409a85e663454b7cd6883e0703de52bf2938fa089ce1f17bff1f2978bbfbf2",
        108),
    ("tp1dp1pp4", Granularity.STAGE): (
        0.0035623909944771078, 0.172079275545227,
        "fda196c4d49e5ebd62ae9b0c61190b229947e29c66015ec0e2cf830e777b7810",
        60),
    ("tp2dp1pp2v2", Granularity.KERNEL): (
        0.0031419682269907016, 0.1951049842810125,
        "c55c07ab64ffb947b8d51b3ab74d6cbe26bd46b9b9295780cc46cd775fecf80b",
        1466),
    ("tp2dp1pp2v2", Granularity.OPERATOR): (
        0.003141968226990694, 0.195104984281013,
        "7e90a450b1444188c20807182da6db1001c13433ffab7f19a2d6fe80a2ef7802",
        346),
    ("tp2dp1pp2v2", Granularity.STAGE): (
        0.0031419682269906916, 0.1951049842810131,
        "e91ccd80f6c761a6a9662cafd855c7c90bfafadfb3d75e609cecdd53603cfd81",
        114),
}


def graph_digest(graph) -> str:
    """Canonical hash of everything structural + timed in a graph."""
    rows = [(node.task_id, node.device, node.stream, node.kind, node.label,
             repr(node.duration), tuple(node.children))
            for node in graph.nodes]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


@pytest.fixture(autouse=True)
def clean_structure_cache():
    """Workload/phase keying is itself under test here; don't let a
    structure cached by another test module mask a collision."""
    clear_structure_cache()
    yield
    clear_structure_cache()


@pytest.fixture
def workload() -> InferenceWorkload:
    return InferenceWorkload(batch_size=8, prompt_len=128, gen_len=64)


@pytest.fixture
def plan() -> ParallelismConfig:
    return ParallelismConfig(tensor=2, data=2, pipeline=2,
                             micro_batch_size=2)


def make_vtrain(granularity: Granularity = Granularity.OPERATOR) -> VTrain:
    return VTrain(single_node(), granularity=granularity,
                  check_memory_feasibility=False)


# ---------------------------------------------------------------------------
# Training stays bit-identical
# ---------------------------------------------------------------------------
class TestTrainingGoldens:
    @pytest.mark.parametrize("plan_name,granularity",
                             list(GOLDENS), ids=lambda v: str(v))
    def test_training_graph_and_prediction_match_golden(
            self, tiny_model, training, plan_name, granularity):
        expect_time, expect_util, expect_digest, expect_tasks = (
            GOLDENS[(plan_name, granularity)])
        vtrain = make_vtrain(granularity)
        plan = GOLDEN_PLANS[plan_name]
        graph = build_graph(vtrain, tiny_model, plan, training)
        assert len(graph.nodes) == expect_tasks
        assert graph_digest(graph) == expect_digest
        estimate = vtrain.predict(tiny_model, plan, training)
        assert estimate.iteration_time == expect_time
        assert estimate.gpu_compute_utilization == expect_util

    def test_training_workload_dispatch_is_bit_identical(
            self, tiny_model, training, plan):
        """``predict(workload=TrainingWorkload(t))`` is the classic
        path, not a parallel implementation."""
        vtrain = make_vtrain()
        direct = vtrain.predict(tiny_model, plan, training)
        via_workload = vtrain.predict(
            tiny_model, plan, workload=TrainingWorkload(training))
        assert via_workload.iteration_time == direct.iteration_time
        assert (via_workload.gpu_compute_utilization
                == direct.gpu_compute_utilization)
        assert via_workload.memory_per_gpu == direct.memory_per_gpu

    def test_predict_without_training_or_workload_rejected(
            self, tiny_model, plan):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            make_vtrain().predict(tiny_model, plan)

    def test_training_fingerprint_carries_no_workload_tag(
            self, tiny_model, training, plan):
        fingerprint = str(StructureKey.of(tiny_model, plan, training,
                                          Granularity.OPERATOR))
        assert "wl=" not in fingerprint and "ph=" not in fingerprint


# ---------------------------------------------------------------------------
# Prefill == training forward subgraph
# ---------------------------------------------------------------------------
def task_rows(structure, labels=None) -> Counter:
    """Multiset of (label, device, stream, duration) for a structure,
    optionally restricted to a label set. ``kind`` deliberately
    excluded: it is the one field allowed to differ."""
    rows: Counter = Counter()
    for label, device, stream, duration in zip(
            structure.label, structure.device.tolist(), structure.stream,
            structure.duration.tolist()):
        if labels is not None and label not in labels:
            continue
        rows[(label, device, stream, repr(duration))] += 1
    return rows


class TestPrefillEquivalence:
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_prefill_is_the_forward_subgraph_of_training(
            self, tiny_model, training, plan, workload, granularity):
        """Same labels, devices, streams, and durations as the training
        graph's forward tasks — at every granularity. (The workload's
        proxy batch 8*d=16 matches the training fixture and prompt_len
        matches seq_length, so the graphs are directly comparable.)"""
        vtrain = make_vtrain(granularity)
        prefill = vtrain.prepare(tiny_model, plan, None,
                                 workload=workload,
                                 phase=PREFILL).structure
        train = vtrain.prepare(tiny_model, plan, training).structure
        prefill_labels = set(prefill.label)
        assert (task_rows(prefill)
                == task_rows(train, labels=prefill_labels))
        assert prefill.num_tasks < train.num_tasks

    def test_prefill_compute_kind_is_the_phase_tag(
            self, tiny_model, plan, workload):
        structure = make_vtrain().prepare(tiny_model, plan, None,
                                          workload=workload,
                                          phase=PREFILL).structure
        kinds = set(structure.kinds)
        assert PREFILL in kinds
        assert "compute" not in kinds

    @pytest.mark.parametrize("phase", INFERENCE_PHASES)
    def test_no_backward_optimizer_or_gradient_tasks(
            self, tiny_model, plan, workload, phase):
        structure = make_vtrain().prepare(tiny_model, plan, None,
                                          workload=workload,
                                          phase=phase).structure
        assert not set(structure.kinds) & {"compute", "dp_allreduce",
                                           "weight_update"}
        labels = " ".join(structure.label)
        assert "bucket" not in labels

    def test_inference_rejects_virtual_stages(self, tiny_model, workload):
        interleaved = ParallelismConfig(tensor=1, data=1, pipeline=2,
                                        micro_batch_size=2,
                                        virtual_stages=2)
        with pytest.raises(ConfigError):
            make_vtrain().prepare(tiny_model, interleaved, None,
                                  workload=workload, phase=PREFILL)


# ---------------------------------------------------------------------------
# Decode graph shape and latency model
# ---------------------------------------------------------------------------
class TestDecodeGraph:
    def test_decode_kinds(self, tiny_model, plan, workload):
        structure = make_vtrain().prepare(tiny_model, plan, None,
                                          workload=workload,
                                          phase=DECODE).structure
        assert DECODE in set(structure.kinds)
        assert "compute" not in set(structure.kinds)

    def test_decode_is_cheaper_than_prefill(self, tiny_model, plan,
                                            workload):
        """One generated token costs less than ingesting the prompt."""
        prediction = make_vtrain().predict_inference(tiny_model, plan,
                                                     workload)
        assert 0 < prediction.decode_step_time < prediction.prefill_time
        assert prediction.time_to_first_token == prediction.prefill_time
        assert prediction.time_per_output_token == (
            prediction.decode_step_time)

    def test_decode_latency_monotone_in_kv_depth(self, tiny_model, plan):
        """Deeper KV caches mean larger attention reads: TPOT must be
        non-decreasing in prompt length, all else equal."""
        vtrain = make_vtrain()
        times = [vtrain.predict_inference(
            tiny_model, plan,
            InferenceWorkload(batch_size=8, prompt_len=prompt,
                              gen_len=64)).decode_step_time
            for prompt in (32, 128, 512, 2048)]
        assert times == sorted(times)
        assert times[-1] > times[0]

    def test_decode_latency_monotone_in_batch_size(self, tiny_model):
        vtrain = make_vtrain()
        times = []
        for batch in (2, 8, 32):
            plan = ParallelismConfig(tensor=2, data=1, pipeline=2,
                                     micro_batch_size=batch)
            times.append(vtrain.predict_inference(
                tiny_model, plan,
                InferenceWorkload(batch_size=batch, prompt_len=128,
                                  gen_len=64)).decode_step_time)
        assert times == sorted(times)
        assert times[-1] > times[0]

    def test_continuous_batching_shrinks_decode_latency(
            self, tiny_model, plan):
        """Steady-state (mean-depth) decode is cheaper than a static
        batch gated by its deepest step."""
        vtrain = make_vtrain()
        static = vtrain.predict_inference(
            tiny_model, plan, InferenceWorkload(
                batch_size=8, prompt_len=128, gen_len=512))
        continuous = vtrain.predict_inference(
            tiny_model, plan, InferenceWorkload(
                batch_size=8, prompt_len=128, gen_len=512,
                continuous_batching=True))
        assert continuous.decode_step_time < static.decode_step_time
        # Prefill ignores generation depth entirely.
        assert continuous.prefill_time == static.prefill_time

    @given(replicas=st.integers(1, 8))
    def test_replicas_scale_throughput_not_latency(self, replicas):
        """The vLLM trade-off, half one: replicas multiply tokens/s and
        leave per-token latency untouched."""
        from repro.config.model import ModelConfig
        model = ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                            num_heads=8, vocab_size=32_000, name="tiny")
        workload = InferenceWorkload(batch_size=8, prompt_len=128,
                                     gen_len=64)
        vtrain = VTrain(single_node(), check_memory_feasibility=False)
        plan = ParallelismConfig(tensor=1, data=replicas, pipeline=1,
                                 micro_batch_size=8)
        base_plan = ParallelismConfig(tensor=1, data=1, pipeline=1,
                                      micro_batch_size=8)
        scaled = vtrain.predict_inference(model, plan, workload)
        base = vtrain.predict_inference(model, base_plan, workload)
        assert scaled.decode_step_time == base.decode_step_time
        assert scaled.tokens_per_second == pytest.approx(
            replicas * base.tokens_per_second)


# ---------------------------------------------------------------------------
# Fingerprints: workloads and phases never collide
# ---------------------------------------------------------------------------
class TestWorkloadFingerprints:
    def test_phases_and_training_all_distinct(self, tiny_model, training,
                                              plan, workload):
        fingerprints = {
            "training": str(StructureKey.of(
                tiny_model, plan, training, Granularity.OPERATOR)),
            PREFILL: str(StructureKey.of(
                tiny_model, plan, workload.training_proxy(plan.data),
                Granularity.OPERATOR, workload=workload, phase=PREFILL)),
            DECODE: str(StructureKey.of(
                tiny_model, plan, workload.training_proxy(plan.data),
                Granularity.OPERATOR, workload=workload, phase=DECODE)),
        }
        assert len(set(fingerprints.values())) == 3
        assert f"ph={PREFILL}" in fingerprints[PREFILL]
        assert f"ph={DECODE}" in fingerprints[DECODE]

    def test_more_replicas_reuse_the_decode_structure(self, tiny_model,
                                                      workload):
        """Replicas never reach a phase graph's topology: a decode
        predict at d=2 after the same plan at d=1 is a structure-cache
        hit, and predicts bit-identically to a cold compile."""
        single = ParallelismConfig(tensor=2, data=1, pipeline=2,
                                   micro_batch_size=2)
        double = replace(single, data=2)
        vtrain = make_vtrain()
        vtrain.predict_inference(tiny_model, single, workload)
        checked = vtrain.prepare_checked(tiny_model, double,
                                         workload=workload)
        decode = checked.phases[1]
        assert decode.metadata["phase"] == DECODE
        assert decode.structure_cache_hit
        [warm] = vtrain.predict_prepared([checked])
        clear_structure_cache()
        cold_vtrain = make_vtrain()
        cold = cold_vtrain.predict_inference(tiny_model, double, workload)
        assert not cold_vtrain.last_predict_timing.structure_cache_hit
        assert warm == cold

    def test_structure_cache_never_crosses_workloads(
            self, tiny_model, training, plan, workload):
        """A warm training structure must not be served for an
        inference predict of the same plan, nor vice versa."""
        vtrain = make_vtrain()
        train_estimate = vtrain.predict(tiny_model, plan, training)
        inference = vtrain.predict_inference(tiny_model, plan, workload)
        train_again = vtrain.predict(tiny_model, plan, training)
        assert train_again.iteration_time == train_estimate.iteration_time
        assert inference.decode_step_time != train_estimate.iteration_time


# ---------------------------------------------------------------------------
# Decode timelines round-trip through the Chrome-trace exporter
# ---------------------------------------------------------------------------
class TestPhaseTraceExport:
    def test_decode_round_trip_is_exact(self, tiny_model, plan, workload):
        prediction = make_vtrain().predict_inference(
            tiny_model, plan, workload, record_timeline=True)
        for simulation, phase in ((prediction.prefill_simulation, PREFILL),
                                  (prediction.decode_simulation, DECODE)):
            trace = simulation_trace_events(simulation)
            categories = {event["cat"] for event in trace
                          if event["ph"] == "X"}
            assert phase in categories
            assert events_from_trace(trace) == list(simulation.events)

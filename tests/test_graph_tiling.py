"""The tiled compile path equals the per-task reference emitter.

``GraphBuilder.compile()`` stamps chunk-body templates over every
stage's issue order with array operations; ``graph_oracle``'s
``build_reference`` emits the same step task by task through
``GraphAssembler``. Compiling the reference graph must give the tiled
structure back exactly — replay order, CSR, devices, kinds, each
position's slot key, durations, metadata, and the lazily produced labels
and streams — at every granularity, schedule, ``v``, and workload phase.
The builder's per-slot duration vector must equal ``graph_oracle``'s
slot-by-slot ``reference_timings`` bit for bit.

The structure cache's safety check: two builds with equal
``StructureKey`` must compile equal structures (digest, labels, streams,
kinds, slot keys), or the cache would serve one plan the other's.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from graph_oracle import build_reference, compile_graph, reference_timings
from hypothesis import assume, event, given
from hypothesis import strategies as st

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      RecomputeMode, TrainingConfig)
from repro.config.system import multi_node
from repro.errors import (ConfigError, InfeasibleConfigError,
                          SimulationError)
from repro.graph.builder import Granularity, GraphBuilder
from repro.graph.operators import CommOperator, CompOperator
from repro.graph.pipeline import ScheduledChunk
from repro.graph.structure import GraphStructure
from repro.hardware.gpu import A100_40GB, A100_80GB, H100_80GB, V100_32GB
from repro.network.model import nccl_model_for
from repro.profiling.lookup import OperatorToTaskTable, profile_table
from repro.profiling.nccl import NcclModel
from repro.sim.estimator import VTrain
from repro.workload import DECODE, PREFILL, InferenceWorkload

ARRAYS = ("task_id", "device", "kind_index", "child_ptr", "child_idx",
          "duration", "busy_index")
VALUES = ("num_tasks", "num_devices", "num_edges", "kinds",
          "device_kind_order", "metadata", "label", "stream")

#: The plans whose training graphs are pinned by digest goldens in
#: test_workload_graph.py.
GOLDEN_PLANS = {
    "tp2dp2pp2": ParallelismConfig(tensor=2, data=2, pipeline=2,
                                   micro_batch_size=2),
    "tp1dp1pp4": ParallelismConfig(tensor=1, data=1, pipeline=4,
                                   micro_batch_size=4),
    "tp2dp1pp2v2": ParallelismConfig(tensor=2, data=1, pipeline=2,
                                     micro_batch_size=2, virtual_stages=2),
}

MODELS = {
    "tiny": ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                        num_heads=8, vocab_size=32_000, name="tiny"),
    "tiny-wide": ModelConfig(hidden_size=1024, num_layers=4,
                             seq_length=128, num_heads=16,
                             vocab_size=32_000, name="tiny-wide"),
    "small": ModelConfig(hidden_size=1024, num_layers=8, seq_length=512,
                         num_heads=16, vocab_size=32_000, name="small"),
}
TRAINING = TrainingConfig(global_batch_size=16, total_tokens=10_000_000)
WORKLOAD = InferenceWorkload(batch_size=8, prompt_len=128, gen_len=64)
PHASES = (None, PREFILL, DECODE)
SYSTEM = multi_node(4)
GPUS = (A100_80GB, A100_40GB, V100_32GB, H100_80GB)
NETWORKS = ("flat", "rail", "fat-tree:4")


def fresh_vtrain(system, granularity: Granularity) -> VTrain:
    """A simulator with an empty profile table and cost memo (the
    process's stores are cleared first)."""
    profile_table.cache_clear()
    nccl_model_for.cache_clear()
    return VTrain(system, granularity=granularity,
                  check_memory_feasibility=False)


@functools.cache
def vtrain_for(system, granularity: Granularity) -> VTrain:
    return fresh_vtrain(system, granularity)


def make_builder(model: ModelConfig, plan: ParallelismConfig,
                 granularity: Granularity, phase: str | None,
                 system=SYSTEM, training=TRAINING,
                 vtrain: VTrain | None = None) -> GraphBuilder:
    """A builder on ``vtrain``'s tables (default: the module's shared
    simulator for ``system`` and ``granularity``)."""
    if vtrain is None:
        vtrain = vtrain_for(system, granularity)
    return GraphBuilder(model, system, plan,
                        training if phase is None else None, vtrain.lookup,
                        vtrain.nccl, granularity,
                        workload=None if phase is None else WORKLOAD,
                        phase=phase)


def slot_column(structure: GraphStructure) -> list[str]:
    """The slot key of every position."""
    return [structure.slot_keys[slot]
            for slot in structure.slot_index.tolist()]


def assert_same_structure(tiled: GraphStructure,
                          reference: GraphStructure) -> None:
    for name in ARRAYS:
        expected = getattr(reference, name)
        actual = getattr(tiled, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name
    for name in VALUES:
        assert getattr(tiled, name) == getattr(reference, name), name
    assert slot_column(tiled) == slot_column(reference)
    assert tiled.digest() == reference.digest()


def assert_compile_matches_build(builder: GraphBuilder) -> None:
    graph = build_reference(builder)
    tiled = builder.compile()
    assert_same_structure(tiled, compile_graph(graph, graph.slots))
    # The tiled slots are the key's layout, each backing some task.
    assert tiled.slot_keys is builder.key.slot_layout()
    assert set(slot_column(tiled)) == set(tiled.slot_keys)


class TestTiledCompile:
    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("plan_name,phase", [
        (name, phase) for name, plan in GOLDEN_PLANS.items()
        for phase in PHASES
        # Inference graphs have no virtual stages.
        if phase is None or plan.virtual_stages == 1])
    def test_golden_plans_match_reference(self, plan_name, phase,
                                          granularity):
        assert_compile_matches_build(
            make_builder(MODELS["tiny"], GOLDEN_PLANS[plan_name],
                         granularity, phase))

    @pytest.mark.parametrize("schedule", list(PipelineSchedule))
    def test_bucketing_and_schedules_match_reference(self, schedule):
        for buckets, bucketing in ((3, True), (1, True), (2, False)):
            plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                     micro_batch_size=1, schedule=schedule,
                                     num_gradient_buckets=buckets,
                                     gradient_bucketing=bucketing)
            for granularity in Granularity:
                assert_compile_matches_build(
                    make_builder(MODELS["small"], plan, granularity, None))

    @pytest.mark.slow
    def test_wide_grid_matches_reference(self):
        """Every valid plan of a small grid, both models, every
        granularity and phase (the slow lane)."""
        checked = 0
        grid = itertools.product(
            ("tiny", "small"), (1, 2), (1, 2), (1, 2, 4), (1, 2),
            list(PipelineSchedule), (1, 2), (True, False), (1, 3))
        for (model, t, d, p, mbs, schedule, v, bucketing,
             buckets) in grid:
            if v > 1 and (schedule is PipelineSchedule.GPIPE or p == 1):
                continue
            for granularity, phase in itertools.product(Granularity,
                                                        PHASES):
                try:
                    plan = ParallelismConfig(
                        tensor=t, data=d, pipeline=p, micro_batch_size=mbs,
                        schedule=schedule, virtual_stages=v,
                        gradient_bucketing=bucketing,
                        num_gradient_buckets=buckets)
                    builder = make_builder(MODELS[model], plan, granularity,
                                           phase)
                except (ConfigError, InfeasibleConfigError):
                    continue
                assert_compile_matches_build(builder)
                checked += 1
        assert checked > 1000

    def test_negative_duration_names_the_first_task(self):
        builder = make_builder(MODELS["tiny"], GOLDEN_PLANS["tp2dp2pp2"],
                               Granularity.OPERATOR, None)
        slot = builder.key.slot_layout().index("tp_ar")
        builder.slot_durations[slot] = -1.0
        timings = reference_timings(builder)
        timings["tp_ar"] = -1.0
        with pytest.raises(SimulationError) as tiled:
            builder.compile()
        with pytest.raises(SimulationError) as reference:
            build_reference(builder, timings)
        assert str(tiled.value) == str(reference.value)
        assert "s0/F0/embed_ar" in str(tiled.value)

    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("plan_name,phase", [
        ("tp2dp2pp2", None), ("tp2dp1pp2v2", None),
        ("tp2dp2pp2", PREFILL), ("tp2dp2pp2", DECODE)])
    def test_compile_makes_no_scheduled_chunk(self, monkeypatch, plan_name,
                                              phase, granularity):
        """The compile path and its labels read the closed-form issue
        order arrays; no per-unit schedule entry is ever built."""
        def refuse(*args, **kwargs):
            raise AssertionError("compile built a ScheduledChunk")

        monkeypatch.setattr(ScheduledChunk, "__new__", refuse)
        with pytest.raises(AssertionError, match="ScheduledChunk"):
            ScheduledChunk("F", 0)
        structure = make_builder(MODELS["tiny"], GOLDEN_PLANS[plan_name],
                                 granularity, phase).compile()
        assert len(structure.label) == structure.num_tasks

    def test_labels_are_produced_on_demand(self):
        """Compiling formats no label; the first read formats them all."""
        builder = make_builder(MODELS["tiny"], GOLDEN_PLANS["tp2dp2pp2"],
                               Granularity.OPERATOR, None)
        structure = builder.compile()
        source = structure._sources["label"]
        assert callable(source)
        assert "label" not in structure._columns
        assert structure.label[0] == "s0/F0/embed"
        assert structure.label is structure.label


#: 24 layers split over 1, 2, 3, 4 or 6 stages, each in one or two chunks.
DEEP = ModelConfig(hidden_size=512, num_layers=24, seq_length=128,
                   num_heads=8, vocab_size=32_000, name="deep24")


class TestSlotDurations:
    @given(data=st.data())
    def test_vector_equals_reference_table(self, data):
        """Costing each stage role and each distinct collective once
        gives every slot of the key's layout the slot-by-slot reference
        table's value, bit for bit (``==`` and ``repr``, so signed
        zeros count too). A builder on a fresh simulator, whose profile
        table and cost memo start empty, gives the same vector as one
        whose durations are read from warm tables (the shared
        simulators are warm after the first example)."""
        granularity = data.draw(st.sampled_from(list(Granularity)))
        phase = data.draw(st.sampled_from(PHASES))
        pipeline = data.draw(st.sampled_from((1, 2, 3, 4, 6)))
        schedule = data.draw(st.sampled_from(list(PipelineSchedule)))
        v = 1
        if (phase is None and pipeline > 1
                and schedule is PipelineSchedule.ONE_F_ONE_B):
            v = data.draw(st.sampled_from((1, 2)))
        # Two to eight GPUs per node move the groups across node
        # boundaries.
        per_node = data.draw(st.sampled_from((2, 4, 8)))
        system = multi_node(128 // per_node, gpus_per_node=per_node,
                            network=data.draw(st.sampled_from(NETWORKS)))
        training = TrainingConfig(
            global_batch_size=data.draw(st.sampled_from((4, 8, 12, 24, 48))))
        try:
            plan = ParallelismConfig(
                tensor=data.draw(st.sampled_from((1, 2, 4))),
                data=data.draw(st.sampled_from((1, 2, 4))),
                pipeline=pipeline,
                micro_batch_size=data.draw(st.sampled_from((1, 2))),
                schedule=schedule, virtual_stages=v,
                gradient_bucketing=data.draw(st.booleans()),
                num_gradient_buckets=data.draw(st.integers(1, 8)))
            builder = make_builder(DEEP, plan, granularity, phase, system,
                                   training)
        except (ConfigError, InfeasibleConfigError):
            assume(False)
        event(f"p={pipeline} v={v} {granularity.value} phase={phase}")
        layout = builder.key.slot_layout()
        assert builder.key.slot_layout() is layout
        vector = builder.slot_durations
        assert vector.dtype == np.float64 and vector.shape == (len(layout),)
        table = reference_timings(builder)
        expected = [table[slot] for slot in layout]
        assert vector.tolist() == expected
        assert list(map(repr, vector.tolist())) == list(map(repr, expected))
        fresh = make_builder(DEEP, plan, granularity, phase, system,
                             training,
                             vtrain=fresh_vtrain(system, granularity))
        assert fresh.key == builder.key
        assert fresh.slot_durations.tolist() == vector.tolist()
        assert (list(map(repr, fresh.slot_durations.tolist()))
                == list(map(repr, expected)))


#: A plan with every kind of collective on a 4-GPU-per-node system: TP
#: All-Reduces, intra- and inter-node pipeline hops, and two DP buckets
#: whose payloads differ by stage role.
PROBE_PLAN = ParallelismConfig(tensor=2, data=2, pipeline=4,
                               num_gradient_buckets=2)


def probe_system(network: str = "flat"):
    return multi_node(4, gpus_per_node=4, network=network)


class TestTableProbes:
    """Builder init reads each duration from the profile table or the
    cost memo by signature, and builds an operator only on a miss."""

    @pytest.mark.parametrize("network", ["flat", "rail"])
    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("granularity",
                             [Granularity.STAGE, Granularity.OPERATOR])
    def test_warm_tables_build_no_operator(self, monkeypatch, granularity,
                                           phase, network):
        """A second builder of a plan on a warmed simulator constructs
        no computation or communication operator."""
        built = []
        for cls in (CompOperator, CommOperator):
            def counting(op, original=cls.__post_init__):
                built.append(type(op).__name__)
                original(op)
            monkeypatch.setattr(cls, "__post_init__", counting)
        system = probe_system(network)
        vtrain = fresh_vtrain(system, granularity)
        first = make_builder(MODELS["small"], PROBE_PLAN, granularity, phase,
                             system, vtrain=vtrain)
        assert {"CompOperator", "CommOperator"} <= set(built)
        built.clear()
        second = make_builder(MODELS["small"], PROBE_PLAN, granularity,
                              phase, system, vtrain=vtrain)
        assert built == []
        assert second.slot_durations.tolist() == \
            first.slot_durations.tolist()

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_probe_keys_are_miss_signatures(self, monkeypatch, granularity,
                                            phase):
        """Every probe key is the signature of the operator its miss
        builds: with every probe forced to miss, the keys probed are the
        signatures the profile table and the NCCL model then see, in
        order, and the vector does not change."""
        probed = {"comp": [], "comm": []}
        seen = {"comp": [], "comm": []}

        def miss(table):
            def probe(self, signature):
                probed[table].append(signature)
                return None
            return probe

        def spy(table, original):
            def entry(self, op):
                seen[table].append(op.signature)
                return original(self, op)
            return entry

        system = probe_system("rail")
        expected = make_builder(MODELS["small"], PROBE_PLAN, granularity,
                                phase, system,
                                vtrain=fresh_vtrain(system, granularity))
        monkeypatch.setattr(OperatorToTaskTable, "cached_duration",
                            miss("comp"))
        monkeypatch.setattr(NcclModel, "cached_time", miss("comm"))
        monkeypatch.setattr(OperatorToTaskTable, "duration_of",
                            spy("comp", OperatorToTaskTable.duration_of))
        monkeypatch.setattr(NcclModel, "time", spy("comm", NcclModel.time))
        builder = make_builder(MODELS["small"], PROBE_PLAN, granularity,
                               phase, system,
                               vtrain=fresh_vtrain(system, granularity))
        assert probed == seen
        # One TP All-Reduce and two hop links, plus three DP payloads
        # (two buckets on three stage roles) in training.
        assert len(probed["comm"]) == (3 if phase else 6)
        # The weight update of each stage role in training; at KERNEL
        # the computation operators are built for their kernel names.
        compute = 0 if granularity is Granularity.KERNEL else \
            (4 if phase else 8)
        assert len(probed["comp"]) == compute + (0 if phase else 3)
        assert builder.slot_durations.tolist() == \
            expected.slot_durations.tolist()


class TestStructureDigest:
    def test_digest_is_memoized_hex(self):
        structure = make_builder(MODELS["tiny"], GOLDEN_PLANS["tp2dp2pp2"],
                                 Granularity.STAGE, None).compile()
        digest = structure.digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert structure.digest() is digest

    def test_digest_tracks_topology(self):
        """Plans differing in a structural knob differ in digest."""
        digests = {
            make_builder(MODELS["tiny"], plan, Granularity.OPERATOR,
                         None).compile().digest()
            for plan in (ParallelismConfig(tensor=1, data=1, pipeline=2),
                         ParallelismConfig(tensor=1, data=1, pipeline=2,
                                           virtual_stages=2),
                         ParallelismConfig(tensor=1, data=2, pipeline=2),
                         ParallelismConfig(tensor=2, data=1, pipeline=2))}
        assert len(digests) == 4

    def test_digest_ignores_timing(self):
        """Tensor degree and hidden size only scale durations."""
        narrow = make_builder(MODELS["tiny"],
                              ParallelismConfig(tensor=2, data=1,
                                                pipeline=2),
                              Granularity.OPERATOR, None).compile()
        wide = make_builder(MODELS["tiny-wide"],
                            ParallelismConfig(tensor=4, data=1,
                                              pipeline=2),
                            Granularity.OPERATOR, None).compile()
        assert not np.array_equal(narrow.duration, wide.duration)
        assert narrow.digest() == wide.digest()

    @given(data=st.data())
    def test_equal_keys_give_equal_structures(self, data):
        """The structure cache's safety property: whenever two builds
        share a key (and so a cache entry), their structures — CSR,
        devices, kinds, slot keys, labels, streams — are identical, and
        each builder can re-time the other's structure."""
        granularity = data.draw(st.sampled_from(list(Granularity)))
        phase = data.draw(st.sampled_from(PHASES))
        pipeline = data.draw(st.sampled_from((1, 2, 4)))
        schedule = data.draw(st.sampled_from(list(PipelineSchedule)))
        v = 1
        if (phase is None and pipeline > 1
                and schedule is PipelineSchedule.ONE_F_ONE_B):
            v = data.draw(st.sampled_from((1, 2)))
        bucketing = data.draw(st.booleans())
        buckets = data.draw(st.sampled_from((1, 2, 3)))
        layers = data.draw(st.sampled_from((4, 8)))
        models = [name for name, model in MODELS.items()
                  if model.num_layers == layers]
        builders = []
        for _ in range(2):
            # Each twin redraws only knobs the key treats as timing-only
            # (or encodes): the GPU and the fabric, TP/DP degree beyond
            # on/off, the micro-batch split of a fixed per-pipeline
            # batch, the model's width, and the recompute mode.
            system = multi_node(4, gpu=data.draw(st.sampled_from(GPUS)),
                                network=data.draw(st.sampled_from(NETWORKS)))
            tensor = data.draw(st.sampled_from((1, 2, 4)))
            data_degree, micro_batch = data.draw(st.sampled_from(
                ((1, 1), (1, 2), (2, 1), (2, 2), (4, 1))))
            model = MODELS[data.draw(st.sampled_from(models))]
            try:
                plan = ParallelismConfig(
                    tensor=tensor, data=data_degree, pipeline=pipeline,
                    micro_batch_size=micro_batch, schedule=schedule,
                    virtual_stages=v, gradient_bucketing=bucketing,
                    num_gradient_buckets=buckets,
                    recompute=data.draw(st.sampled_from(list(RecomputeMode))))
                builders.append(make_builder(model, plan, granularity,
                                             phase, system))
            except (ConfigError, InfeasibleConfigError):
                assume(False)
        first, second = builders
        shared = first.key == second.key
        assert shared == (str(first.key) == str(second.key))
        event(f"keys shared: {shared}")
        if shared:
            ours, theirs = first.compile(), second.compile()
            assert ours.digest() == theirs.digest()
            for name in ("label", "stream", "kinds", "slot_keys"):
                assert getattr(ours, name) == getattr(theirs, name), name
            first.fill_durations(theirs)
            second.fill_durations(ours)

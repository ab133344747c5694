"""The structure key is the emitter's only input.

* The emitter's constructor takes one argument, a ``StructureKey``, so
  it cannot read a setting the key lacks.
* A training key's ``str(key)`` is byte-identical to the hand-written
  fingerprint the structure cache used before the key existed (kept
  below as the oracle), except at KERNEL granularity, where a digest of
  the kernel names replaces the recompute/shape parts that stood in for
  them, and at STAGE granularity, which drops the fingerprint's ``tp=``
  part: a STAGE chunk fuses its TP All-Reduces into its duration, so
  the STAGE emitter never reads the TP flag.
* Those parts missed the GPU: a KERNEL structure compiled on one GPU
  was served to a same-shape plan on another, with the first GPU's
  kernel names in its labels — and the testbed keys its noise by label.
* An inference key holds only what a phase graph's emitter reads: no
  schedule, DP flag, bucket sizes or sequence shape.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import typing

import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      TrainingConfig, layers_per_stage,
                                      num_micro_batches)
from repro.config.presets import MEGATRON_1_7B, MEGATRON_7_5B
from repro.config.system import multi_node, single_node
from repro.dse.space import (SearchSpace, enumerate_plans,
                             enumerate_serving_plans)
from repro.errors import ConfigError, SimulationError
from repro.graph import builder as builder_module
from repro.graph.builder import (Granularity, GraphBuilder, StructureKey,
                                 _Emitter, clear_structure_cache,
                                 structure_affinity, structure_cache_get,
                                 structure_cache_put)
from repro.graph.operators import CompOperator, OpKind
from repro.hardware.gpu import A100_80GB, H100_80GB, V100_32GB
from repro.sim.estimator import VTrain
from repro.testbed.emulator import TestbedEmulator
from repro.workload import INFERENCE_PHASES, InferenceWorkload


def structure_fingerprint(model: ModelConfig, plan: ParallelismConfig,
                          training: TrainingConfig,
                          granularity: Granularity) -> str:
    """Fingerprint of everything that shapes a plan's emitted topology.

    Two (model, plan, training, granularity) tuples with equal
    fingerprints produce graphs with identical node sequences, edges,
    devices, streams, labels, and timing slots — only slot *values*
    (durations) may differ. The fingerprint deliberately excludes pure
    timing inputs (hidden size, tensor/data degree magnitudes,
    interconnects, the device model, recompute outside KERNEL
    granularity) so sweeps re-time one compiled structure instead of
    rebuilding:

    * model shape enters as layers-per-stage (the only model property
      emission reads);
    * plan way enters as pipeline depth plus *whether* TP/DP
      collectives exist (their degree only scales durations);
    * micro-batch count and schedule fix the chunk issue order;
    * the gradient-bucket layout fixes DP All-Reduce tasks;
    * granularity fixes the stream layout; KERNEL graphs add the
      recompute mode because it changes the kernel sequence itself.

    Computable without any profiling state, so sweep engines use it to
    group plans for cache affinity before evaluating them.
    """
    lps = layers_per_stage(model, plan)
    nmb = num_micro_batches(plan, training)
    if plan.gradient_bucketing:
        buckets = min(plan.num_gradient_buckets, lps)
    else:
        buckets = 1
    base, extra = divmod(lps, buckets)  # mirrors the builder's layout
    sizes = [base + (1 if k < extra else 0) for k in range(buckets)]
    parts = [
        f"g={granularity.value}",
        f"sched={plan.schedule.value}",
        f"p={plan.pipeline}",
        f"lps={lps}",
        f"nmb={nmb}",
        f"tp={int(plan.tensor > 1)}",
        f"dp={int(plan.data > 1)}",
        f"buckets={','.join(str(size) for size in sizes)}",
    ]
    if plan.virtual_stages > 1:
        # Interleaving changes the chunk issue order, the per-chunk
        # layer slices, and adds wrap-around P2P tasks; a v=1 structure
        # silently reused for v>1 (or vice versa) would be wrong. The
        # part is omitted at v=1 so pre-interleaving fingerprints are
        # byte-identical.
        parts.append(f"v={plan.virtual_stages}")
    if granularity is Granularity.KERNEL:
        # Kernel graphs bake shape into the structure itself: the
        # recompute mode changes the kernel sequence, and kernel task
        # labels carry names derived from the sharded GEMM shapes.
        parts.append(f"rc={plan.recompute.value}")
        parts.append(f"shape={model.hidden_size}x{model.num_heads}"
                     f"x{model.seq_length}"
                     f"x{model.padded_vocab_size(plan.tensor)}")
        parts.append(f"mbs={plan.micro_batch_size}")
        parts.append(f"t={plan.tensor}")
    return ";".join(parts)


#: Stand-in kernel names for KERNEL keys (the oracle never read them).
KERNELS = {"fwd_mha": ["gemm_a", "softmax"], "fwd_ffn": ["gemm_b", "gelu"]}


def kernel_digest(key: StructureKey) -> str:
    return hashlib.sha256(json.dumps(key.kernels).encode()).hexdigest()[:16]


class TestEmitterTakesOnlyTheKey:
    def test_constructor_takes_exactly_one_structure_key(self):
        parameters = list(inspect.signature(_Emitter).parameters.values())
        assert [parameter.name for parameter in parameters] == ["key"]
        hints = typing.get_type_hints(_Emitter.__init__)
        assert hints["key"] is StructureKey

    def test_hand_written_fingerprint_is_gone(self):
        assert not hasattr(builder_module, "structure_fingerprint")
        assert not hasattr(GraphBuilder, "structure_key")

    def test_key_is_frozen_and_hashable(self):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2)
        key = StructureKey.of(MEGATRON_1_7B, plan,
                              TrainingConfig(global_batch_size=16),
                              Granularity.STAGE)
        with pytest.raises(AttributeError):
            key.pipeline = 4
        assert {key: 1}[key] == 1

    def test_kernel_key_needs_kernel_names(self):
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        with pytest.raises(ConfigError, match="kernel names"):
            StructureKey.of(MEGATRON_1_7B, plan,
                            TrainingConfig(global_batch_size=4),
                            Granularity.KERNEL)

    def test_affinity_is_none_at_kernel_granularity(self):
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        training = TrainingConfig(global_batch_size=4)
        assert structure_affinity(MEGATRON_1_7B, plan, training,
                                  Granularity.KERNEL) is None
        assert structure_affinity(MEGATRON_1_7B, plan, training,
                                  Granularity.STAGE) == str(StructureKey.of(
                                      MEGATRON_1_7B, plan, training,
                                      Granularity.STAGE))


class TestByteIdentity:
    @given(data=st.data())
    def test_key_string_equals_the_fingerprint(self, data):
        """OPERATOR training keys read exactly like the fingerprint;
        STAGE keys drop its tp part, and KERNEL keys swap its
        rc/shape/mbs/t parts for the digest."""
        granularity = data.draw(st.sampled_from(list(Granularity)))
        schedule = data.draw(st.sampled_from(list(PipelineSchedule)))
        pipeline = data.draw(st.sampled_from((1, 2, 4)))
        v = 1
        if pipeline > 1 and schedule is PipelineSchedule.ONE_F_ONE_B:
            v = data.draw(st.sampled_from((1, 2, 4)))
        layers = data.draw(st.sampled_from((8, 16, 24)))
        model = ModelConfig(hidden_size=512, num_layers=layers,
                            seq_length=128, num_heads=8, vocab_size=32_000)
        plan = ParallelismConfig(
            tensor=data.draw(st.sampled_from((1, 2, 8))),
            data=data.draw(st.sampled_from((1, 2, 4))), pipeline=pipeline,
            micro_batch_size=data.draw(st.sampled_from((1, 2))),
            schedule=schedule, virtual_stages=v,
            gradient_bucketing=data.draw(st.booleans()),
            num_gradient_buckets=data.draw(st.integers(1, 7)))
        training = TrainingConfig(
            global_batch_size=data.draw(st.sampled_from((16, 32, 64))))
        assume(layers % (pipeline * v) == 0)
        key = StructureKey.of(model, plan, training, granularity,
                              kernels=KERNELS)
        expected = structure_fingerprint(model, plan, training, granularity)
        if granularity is Granularity.KERNEL:
            parts = expected.split(";")
            first = next(index for index, part in enumerate(parts)
                         if part.startswith("rc="))
            parts[first:first + 4] = [f"kernels={kernel_digest(key)}"]
            expected = ";".join(parts)
        if granularity is Granularity.STAGE:
            expected = expected.replace(f";tp={int(plan.tensor > 1)};", ";")
            assert not key.tensor_parallel
        assert str(key) == expected

    def test_kernel_digest_follows_the_names(self):
        plan = ParallelismConfig(tensor=1, data=1, pipeline=1)
        training = TrainingConfig(global_batch_size=4)
        keys = {str(StructureKey.of(MEGATRON_1_7B, plan, training,
                                    Granularity.KERNEL, kernels=kernels))
                for kernels in (KERNELS, {**KERNELS, "fwd_ffn": ["gemm_c"]},
                                dict(reversed(KERNELS.items())))}
        assert len(keys) == 2  # the mapping's order does not matter


#: 16 layers split over every pipeline depth below; 32 GPUs hold every
#: drawn plan.
PHASE_MODEL = ModelConfig(hidden_size=512, num_layers=16, seq_length=128,
                          num_heads=8, vocab_size=32_000, name="phase16")
PHASE_SYSTEM = multi_node(4)


@functools.cache
def phase_vtrain(granularity: Granularity) -> VTrain:
    return VTrain(PHASE_SYSTEM, granularity=granularity,
                  check_memory_feasibility=False)


def phase_twins(data, granularity: Granularity) -> list[GraphBuilder]:
    """Two builders of one phase graph whose plans and workloads share
    the pipeline depth and micro-batch size, and each draw their own
    schedule, data degree, bucket count, prompt length and generation
    length. They share the TP degree too, except at STAGE, whose chunks
    fuse their TP All-Reduces: there each draws its own."""
    phase = data.draw(st.sampled_from(INFERENCE_PHASES))
    tensor = data.draw(st.sampled_from((1, 2)))
    pipeline = data.draw(st.sampled_from((1, 2, 4)))
    micro_batch = data.draw(st.sampled_from((1, 2)))
    vtrain = phase_vtrain(granularity)
    builders = []
    for _ in range(2):
        if granularity is Granularity.STAGE:
            tensor = data.draw(st.sampled_from((1, 2)))
        plan = ParallelismConfig(
            tensor=tensor, data=data.draw(st.sampled_from((1, 2, 4))),
            pipeline=pipeline, micro_batch_size=micro_batch,
            schedule=data.draw(st.sampled_from(list(PipelineSchedule))),
            gradient_bucketing=data.draw(st.booleans()),
            num_gradient_buckets=data.draw(st.integers(1, 7)))
        workload = InferenceWorkload(
            batch_size=8, prompt_len=data.draw(st.sampled_from((64, 256))),
            gen_len=data.draw(st.sampled_from((16, 32))))
        builders.append(GraphBuilder(
            PHASE_MODEL, PHASE_SYSTEM, plan, None, vtrain.lookup,
            vtrain.nccl, granularity, workload=workload, phase=phase))
    return builders


def assert_same_structure(first: GraphBuilder,
                          second: GraphBuilder) -> None:
    ours, theirs = first.compile(), second.compile()
    assert ours.digest() == theirs.digest()
    for name in ("label", "stream", "kinds"):
        assert getattr(ours, name) == getattr(theirs, name), name


class TestInferenceKeys:
    """A phase graph's emitter issues forwards in micro-batch order under
    any schedule and syncs no gradients, the sequence shape reaches the
    graph only through durations (and KERNEL names), and a STAGE graph
    holds no TP All-Reduce task, so none of them may split a phase's
    cache entry."""

    @given(data=st.data())
    def test_keys_ignore_what_the_emitter_never_reads(self, data):
        granularity = data.draw(st.sampled_from((Granularity.OPERATOR,
                                                 Granularity.STAGE)))
        first, second = phase_twins(data, granularity)
        assert first.key == second.key
        assert str(first.key) == str(second.key)
        assert_same_structure(first, second)

    @given(data=st.data())
    def test_kernel_keys_are_equal_exactly_when_the_names_are(self, data):
        first, second = phase_twins(data, Granularity.KERNEL)
        shared = first.key == second.key
        event(f"keys shared: {shared}")
        assert shared == (first.key.kernels == second.key.kernels)
        assert shared == (str(first.key) == str(second.key))
        if shared:
            assert_same_structure(first, second)


def partitions(builders: list[GraphBuilder]) -> tuple[set, set]:
    """The builders' indices grouped by key text, and grouped by what
    their structure holds (digest, slot keys, labels, streams, kinds),
    compiling one structure per key."""
    by_key: dict[str, list[int]] = {}
    for index, builder in enumerate(builders):
        by_key.setdefault(str(builder.key), []).append(index)
    by_structure: dict[tuple, list[int]] = {}
    for indices in by_key.values():
        structure = builders[indices[0]].compile()
        content = (structure.digest(), structure.slot_keys, structure.label,
                   structure.stream, structure.kinds)
        by_structure.setdefault(content, []).extend(indices)
    return ({frozenset(group) for group in by_key.values()},
            {frozenset(group) for group in by_structure.values()})


#: Megatron 1.7B at global batch 64: t, d, p <= 8, micro-batch 1 or 2,
#: v 1 or 2, on at most 64 GPUs (210 plans).
SWEEP_TRAINING = TrainingConfig(global_batch_size=64)
SWEEP_SPACE = SearchSpace(max_tensor=8, max_data=8, max_pipeline=8,
                          micro_batch_sizes=(1, 2), virtual_stages=(1, 2))
SWEEP_SYSTEM = multi_node(8)


def sweep_builders(granularity: Granularity, space: SearchSpace,
                   training: TrainingConfig) -> list[GraphBuilder]:
    vtrain = VTrain(SWEEP_SYSTEM, granularity=granularity,
                    check_memory_feasibility=False)
    return [GraphBuilder(MEGATRON_1_7B, SWEEP_SYSTEM, plan, training,
                         vtrain.lookup, vtrain.nccl, granularity)
            for plan in enumerate_plans(MEGATRON_1_7B, training,
                                        space=space, max_gpus=64)]


class TestKeysPartitionLikeStructures:
    """Two plans share a key exactly when their structures are equal: a
    key that splits equal structures compiles one graph twice, and one
    that merges different structures serves a wrong graph."""

    @pytest.mark.parametrize("granularity", [Granularity.STAGE,
                                             Granularity.OPERATOR],
                             ids=lambda granularity: granularity.value)
    def test_sweep_space(self, granularity):
        builders = sweep_builders(granularity, SWEEP_SPACE, SWEEP_TRAINING)
        assert len(builders) == 210
        by_key, by_structure = partitions(builders)
        assert by_key == by_structure
        # Only STAGE plans of different TP degrees share a structure.
        shares_tp = any(len({builders[index].plan.tensor > 1
                             for index in group}) == 2 for group in by_key)
        assert shares_tp == (granularity is Granularity.STAGE)

    def test_kernel_space(self):
        space = SearchSpace(max_tensor=2, max_data=2, max_pipeline=2,
                            micro_batch_sizes=(1, 2))
        builders = sweep_builders(Granularity.KERNEL, space,
                                  TrainingConfig(global_batch_size=8))
        by_key, by_structure = partitions(builders)
        assert by_key == by_structure

    @pytest.mark.parametrize("phase", INFERENCE_PHASES)
    @pytest.mark.parametrize("granularity", list(Granularity),
                             ids=lambda granularity: granularity.value)
    def test_phase_keys(self, granularity, phase):
        workload = InferenceWorkload(batch_size=8, prompt_len=64, gen_len=16)
        space = SearchSpace(max_tensor=4, max_data=2, max_pipeline=4,
                            micro_batch_sizes=(1, 2))
        vtrain = VTrain(SWEEP_SYSTEM, granularity=granularity,
                        check_memory_feasibility=False)
        builders = [GraphBuilder(MEGATRON_1_7B, SWEEP_SYSTEM, plan, None,
                                 vtrain.lookup, vtrain.nccl, granularity,
                                 workload=workload, phase=phase)
                    for plan in enumerate_serving_plans(
                        MEGATRON_1_7B, workload, space=space, max_gpus=32)]
        by_key, by_structure = partitions(builders)
        assert by_key == by_structure


def outcome(prediction) -> tuple:
    simulation = prediction.simulation
    return (prediction.iteration_time, prediction.gpu_compute_utilization,
            prediction.memory_per_gpu, simulation.num_tasks,
            simulation.device_timeline, dict(simulation.device_busy),
            simulation.metadata)


class TestStageSharesAcrossTensorDegrees:
    """A STAGE chunk fuses its TP All-Reduces into its duration, so a
    t = 4 plan refills the structure a t = 1 plan compiled, with its own
    durations and metadata; an OPERATOR graph holds TP All-Reduce tasks
    and must not."""

    @pytest.mark.parametrize("granularity", [Granularity.STAGE,
                                             Granularity.OPERATOR],
                             ids=lambda granularity: granularity.value)
    def test_t4_after_t1(self, granularity):
        def plan(tensor: int) -> ParallelismConfig:
            return ParallelismConfig(tensor=tensor, data=2, pipeline=2)

        training = TrainingConfig(global_batch_size=16)
        vtrain = VTrain(multi_node(2), granularity=granularity,
                        check_memory_feasibility=False)
        clear_structure_cache()
        try:
            cold = vtrain.predict(MEGATRON_1_7B, plan(4), training)
            clear_structure_cache()
            vtrain.predict(MEGATRON_1_7B, plan(1), training)
            prepared = vtrain.prepare(MEGATRON_1_7B, plan(4), training)
            stage = granularity is Granularity.STAGE
            assert prepared.structure_cache_hit == stage
            assert prepared.metadata["plan"] == plan(4)
            warm = vtrain.predict(MEGATRON_1_7B, plan(4), training)
            assert outcome(warm) == outcome(cold)
        finally:
            clear_structure_cache()


#: Megatron 1.7B on one 8-GPU node, t=2 d=2 p=2, micro-batch 2, B=16.
PLAN = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
TRAINING = TrainingConfig(global_batch_size=16)


def kernel_vtrain(gpu) -> VTrain:
    return VTrain(single_node(gpu=gpu), granularity=Granularity.KERNEL,
                  check_memory_feasibility=False)


class TestKernelKeysFollowTheGpu:
    """KERNEL labels carry GEMM kernel names whose tile follows the SM
    count, so a structure compiled on one GPU must not serve another."""

    @pytest.mark.parametrize("gpu", [H100_80GB, V100_32GB],
                             ids=lambda gpu: gpu.name)
    def test_reused_structure_carries_fresh_labels(self, gpu):
        clear_structure_cache()
        try:
            fresh = kernel_vtrain(gpu).prepare(MEGATRON_1_7B, PLAN, TRAINING)
            fresh_labels = fresh.structure.label
            clear_structure_cache()
            kernel_vtrain(A100_80GB).prepare(MEGATRON_1_7B, PLAN, TRAINING)
            after = kernel_vtrain(gpu).prepare(MEGATRON_1_7B, PLAN, TRAINING)
            assert after.structure.label == fresh_labels
            assert not after.structure_cache_hit
        finally:
            clear_structure_cache()

    def test_testbed_measures_the_same_after_another_gpu(self):
        def measure(gpu) -> float:
            emulator = TestbedEmulator(single_node(gpu=gpu),
                                       granularity=Granularity.KERNEL)
            return emulator.measure_time(MEGATRON_1_7B, PLAN, TRAINING)

        clear_structure_cache()
        try:
            fresh = measure(H100_80GB)
            clear_structure_cache()
            measure(A100_80GB)
            assert measure(H100_80GB) == fresh == 0.27348748006965873
        finally:
            clear_structure_cache()

    def test_same_gpu_still_shares_the_structure(self):
        """Kernel names depend on the GPU and the sharded shapes, not on
        the node count, so the same plan on a larger system still hits."""
        clear_structure_cache()
        try:
            kernel_vtrain(A100_80GB).prepare(MEGATRON_1_7B, PLAN, TRAINING)
            larger = VTrain(multi_node(2), granularity=Granularity.KERNEL,
                            check_memory_feasibility=False)
            assert larger.prepare(MEGATRON_1_7B, PLAN,
                                  TRAINING).structure_cache_hit
        finally:
            clear_structure_cache()


def test_builder_key_matches_of():
    """The builder derives its key through ``StructureKey.of``, with the
    kernel names of the plan's computation operators, built here."""
    vtrain = kernel_vtrain(A100_80GB)
    builder = GraphBuilder(MEGATRON_1_7B, vtrain.system, PLAN, TRAINING,
                           vtrain.lookup, vtrain.nccl, Granularity.KERNEL)
    model = MEGATRON_1_7B
    shape = dict(micro_batch=PLAN.micro_batch_size,
                 seq_length=model.seq_length, hidden_size=model.hidden_size,
                 num_heads=model.num_heads, tensor_parallel=PLAN.tensor)
    vocab = model.padded_vocab_size(PLAN.tensor)
    operators = [CompOperator(kind, vocab_size=vocab, **shape)
                 for kind in (OpKind.FWD_EMBEDDING, OpKind.FWD_LM_HEAD,
                              OpKind.BWD_LM_HEAD, OpKind.BWD_EMBEDDING)]
    operators += [CompOperator(kind, **shape)
                  for kind in (OpKind.FWD_MHA, OpKind.FWD_FFN)]
    operators += [CompOperator(kind, recompute=PLAN.recompute, **shape)
                  for kind in (OpKind.BWD_FFN, OpKind.BWD_MHA)]
    names = {op.kind.value: [kernel.name for kernel
                             in vtrain.lookup.tasks_for(op)]
             for op in operators}
    assert len(names) == 8
    assert builder.key == StructureKey.of(MEGATRON_1_7B, PLAN, TRAINING,
                                          Granularity.KERNEL, kernels=names)


class TestRefillGuard:
    """A structure refills only under its own key's slot layout."""

    def test_equal_keys_share_one_layout(self):
        def key(tensor: int) -> StructureKey:
            plan = ParallelismConfig(tensor=tensor, data=2, pipeline=2)
            return StructureKey.of(MEGATRON_1_7B, plan, TRAINING,
                                   Granularity.STAGE)

        assert key(2) == key(4) and key(2) is not key(4)
        assert key(2).slot_layout() is key(4).slot_layout()

    def test_an_equal_layout_refills(self):
        vtrain = VTrain(single_node(), granularity=Granularity.OPERATOR,
                        check_memory_feasibility=False)
        builder = GraphBuilder(MEGATRON_1_7B, vtrain.system, PLAN, TRAINING,
                               vtrain.lookup, vtrain.nccl,
                               Granularity.OPERATOR)
        structure = builder.compile()
        structure.slot_keys = tuple(list(structure.slot_keys))
        assert structure.slot_keys is not builder.key.slot_layout()
        assert (builder.fill_durations(structure).tolist()
                == structure.duration.tolist())
        structure.slot_keys = None
        with pytest.raises(SimulationError, match="slot layout"):
            builder.fill_durations(structure)

    def test_foreign_structure_is_evicted_and_rebuilt(self):
        """A (t4, d2, p2) structure planted under the (t2, d2, p4) key
        has slots that are all p = 4 slots too; it must be rebuilt, not
        refilled into a prediction of the wrong graph."""
        model = MEGATRON_7_5B
        training = TrainingConfig(global_batch_size=128)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=4)
        foreign = ParallelismConfig(tensor=4, data=2, pipeline=2)
        vtrain = VTrain(multi_node(4), granularity=Granularity.STAGE,
                        check_memory_feasibility=False)
        clear_structure_cache()
        try:
            cold = vtrain.predict(model, plan, training).iteration_time
            key = str(vtrain.prepare(model, plan, training).builder.key)
            planted = vtrain.prepare(model, foreign, training).structure
            assert set(planted.slot_keys) < set(
                structure_cache_get(key).slot_keys)
            structure_cache_put(key, planted)
            prepared = vtrain.prepare(model, plan, training)
            assert not prepared.structure_cache_hit
            assert prepared.structure is not planted
            assert structure_cache_get(key) is prepared.structure
            assert vtrain.predict(model, plan, training).iteration_time \
                == cold
        finally:
            clear_structure_cache()

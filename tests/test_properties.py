"""Property-based tests (hypothesis) on core invariants.

These cover the algebraic heart of the simulator: parameter/FLOP
accounting, Equation 1, schedule completeness, graph acyclicity, engine
monotonicity, and memory-model monotonicity — across randomly drawn
configurations rather than hand-picked ones.
"""

from graph_oracle import (ExecutionGraph, GraphAssembler, TaskNode,
                          build_reference, critical_path_length, simulate)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      TrainingConfig)
from repro.config.system import single_node
from repro.graph.pipeline import (gpipe_order, one_f_one_b_order,
                                  pipeline_bubble_fraction)
from repro.graph.structure import COMPUTE_STREAM, KIND_COMPUTE
from repro.hardware.gpu import A100_80GB
from repro.hardware.interconnect import RingParameters
from repro.hardware.kernels import DeviceModel
from repro.memory.footprint import memory_footprint
from repro.profiling.cupti import CuptiTracer
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.testbed import noise

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

head_counts = st.sampled_from([4, 8, 16])
hidden_mults = st.integers(min_value=2, max_value=8)


@st.composite
def models(draw):
    heads = draw(head_counts)
    hidden = heads * 64 * draw(st.integers(min_value=1, max_value=4))
    layers = draw(st.sampled_from([2, 4, 8]))
    seq = draw(st.sampled_from([64, 128, 256]))
    return ModelConfig(hidden_size=hidden, num_layers=layers,
                       seq_length=seq, num_heads=heads, vocab_size=8192)


@st.composite
def plans_8gpu(draw, model):
    ways = [(1, 8, 1), (2, 4, 1), (4, 2, 1), (8, 1, 1), (2, 2, 2),
            (1, 4, 2), (1, 2, 4), (2, 1, 4), (1, 1, 8), (4, 1, 2)]
    valid = [(t, d, p) for t, d, p in ways
             if model.num_heads % t == 0 and model.num_layers % p == 0]
    t, d, p = draw(st.sampled_from(valid))
    schedule = draw(st.sampled_from(list(PipelineSchedule)))
    per_replica = 8 // d  # the tests use a global batch of 8 sequences
    micro = draw(st.sampled_from([m for m in (1, 2) if per_replica % m == 0]))
    return ParallelismConfig(tensor=t, data=d, pipeline=p,
                             micro_batch_size=micro, schedule=schedule)


# ---------------------------------------------------------------------------
# Model accounting
# ---------------------------------------------------------------------------

@given(models())
def test_parameter_count_positive_and_consistent(model):
    total = model.num_parameters()
    assert total > 0
    assert total >= model.num_layers * model.params_per_layer()
    # 12 L h^2 dominates for any transformer shape.
    assert total >= 12 * model.num_layers * model.hidden_size ** 2


@given(models(), st.integers(min_value=1, max_value=1_000_000))
def test_flops_linear_in_tokens(model, tokens):
    per_token = model.flops_per_token()
    assert model.model_flops_per_iteration(tokens) == per_token * tokens


@given(models(), st.integers(min_value=1, max_value=8))
def test_padded_vocab_properties(model, tensor):
    padded = model.padded_vocab_size(tensor)
    assert padded >= model.vocab_size
    assert padded % (128 * tensor) == 0
    assert padded - model.vocab_size < 128 * tensor


# ---------------------------------------------------------------------------
# Equation 1 / ring collectives
# ---------------------------------------------------------------------------

@given(st.floats(min_value=1.0, max_value=1e10),
       st.integers(min_value=2, max_value=64))
def test_allreduce_monotone_in_size_and_bounded(size, group):
    ring = RingParameters(bus_bandwidth=1e11, base_latency=1e-6,
                          hop_latency=1e-7)
    time = ring.allreduce_time(size, group)
    bigger = ring.allreduce_time(size * 2, group)
    assert bigger > time
    # transfer term is below 2 S / B always (the n->inf asymptote).
    latency = 1e-6 + 1e-7 * 2 * (group - 1)
    assert time - latency <= 2 * size / 1e11 + 1e-15


@given(st.integers(min_value=2, max_value=64))
def test_allreduce_group_factor_increasing(group):
    ring = RingParameters(bus_bandwidth=1e11, base_latency=0.0,
                          hop_latency=0.0)
    size = 1e9
    assert ring.allreduce_time(size, group + 1) > ring.allreduce_time(size,
                                                                      group)


# ---------------------------------------------------------------------------
# Pipeline schedules
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=64))
def test_gpipe_schedule_complete(nmb):
    order = gpipe_order(nmb)
    assert len(order) == 2 * nmb
    fwd = [c.micro_batch for c in order if c.phase == "F"]
    bwd = [c.micro_batch for c in order if c.phase == "B"]
    assert sorted(fwd) == list(range(nmb))
    assert sorted(bwd) == list(range(nmb))


@given(st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=64))
def test_1f1b_schedule_complete_and_causal(num_stages, nmb):
    for stage in range(num_stages):
        order = one_f_one_b_order(stage, num_stages, nmb)
        assert len(order) == 2 * nmb
        # A backward for micro-batch i never precedes its forward.
        seen_forward = set()
        for chunk in order:
            if chunk.phase == "F":
                seen_forward.add(chunk.micro_batch)
            else:
                assert chunk.micro_batch in seen_forward


@given(st.integers(min_value=1, max_value=32),
       st.integers(min_value=1, max_value=128))
def test_bubble_fraction_in_unit_interval(stages, nmb):
    bubble = pipeline_bubble_fraction(stages, nmb)
    assert 0.0 <= bubble < 1.0


# ---------------------------------------------------------------------------
# Engine invariants
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1,
                max_size=30))
def test_chain_iteration_time_is_sum(durations):
    asm = GraphAssembler()
    for index, duration in enumerate(durations):
        asm.add(0, COMPUTE_STREAM, duration, KIND_COMPUTE, f"t{index}")
    result = simulate(asm.finish(num_devices=1))
    assert abs(result.iteration_time - sum(durations)) < 1e-9 * len(durations)


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_graph_invariants_random_configs(data):
    """For random (model, plan): the graph is acyclic, the critical path
    lower-bounds the simulated time, and total busy time upper-bounds
    nothing less than per-device durations."""
    model = data.draw(models())
    plan = data.draw(plans_8gpu(model))
    training = TrainingConfig(global_batch_size=8)
    system = single_node()
    device = DeviceModel(system.gpu)
    lookup = OperatorToTaskTable(CuptiTracer(device))
    from repro.graph.builder import GraphBuilder
    graph = build_reference(GraphBuilder(model, system, plan, training,
                                         lookup, NcclModel(system)))
    graph.validate_acyclic()
    result = simulate(graph)
    assert critical_path_length(graph) <= result.iteration_time + 1e-12
    # Compute-stream work serialises, so its busy time bounds the
    # makespan from below; comm-stream work may overlap it (Figure 5a)
    # and is deliberately excluded.
    compute_kinds = ("compute", "tp_allreduce", "weight_update")
    for device_id, busy in result.device_busy.items():
        compute_busy = sum(busy.get(kind, 0.0) for kind in compute_kinds)
        assert compute_busy <= result.iteration_time + 1e-9


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_scaling_durations_scales_iteration_time(data):
    """Scaling every task duration by k scales the makespan by k."""
    model = data.draw(models())
    plan = data.draw(plans_8gpu(model))
    factor = data.draw(st.floats(min_value=1.1, max_value=3.0))
    training = TrainingConfig(global_batch_size=8)
    system = single_node()
    lookup = OperatorToTaskTable(CuptiTracer(DeviceModel(system.gpu)))
    from repro.graph.builder import GraphBuilder
    graph = build_reference(GraphBuilder(model, system, plan, training,
                                         lookup, NcclModel(system)))
    base = simulate(graph).iteration_time
    scaled_nodes = [TaskNode(task_id=n.task_id, device=n.device,
                             stream=n.stream, duration=n.duration * factor,
                             kind=n.kind, label=n.label, children=n.children,
                             num_parents=n.num_parents)
                    for n in graph.nodes]
    scaled = ExecutionGraph(nodes=scaled_nodes,
                            num_devices=graph.num_devices)
    assert simulate(scaled).iteration_time * (1 - 1e-9) <= base * factor \
        <= simulate(scaled).iteration_time * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Memory model
# ---------------------------------------------------------------------------

@given(st.data())
def test_memory_monotone_in_micro_batch(data):
    model = data.draw(models())
    training = TrainingConfig(global_batch_size=8)
    small = ParallelismConfig(tensor=1, data=1, pipeline=1,
                              micro_batch_size=1)
    large = ParallelismConfig(tensor=1, data=1, pipeline=1,
                              micro_batch_size=2)
    assert memory_footprint(model, large, training).total >= \
        memory_footprint(model, small, training).total


@given(st.data())
def test_memory_shrinks_with_model_parallelism(data):
    model = data.draw(models())
    training = TrainingConfig(global_batch_size=8)
    base = ParallelismConfig(tensor=1, data=1, pipeline=1)
    sharded = ParallelismConfig(tensor=model.num_heads // 2 or 1, data=1,
                                pipeline=1)
    assert memory_footprint(model, sharded, training).model_states <= \
        memory_footprint(model, base, training).model_states


# ---------------------------------------------------------------------------
# Device model and noise
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=4096),
       st.integers(min_value=1, max_value=4096),
       st.integers(min_value=1, max_value=4096))
def test_gemm_time_positive_and_bounded_below(m, n, k):
    device = DeviceModel(A100_80GB)
    kernel = device.gemm(m, n, k)
    assert kernel.duration > 0
    ideal = kernel.flops / A100_80GB.peak_fp16_flops
    assert kernel.duration >= ideal  # can't beat the speed of light


@given(st.text(min_size=1, max_size=64))
def test_noise_unit_stable_and_in_range(key):
    value = noise.unit(key)
    assert 0.0 <= value < 1.0
    assert noise.unit(key) == value


@given(st.text(min_size=1, max_size=32),
       st.floats(min_value=0.0, max_value=0.5))
def test_jitter_bounds_property(key, amplitude):
    factor = noise.jitter(key, amplitude)
    assert 1.0 - amplitude <= factor <= 1.0 + amplitude

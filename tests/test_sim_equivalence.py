"""Compiled-engine equivalence: simulate() is bit-identical to the
reference Algorithm-1 loop.

The compiled engine (precompiled replay order + flat arrays,
:func:`repro.sim.engine.simulate_retimed`) must reproduce
``graph_oracle.simulate_reference`` *exactly* — same makespan bits,
same per-device timelines, the same recorded event for every task — on
arbitrary DAGs, not just builder-shaped ones. Busy sums are added and
events listed in position order, not in Algorithm 1's pop order, so
busy accounting (values and dict insertion order) is held ``==`` to
``graph_oracle.position_order_busy`` and event order to
``structure.task_id``. These tests drive both engines over randomized
graphs (seeded generators plus hypothesis) and over real builder output
at every granularity.
"""

import random
import sys
import threading

import pytest
from graph_oracle import (GraphAssembler, build_graph, chain_levels,
                          compile_graph, position_order_busy, simulate,
                          simulate_reference)
from hypothesis import given, strategies as st

from repro.config.parallelism import ParallelismConfig, PipelineSchedule
from repro.config.system import single_node
from repro.errors import SimulationError
from repro.graph.builder import Granularity
from repro.graph.structure import ALL_KINDS, COMM_STREAM, COMPUTE_STREAM
from repro.sim.engine import simulate_retimed
from repro.sim.estimator import VTrain

STREAMS = (COMPUTE_STREAM, COMM_STREAM)


def random_graph(seed: int):
    """A random DAG via the assembler (chain edges + random back-deps)."""
    rng = random.Random(seed)
    num_devices = rng.randint(1, 4)
    num_tasks = rng.randint(1, 60)
    asm = GraphAssembler()
    for index in range(num_tasks):
        deps = ()
        if index and rng.random() < 0.6:
            deps = tuple(rng.sample(range(index),
                                    rng.randint(1, min(3, index))))
        duration = rng.choice([0.0, rng.random(), rng.random() * 10.0])
        asm.add(rng.randrange(num_devices), rng.choice(STREAMS), duration,
                rng.choice(ALL_KINDS), f"t{index}", deps=deps,
                chain=rng.random() < 0.7)
    return asm.finish(num_devices=num_devices)


def assert_bit_identical(graph):
    """Both engines, timeline recorded, every field compared exactly:
    starts and finishes to the reference loop, busy accounting to the
    position-order oracle."""
    reference = simulate_reference(graph, record_timeline=True)
    compiled = simulate(graph, record_timeline=True)
    structure = graph.compiled()
    assert compiled.iteration_time == reference.iteration_time
    assert compiled.num_tasks == reference.num_tasks
    assert compiled.device_timeline == reference.device_timeline
    assert list(compiled.device_timeline) == list(reference.device_timeline)
    expected_busy = position_order_busy(graph, structure)
    assert compiled.device_busy == expected_busy
    for device in expected_busy:
        assert list(compiled.device_busy[device]) == \
            list(expected_busy[device])
    assert [event.task_id for event in compiled.events] == \
        structure.task_id.tolist()
    by_task = {event.task_id: event for event in reference.events}
    assert compiled.events == [by_task[event.task_id]
                               for event in compiled.events]


def descendants(graph, task: int) -> list[int]:
    """Every task reachable from ``task``, in ascending id."""
    seen: set[int] = set()
    stack = [task]
    while stack:
        for child in graph.nodes[stack.pop()].children:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return sorted(seen)


@st.composite
def cyclic_graphs(draw):
    """A random DAG with 1-3 injected back edges, each closing a cycle
    of one drawn shape: a closed ring of one-in/one-out tasks (a new
    component with no head), a cycle entered at a chain head, or a cycle
    through several chains."""
    num_devices = draw(st.integers(1, 3), label="num_devices")
    asm = GraphAssembler()

    def add(label, deps=(), chain=False):
        return asm.add(draw(st.integers(0, num_devices - 1)),
                       draw(st.sampled_from(STREAMS)),
                       draw(st.sampled_from([0.0, 1.0, 2.5])),
                       draw(st.sampled_from(ALL_KINDS)), label, deps=deps,
                       chain=chain)

    for index in range(draw(st.integers(1, 30), label="num_tasks")):
        deps = (draw(st.sets(st.integers(0, index - 1), max_size=3))
                if index else set())
        add(f"t{index}", deps, draw(st.booleans()))
    dag = asm.finish(num_devices=num_devices)
    chain_of = {task: tasks[0] for tasks, _ in chain_levels(dag)
                for task in tasks}
    shape = draw(st.sampled_from(["ring", "head", "chains"]), label="shape")
    if shape == "head":
        targets = {head: descendants(dag, head)
                   for head in set(chain_of.values())}
    else:
        targets = {task: [child for child in descendants(dag, task)
                          if chain_of[child] != chain_of[task]]
                   for task in chain_of}
    targets = {task: kids for task, kids in targets.items() if kids}
    for _ in range(draw(st.integers(1, 3), label="back_edges")):
        if shape == "ring" or not targets:
            first = add("ring0")
            for index in range(1, draw(st.integers(2, 5))):
                add(f"ring{index}", (first + index - 1,))
            asm.link(len(asm.nodes) - 1, first)
        else:
            target = draw(st.sampled_from(sorted(targets)))
            asm.link(draw(st.sampled_from(targets[target])), target)
    return asm.finish(num_devices=num_devices)


class TestRandomizedDags:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_random_graphs(self, seed):
        assert_bit_identical(random_graph(seed))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(12, 60))
    def test_seeded_random_graphs_exhaustive(self, seed):
        """The long tail of seeds, run in the full (slow) lane only."""
        assert_bit_identical(random_graph(seed))

    @given(data=st.data())
    def test_hypothesis_random_graphs(self, data):
        num_devices = data.draw(st.integers(1, 3), label="num_devices")
        num_tasks = data.draw(st.integers(1, 25), label="num_tasks")
        asm = GraphAssembler()
        for index in range(num_tasks):
            deps = ()
            if index:
                deps = tuple(data.draw(
                    st.sets(st.integers(0, index - 1), max_size=3),
                    label=f"deps{index}"))
            asm.add(data.draw(st.integers(0, num_devices - 1),
                              label=f"dev{index}"),
                    data.draw(st.sampled_from(STREAMS),
                              label=f"stream{index}"),
                    data.draw(st.floats(0.0, 100.0, allow_nan=False),
                              label=f"dur{index}"),
                    data.draw(st.sampled_from(ALL_KINDS),
                              label=f"kind{index}"),
                    f"t{index}", deps=deps,
                    chain=data.draw(st.booleans(), label=f"chain{index}"))
        assert_bit_identical(asm.finish(num_devices=num_devices))


class TestBuilderGraphs:
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_all_granularities(self, granularity, tiny_model, training):
        vtrain = VTrain(single_node(), granularity=granularity)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        assert_bit_identical(build_graph(vtrain, tiny_model, plan, training))

    @pytest.mark.parametrize("plan", [
        ParallelismConfig(tensor=1, data=1, pipeline=4, micro_batch_size=2),
        ParallelismConfig(tensor=4, data=2, pipeline=1),
        ParallelismConfig(tensor=1, data=8, pipeline=1, micro_batch_size=2,
                          gradient_bucketing=False),
        ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2,
                          schedule=PipelineSchedule.GPIPE),
    ])
    def test_plan_shapes(self, plan, tiny_model, training):
        vtrain = VTrain(single_node())
        assert_bit_identical(build_graph(vtrain, tiny_model, plan, training))


class TestConcurrentFirstReads:
    def test_racing_busy_reads_see_the_reference(self, tiny_model,
                                                 training):
        """Threads racing on one result's first busy read all see the
        position-order oracle's busy dict, values and layout (the daemon
        shares cached structures)."""
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        graph = build_graph(vtrain, tiny_model, plan, training)
        structure = compile_graph(graph)
        expected = position_order_busy(graph, structure)
        layout = {device: list(kinds) for device, kinds in expected.items()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(60):
                results = [simulate_retimed(structure) for _ in range(2)]
                seen = []
                barrier = threading.Barrier(8)

                def read(result):
                    barrier.wait(timeout=30)
                    busy = result.device_busy
                    seen.append(({device: list(busy[device])
                                  for device in busy}, dict(busy)))

                threads = [threading.Thread(target=read,
                                            args=(results[index % 2],))
                           for index in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [(layout, expected)] * 8
        finally:
            sys.setswitchinterval(interval)


class TestRetime:
    def test_scaled_durations_match_scaled_graph(self, tiny_model, training):
        """Replaying a structure with 2x durations equals the reference
        engine (busy sums: the position-order oracle) on a graph whose
        node durations were doubled."""
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        graph = build_graph(vtrain, tiny_model, plan, training)
        structure = graph.compiled()
        retimed = simulate_retimed(structure, structure.duration * 2.0)
        for node in graph.nodes:
            node.duration *= 2.0
        reference = simulate_reference(graph)
        assert retimed.iteration_time == reference.iteration_time
        assert retimed.device_timeline == reference.device_timeline
        assert retimed.device_busy == position_order_busy(graph, structure)

    def test_fill_durations_matches_build(self, tiny_model, training):
        """The slot-broadcast refill reproduces build-time durations."""
        from repro.graph.builder import GraphBuilder
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        builder = GraphBuilder(tiny_model, vtrain.system, plan, training,
                               vtrain.lookup, vtrain.nccl,
                               vtrain.granularity)
        structure = builder.compile()
        refilled = builder.fill_durations(structure)
        assert refilled.tolist() == structure.duration.tolist()

    def test_retime_rejects_wrong_length(self):
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, ALL_KINDS[0], "a")
        structure = asm.finish(num_devices=1).compiled()
        with pytest.raises(SimulationError, match="entries"):
            simulate_retimed(structure, [1.0, 2.0])

    def test_retime_rejects_negative_durations(self):
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, ALL_KINDS[0], "a")
        structure = asm.finish(num_devices=1).compiled()
        with pytest.raises(SimulationError, match="non-negative"):
            simulate_retimed(structure, [-1.0])


class TestStructureDispatch:
    def test_simulate_accepts_structure(self):
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.5, ALL_KINDS[0], "a")
        graph = asm.finish(num_devices=1)
        assert simulate(graph.compiled()).iteration_time == \
            simulate_reference(graph).iteration_time

    def test_compiled_is_memoized(self):
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, ALL_KINDS[0], "a")
        graph = asm.finish(num_devices=1)
        assert graph.compiled() is graph.compiled()

    def test_simulate_sees_mutated_durations(self):
        """Durations are re-read per call: mutating a node between
        replays (sensitivity studies) works as in the reference engine,
        even though the topology is memoized."""
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, ALL_KINDS[0], "a")
        graph = asm.finish(num_devices=1)
        assert simulate(graph).iteration_time == 1.0
        graph.nodes[0].duration = 5.0
        assert simulate(graph).iteration_time == 5.0
        assert simulate(graph).iteration_time == \
            simulate_reference(graph).iteration_time

    def test_cycle_detected_through_compiled_path(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, ALL_KINDS[0], "a", chain=False)
        b = asm.add(0, COMPUTE_STREAM, 1.0, ALL_KINDS[0], "b", deps=(a,),
                    chain=False)
        asm.link(b, a)
        with pytest.raises(SimulationError, match="deadlock"):
            simulate(asm.finish(num_devices=1))

    @given(graph=cyclic_graphs())
    def test_cycles_report_the_reference_deadlock(self, graph):
        """The compile's chain pass stops on every cycle, rings of
        one-in/one-out tasks included, and counts executed tasks as
        Algorithm 1 does."""
        with pytest.raises(SimulationError) as reference:
            simulate_reference(graph)
        with pytest.raises(SimulationError) as compiled:
            simulate(graph)
        assert str(compiled.value) == str(reference.value)
        assert "tasks executed (dependency cycle)" in str(compiled.value)

    def test_empty_structure_rejected(self):
        structure = compile_graph(GraphAssembler().finish(num_devices=0))
        with pytest.raises(SimulationError, match="empty"):
            simulate_retimed(structure)

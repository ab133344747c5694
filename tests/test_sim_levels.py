"""Level replay, task by task, and the one engine rule.

``simulate_retimed_batch`` replays a structure by chain-compressed
levels: a max-fold per level sets the chain heads' starts, and a running
sum down each block of chains produces their finishes. These tests hold
every task's finish in every column bit for bit to the scalar engine's
recorded timeline — over generated chain-heavy graphs (parallel chains
with fan-in and fan-out between tails and heads, zero durations, several
roots, idle devices), a chain whose middle task feeds another chain's
head, and a Megatron 1.7B OPERATOR structure — check the terminal
cells the device clocks read against a task-by-task search of the
children, and pin
the engine rule ``use_batched_replay``: level replay once the columns
hold ``WIDTH`` tasks per level, the scalar loop otherwise and for every
recorded timeline, in ``VTrain`` and in the testbed alike.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from graph_oracle import GraphAssembler, simulate_reference
from hypothesis import given, strategies as st

from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.presets import MEGATRON_1_7B
from repro.config.system import multi_node, single_node
from repro.errors import SimulationError
from repro.graph.builder import Granularity, clear_structure_cache
from repro.graph.structure import ALL_KINDS, COMM_STREAM, COMPUTE_STREAM
from repro.sim import engine, estimator
from repro.sim.engine import WIDTH, simulate_retimed, simulate_retimed_batch, use_batched_replay
from repro.sim.estimator import VTrain
from repro.testbed.emulator import TestbedEmulator
from repro.workload import INFERENCE_PHASES, InferenceWorkload

STREAMS = (COMPUTE_STREAM, COMM_STREAM)
#: Megatron 1.7B on 2 nodes at OPERATOR granularity: 3,194 tasks in 23
#: levels (wide), and 3,680 tasks in 80 levels (narrow).
WIDE_PLAN = ParallelismConfig(tensor=2, data=4, pipeline=2, micro_batch_size=1)
NARROW_PLAN = ParallelismConfig(tensor=1, data=2, pipeline=8, micro_batch_size=1)
TRAINING = TrainingConfig(global_batch_size=64)


def bits(values):
    """Float64 values as their IEEE-754 bit patterns."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def task_cells(packed):
    """Each task's cell, read from the steps' blocks: row 0 of a block
    holds its chains' head starts, and every later row one task per
    chain."""
    cells = np.concatenate(
        [
            np.arange(first + (end - first) // rows, end)
            for _, _, _, blocks in packed.steps
            for first, end, rows in blocks
        ]
    )
    task_cell = np.full(cells.size, -1)
    task_cell[packed.cell_task[cells]] = cells
    return task_cell


def assert_finishes_match_scalar(structure, matrix):
    """Every task's finish in every column, and every public batch
    result, equal a scalar replay of that column bit for bit."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    batch = simulate_retimed_batch(structure, matrix)
    assert len(batch) == matrix.shape[1]
    if not len(batch):
        return
    packed = structure.level_plan().packed()
    finishes = engine._level_sweep(packed, matrix)[task_cells(packed)]
    for column in range(matrix.shape[1]):
        scalar = simulate_retimed(structure, matrix[:, column], record_timeline=True)
        finish_of = {event.task_id: event.finish for event in scalar.events}
        expected = [finish_of[task] for task in structure.task_id.tolist()]
        assert np.array_equal(bits(finishes[:, column]), bits(expected)), column
        result = batch.column(column)
        assert bits(result.iteration_time) == bits(scalar.iteration_time)
        assert result.device_timeline == scalar.device_timeline
        assert result.device_busy == scalar.device_busy


@st.composite
def chain_heavy_structures(draw):
    """Parallel chains of 1-30 tasks. Each head waits on up to three
    earlier chains' tails (fan-in), a tail may feed several heads
    (fan-out), chains without parents are extra roots, and the last
    device runs nothing."""
    num_devices = draw(st.integers(2, 4), label="num_devices")
    asm = GraphAssembler()
    tails = []
    for chain in range(draw(st.integers(1, 12), label="num_chains")):
        parents = draw(st.sets(st.sampled_from(tails), max_size=3)) if tails else set()
        device = draw(st.integers(0, num_devices - 2))
        stream = draw(st.sampled_from(STREAMS))
        kind = draw(st.sampled_from(ALL_KINDS))
        task = None
        for index in range(draw(st.integers(1, 30), label="length")):
            deps = parents if task is None else (task,)
            task = asm.add(device, stream, 1.0, kind, f"c{chain}.{index}", deps=deps, chain=False)
        tails.append(task)
    return asm.finish(num_devices=num_devices).compiled()


def random_durations(structure, seed, batch_size):
    """Random columns with about a fifth of the durations zero."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.0, 10.0, (structure.num_tasks, batch_size))
    matrix[rng.random(matrix.shape) < 0.2] = 0.0
    return matrix


class TestTaskFinishes:
    @given(
        structure=chain_heavy_structures(),
        batch_size=st.sampled_from([0, 1, 2, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chain_heavy_graphs(self, structure, batch_size, seed):
        assert_finishes_match_scalar(structure, random_durations(structure, seed, batch_size))

    def test_wide_blocks_of_equal_chains(self):
        """Eight equal chains fanned out from one root and back into one
        sink: at N=64 their blocks are wide enough to add row by row."""
        asm = GraphAssembler()
        kind = ALL_KINDS[0]
        root = asm.add(0, COMPUTE_STREAM, 1.0, kind, "root", chain=False)
        tails = []
        for chain in range(8):
            task = root
            for index in range(5):
                label = f"c{chain}.{index}"
                task = asm.add(1, COMM_STREAM, 1.0, kind, label, deps=(task,), chain=False)
            tails.append(task)
        asm.add(0, COMPUTE_STREAM, 1.0, kind, "sink", deps=tails, chain=False)
        structure = asm.finish(num_devices=3).compiled()
        for batch_size in (1, 64):
            assert_finishes_match_scalar(structure, random_durations(structure, 1, batch_size))

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_megatron_operator_structure(self, batch_size):
        vtrain = VTrain(multi_node(2), granularity=Granularity.OPERATOR)
        prepared = vtrain.prepare(MEGATRON_1_7B, WIDE_PLAN, TRAINING)
        structure = prepared.structure
        rng = np.random.default_rng(batch_size)
        scale = rng.uniform(0.5, 1.5, (structure.num_tasks, batch_size))
        assert_finishes_match_scalar(structure, prepared.durations[:, None] * scale)


class TestLevelPlan:
    def test_diamond_then_chain(self):
        """a -> {b, c} -> d -> e -> f: b, a's first one-parent child,
        continues a's chain, so the chains are {a, b}, {c}, {d, e, f} in
        levels 0, 1 and 2."""
        asm = GraphAssembler()
        kind = ALL_KINDS[0]
        a = asm.add(0, COMPUTE_STREAM, 1.0, kind, "a", chain=False)
        b = asm.add(0, COMPUTE_STREAM, 2.0, kind, "b", deps=(a,), chain=False)
        c = asm.add(0, COMM_STREAM, 3.0, kind, "c", deps=(a,), chain=False)
        d = asm.add(0, COMPUTE_STREAM, 4.0, kind, "d", deps=(b, c), chain=False)
        e = asm.add(0, COMPUTE_STREAM, 5.0, kind, "e", deps=(d,), chain=False)
        asm.add(0, COMPUTE_STREAM, 6.0, kind, "f", deps=(e,), chain=False)
        structure = asm.finish(num_devices=1).compiled()
        plan = structure.level_plan()
        assert (plan.num_chains, plan.num_levels) == (3, 3)
        packed = plan.packed()
        assert packed.cell_task.size == structure.num_tasks + plan.num_chains
        assert simulate_retimed_batch(structure, structure.duration[:, None]).makespans[0] == 19.0

    def test_cross_edge_leaves_the_middle_of_a_chain(self):
        """x0 -> x1 -> x2 is one chain, and x1 also feeds y, which waits on
        z too: that cross edge's parent cell is not its chain's last, and
        both engines give every task the reference start and finish."""
        asm = GraphAssembler()
        kind = ALL_KINDS[0]
        x0 = asm.add(0, COMPUTE_STREAM, 1.0, kind, "x0", chain=False)
        x1 = asm.add(0, COMPUTE_STREAM, 2.0, kind, "x1", deps=(x0,), chain=False)
        x2 = asm.add(0, COMPUTE_STREAM, 3.0, kind, "x2", deps=(x1,), chain=False)
        z = asm.add(1, COMPUTE_STREAM, 2.5, kind, "z", chain=False)
        y = asm.add(1, COMM_STREAM, 4.0, kind, "y", deps=(x1, z), chain=False)
        asm.add(1, COMPUTE_STREAM, 1.0, kind, "w", deps=(y, x2), chain=False)
        graph = asm.finish(num_devices=2)
        structure = graph.compiled()
        position = np.empty(structure.num_tasks, dtype=np.intp)
        position[structure.task_id] = np.arange(structure.num_tasks)
        assert position[x2] == position[x1] + 1 == position[x0] + 2
        packed = structure.level_plan().packed()
        last_cells = set()
        for _, _, _, blocks in packed.steps:
            for first, end, rows in blocks:
                chains = (end - first) // rows
                last_cells.update(range(end - chains, end))
        middle = task_cells(packed)[position[x1]]
        assert any(middle in edges for edges, _, _, _ in packed.steps[1:])
        assert middle not in last_cells

        reference = simulate_reference(graph, record_timeline=True)
        expected = {event.task_id: (event.start, event.finish) for event in reference.events}
        scalar = simulate_retimed(structure, record_timeline=True)
        assert {event.task_id: (event.start, event.finish) for event in scalar.events} == expected
        finishes = engine._level_sweep(packed, structure.duration[:, None])[task_cells(packed), 0]
        assert dict(zip(structure.task_id.tolist(), finishes.tolist())) == {
            task: finish for task, (_, finish) in expected.items()
        }
        assert expected[y] == (3.0, 7.0)

    def test_plan_keeps_no_cycle_to_its_structure(self):
        """An evicted structure and its plan go at once, not whenever the
        cyclic collector runs: held over into the next cold build, they
        raised peak memory by a whole structure."""
        structure = independent_tasks(8)
        structure.level_plan().packed()
        collected = weakref.ref(structure)
        gc.disable()
        try:
            del structure
            assert collected() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("read", [False, True])
    def test_results_keep_no_structure_alive(self, batched, read):
        """Results of either engine never keep their structure: an
        unread busy dict keeps only the structure's busy buckets and
        layout with its own durations, and a read one nothing."""
        structure = independent_tasks(8)
        expected = [{0: {ALL_KINDS[0]: 8.0}}] * 2
        if batched:
            batch = simulate_retimed_batch(structure, np.ones((8, 2)))
            results = [batch.column(0), batch.column(1)]
            del batch
        else:
            results = [simulate_retimed(structure), simulate_retimed(structure)]
        if read:
            assert [dict(result.device_busy) for result in results] == expected
        collected = weakref.ref(structure)
        gc.disable()
        try:
            del structure
            assert collected() is None
            assert [result.device_busy for result in results] == expected
        finally:
            gc.enable()

    def test_cross_parents_sit_in_earlier_levels(self):
        vtrain = VTrain(multi_node(2), granularity=Granularity.OPERATOR)
        structure = vtrain.prepare(MEGATRON_1_7B, WIDE_PLAN, TRAINING).structure
        plan = structure.level_plan()
        packed = plan.packed()
        task_cell = task_cells(packed)
        head_cell = np.concatenate([heads for _, _, heads, _ in packed.steps])
        assert packed.cell_task.size == structure.num_tasks + plan.num_chains
        assert np.unique(task_cell).size == structure.num_tasks
        assert not np.isin(head_cell, task_cell).any()
        level_of_cell = np.empty(packed.cell_task.size, dtype=np.intp)
        for level, (_, _, _, blocks) in enumerate(packed.steps):
            first = blocks[0][0]
            last = blocks[-1][1]
            level_of_cell[first:last] = level
        for level, (edges, _, heads, _) in enumerate(packed.steps[1:], 1):
            assert (level_of_cell[edges] < level).all()
            assert (level_of_cell[heads] == level).all()
        assert (level_of_cell[packed.steps[0][2]] == 0).all()


@st.composite
def mixed_device_structures(draw):
    """DAGs of 1-40 tasks, each on a drawn device and stream, so a
    chain's next task may run on another device and a task's children
    on several."""
    num_devices = draw(st.integers(1, 3), label="num_devices")
    asm = GraphAssembler()
    for index in range(draw(st.integers(1, 40), label="num_tasks")):
        deps = draw(st.sets(st.integers(0, index - 1), max_size=3)) if index else set()
        asm.add(
            draw(st.integers(0, num_devices - 1)),
            draw(st.sampled_from(STREAMS)),
            1.0,
            draw(st.sampled_from(ALL_KINDS)),
            f"t{index}",
            deps=deps,
            chain=draw(st.booleans()),
        )
    return asm.finish(num_devices=num_devices).compiled()


def assert_terminal_cells(structure):
    """The packed terminal cells are the cells of exactly the positions
    with no child on their own device, found task by task from the CSR,
    grouped by device, and every device with tasks has at least one."""
    packed = structure.level_plan().packed()
    device = structure.device.tolist()
    ptr = structure.child_ptr.tolist()
    children = structure.child_idx.tolist()
    terminal = [
        position
        for position, owner in enumerate(device)
        if all(device[child] != owner for child in children[ptr[position] : ptr[position + 1]])
    ]
    assert sorted(packed.terminal_cells.tolist()) == sorted(task_cells(packed)[terminal].tolist())
    assert packed.present_devices.tolist() == sorted(set(device))
    bounds = np.append(packed.device_seg, packed.terminal_cells.size)
    for owner, low, high in zip(packed.present_devices.tolist(), bounds[:-1], bounds[1:]):
        assert low < high
        positions = packed.cell_task[packed.terminal_cells[low:high]]
        assert {device[position] for position in positions.tolist()} == {owner}


class TestTerminalCells:
    @given(structure=mixed_device_structures())
    def test_mixed_device_graphs(self, structure):
        assert_terminal_cells(structure)

    @given(structure=chain_heavy_structures())
    def test_chain_heavy_graphs(self, structure):
        assert_terminal_cells(structure)

    @pytest.mark.parametrize("granularity", list(Granularity), ids=lambda value: value.value)
    @pytest.mark.parametrize(
        "phase", [None, *INFERENCE_PHASES], ids=lambda value: value or "training"
    )
    def test_builder_graphs(self, tiny_model, training, granularity, phase):
        vtrain = VTrain(single_node(), granularity=granularity)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
        if phase is None:
            prepared = vtrain.prepare(tiny_model, plan, training)
        else:
            workload = InferenceWorkload(batch_size=8, prompt_len=64, gen_len=16)
            prepared = vtrain.prepare(tiny_model, plan, None, workload=workload, phase=phase)
        assert_terminal_cells(prepared.structure)

    @pytest.mark.parametrize("granularity", list(Granularity), ids=lambda value: value.value)
    def test_interleaved_builder_graphs(self, tiny_model, training, granularity):
        vtrain = VTrain(single_node(), granularity=granularity)
        plan = ParallelismConfig(tensor=2, data=1, pipeline=2, micro_batch_size=2, virtual_stages=2)
        assert_terminal_cells(vtrain.prepare(tiny_model, plan, training).structure)


def count_engines(monkeypatch, module):
    """Count the engine calls made through ``module``'s bindings."""
    calls = {"scalar": 0, "batched": []}
    scalar_engine = module.simulate_retimed
    batch_engine = module.simulate_retimed_batch

    def scalar(*args, **kwargs):
        calls["scalar"] += 1
        return scalar_engine(*args, **kwargs)

    def batched(structure, matrix, **kwargs):
        calls["batched"].append(matrix.shape[1])
        return batch_engine(structure, matrix, **kwargs)

    monkeypatch.setattr(module, "simulate_retimed", scalar)
    monkeypatch.setattr(module, "simulate_retimed_batch", batched)
    return calls


def independent_tasks(count):
    """``count`` tasks without edges: one-task chains, all in level 0."""
    asm = GraphAssembler()
    for index in range(count):
        asm.add(0, COMPUTE_STREAM, 1.0, ALL_KINDS[0], f"t{index}", chain=False)
    return asm.finish(num_devices=1).compiled()


def columns_to_batch(structure):
    """The fewest columns the width rule batches."""
    plan = structure.level_plan()
    return math.ceil(WIDTH * plan.num_levels / structure.num_tasks)


class TestEngineRule:
    def test_exactly_width_tasks_per_level_is_batched(self):
        structure = independent_tasks(WIDTH // 2)
        assert structure.level_plan().num_levels == 1
        assert not use_batched_replay(structure, 1)
        assert use_batched_replay(structure, 2)
        assert use_batched_replay(independent_tasks(WIDTH), 1)

    def test_recorded_timelines_are_scalar(self):
        structure = independent_tasks(WIDTH)
        assert not use_batched_replay(structure, 1000, record_timeline=True)

    def test_narrow_replays_scalar_without_packing(self, tiny_model, training, monkeypatch):
        clear_structure_cache()
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
        vtrain = VTrain(single_node())
        calls = count_engines(monkeypatch, estimator)
        vtrain.predict(tiny_model, plan, training)
        assert calls == {"scalar": 1, "batched": []}
        structure = vtrain.prepare(tiny_model, plan, training).structure
        assert columns_to_batch(structure) > 1
        assert structure.level_plan()._packed is None

    def test_narrow_batches_from_width_columns(self, tiny_model, training, monkeypatch):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
        vtrain = VTrain(single_node())
        checked = vtrain.prepare_checked(tiny_model, plan, training)
        reference = vtrain.predict_prepared([checked])[0]
        needed = columns_to_batch(checked.phases[0].structure)
        calls = count_engines(monkeypatch, estimator)
        fewer = vtrain.predict_prepared([checked] * (needed - 1))
        assert calls == {"scalar": needed - 1, "batched": []}
        enough = vtrain.predict_prepared([checked] * needed)
        assert calls == {"scalar": needed - 1, "batched": [needed]}
        for prediction in fewer + enough:
            assert prediction == reference

    def test_wide_structure_batches_one_column(self, monkeypatch):
        vtrain = VTrain(multi_node(2), granularity=Granularity.OPERATOR)
        checked = vtrain.prepare_checked(MEGATRON_1_7B, WIDE_PLAN, TRAINING)
        prepared = checked.phases[0]
        assert columns_to_batch(prepared.structure) == 1
        calls = count_engines(monkeypatch, estimator)
        [prediction] = vtrain.predict_prepared([checked])
        assert calls == {"scalar": 0, "batched": [1]}
        monkeypatch.undo()
        structure, durations = prepared.structure, prepared.durations
        scalar = simulate_retimed(structure, durations, metadata=prepared.metadata)
        assert prediction.simulation == scalar

    def test_recorded_timeline_predict_is_scalar(self, monkeypatch):
        vtrain = VTrain(multi_node(2), granularity=Granularity.OPERATOR)
        checked = vtrain.prepare_checked(MEGATRON_1_7B, WIDE_PLAN, TRAINING)
        calls = count_engines(monkeypatch, estimator)
        predictions = vtrain.predict_prepared([checked] * 3, record_timeline=True)
        assert calls == {"scalar": 3, "batched": []}
        assert all(p.simulation.events is not None for p in predictions)

    def test_testbed_follows_the_rule(self, monkeypatch):
        testbed = TestbedEmulator(multi_node(2))
        vtrain = VTrain(multi_node(2), granularity=Granularity.OPERATOR)
        narrow = vtrain.prepare(MEGATRON_1_7B, NARROW_PLAN, TRAINING).structure
        needed = columns_to_batch(narrow)
        assert needed > 1
        calls = count_engines(monkeypatch, estimator)
        wide = testbed.measure_samples(MEGATRON_1_7B, WIDE_PLAN, TRAINING, 1)
        assert calls == {"scalar": 0, "batched": [1]}
        fewer = testbed.measure_samples(MEGATRON_1_7B, NARROW_PLAN, TRAINING, needed - 1)
        assert calls == {"scalar": needed - 1, "batched": [1]}
        enough = testbed.measure_samples(MEGATRON_1_7B, NARROW_PLAN, TRAINING, needed)
        assert calls == {"scalar": needed - 1, "batched": [1, needed]}
        assert enough[: needed - 1] == fewer
        monkeypatch.undo()
        assert wide == [testbed.measure(MEGATRON_1_7B, WIDE_PLAN, TRAINING)]


class TestNonFiniteDurations:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_scalar_engine_rejects(self, value):
        structure = independent_tasks(4)
        durations = np.ones(4)
        durations[2] = value
        with pytest.raises(SimulationError, match="finite"):
            simulate_retimed(structure, durations)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_batched_engine_rejects(self, value):
        structure = independent_tasks(4)
        matrix = np.ones((4, 3))
        matrix[2, 1] = value
        with pytest.raises(SimulationError, match="finite"):
            simulate_retimed_batch(structure, matrix)

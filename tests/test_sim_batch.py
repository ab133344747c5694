"""Batched-engine equivalence: every simulate_retimed_batch column is
bit-identical to a scalar simulate_retimed replay of that column.

The batched sweep replays chains of tasks level by level and propagates
all N duration columns together, but each column still performs the
exact float operations of the scalar engine: the same IEEE-754 adds in
the same order along every chain, and exact, order-independent maxima
everywhere chains combine. These tests pin that contract — same makespan
bits, same per-device timelines, same busy accounting (values and dict
insertion order) — over randomized DAGs (seeded generators plus
hypothesis), real builder structures, awkward input layouts (N=0, N=1,
strided views, Fortran order, float32), device clocks held by a
comm-stream task, one column (a 1-D sweep) against column 0 of three,
and the batched consumer surfaces (``VTrain.predict_prepared`` and the
DSE explorer's ``evaluate_batch``), which group the columns sharing a
structure.
Per-task finishes and the engine rule are pinned in
``tests/test_sim_levels.py``.
"""

import random

import numpy as np
import pytest
from graph_oracle import GraphAssembler
from hypothesis import given, strategies as st

from repro.config.parallelism import ParallelismConfig
from repro.config.system import single_node
from repro.dse.explorer import DesignSpaceExplorer
from repro.errors import SimulationError
from repro.graph.builder import Granularity
from repro.graph.structure import ALL_KINDS, COMM_STREAM, COMPUTE_STREAM, KIND_PP_COMM
from repro.sim.engine import simulate_retimed, simulate_retimed_batch
from repro.sim.estimator import VTrain

STREAMS = (COMPUTE_STREAM, COMM_STREAM)


def random_structure(seed):
    """A compiled random DAG (chain edges + random back-deps)."""
    rng = random.Random(seed)
    num_devices = rng.randint(1, 4)
    num_tasks = rng.randint(1, 60)
    asm = GraphAssembler()
    for index in range(num_tasks):
        deps = ()
        if index and rng.random() < 0.6:
            deps = tuple(rng.sample(range(index), rng.randint(1, min(3, index))))
        duration = rng.choice([0.0, rng.random(), rng.random() * 10.0])
        asm.add(
            rng.randrange(num_devices),
            rng.choice(STREAMS),
            duration,
            rng.choice(ALL_KINDS),
            f"t{index}",
            deps=deps,
            chain=rng.random() < 0.7,
        )
    return asm.finish(num_devices=num_devices).compiled()


def random_matrix(structure, seed, batch_size):
    """Per-column random retimings of the structure's build durations."""
    rng = np.random.default_rng(seed)
    base = np.asarray(structure.duration, dtype=np.float64)
    return base[:, None] * rng.uniform(0.0, 2.0, (structure.num_tasks, batch_size))


def assert_columns_bit_identical(structure, matrix):
    """Batched replay vs one scalar replay per column, field for field."""
    matrix = np.asarray(matrix, dtype=np.float64)
    batch = simulate_retimed_batch(structure, matrix)
    assert len(batch) == matrix.shape[1]
    assert batch.makespans.shape == (matrix.shape[1],)
    assert batch.iteration_times() == batch.makespans.tolist()
    for col in range(matrix.shape[1]):
        scalar = simulate_retimed(structure, np.ascontiguousarray(matrix[:, col]))
        result = batch.column(col)
        assert result.iteration_time == scalar.iteration_time
        assert result.num_tasks == scalar.num_tasks
        assert result.device_timeline == scalar.device_timeline
        assert list(result.device_timeline) == list(scalar.device_timeline)
        assert result.device_busy == scalar.device_busy
        for device in scalar.device_busy:
            assert list(result.device_busy[device]) == list(scalar.device_busy[device])
        assert result.events is None
        assert result.metadata == scalar.metadata


def bits(values):
    """Float64 values as their IEEE-754 bit patterns."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_one_column_matches(structure, matrix):
    """A one-column batch (the sweep over the 1-D view of its cells)
    equals column 0 of the three-column batch and the scalar loop bit
    for bit, in device clocks and makespan."""
    one = simulate_retimed_batch(structure, matrix[:, :1])
    three = simulate_retimed_batch(structure, matrix)
    scalar = simulate_retimed(structure, np.ascontiguousarray(matrix[:, 0]))
    clocks = [scalar.device_timeline[device] for device in range(structure.num_devices)]
    for batch in (one, three):
        assert bits(batch.makespans[0]) == bits(scalar.iteration_time)
        assert np.array_equal(bits(batch.device_timeline[:, 0]), bits(clocks))


class TestRandomizedDags:
    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_random_graphs(self, seed):
        structure = random_structure(seed)
        assert_columns_bit_identical(structure, random_matrix(structure, seed, 7))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(10, 40))
    def test_seeded_random_graphs_exhaustive(self, seed):
        structure = random_structure(seed)
        assert_columns_bit_identical(structure, random_matrix(structure, seed, 16))

    @given(data=st.data())
    def test_hypothesis_random_graphs(self, data):
        num_devices = data.draw(st.integers(1, 3), label="num_devices")
        num_tasks = data.draw(st.integers(1, 20), label="num_tasks")
        asm = GraphAssembler()
        for index in range(num_tasks):
            deps = ()
            if index:
                drawn = data.draw(st.sets(st.integers(0, index - 1), max_size=3), label=f"d{index}")
                deps = tuple(drawn)
            asm.add(
                data.draw(st.integers(0, num_devices - 1), label=f"dev{index}"),
                data.draw(st.sampled_from(STREAMS), label=f"stream{index}"),
                data.draw(st.floats(0.0, 100.0, allow_nan=False), label=f"dur{index}"),
                data.draw(st.sampled_from(ALL_KINDS), label=f"kind{index}"),
                f"t{index}",
                deps=deps,
                chain=data.draw(st.booleans(), label=f"chain{index}"),
            )
        structure = asm.finish(num_devices=num_devices).compiled()
        batch_size = data.draw(st.integers(0, 5), label="batch_size")
        cells = [
            data.draw(st.floats(0.0, 100.0, allow_nan=False), label=f"cell{index}")
            for index in range(num_tasks * batch_size)
        ]
        matrix = np.asarray(cells, dtype=np.float64).reshape(num_tasks, batch_size)
        assert_columns_bit_identical(structure, matrix)


class TestInputLayouts:
    def test_batch_of_zero_columns(self):
        structure = random_structure(3)
        batch = simulate_retimed_batch(structure, np.empty((structure.num_tasks, 0)))
        assert len(batch) == 0
        assert batch.makespans.shape == (0,)
        assert batch.iteration_times() == []
        assert batch.device_timeline.shape == (structure.num_devices, 0)

    def test_batch_of_one_column(self):
        structure = random_structure(4)
        matrix = random_matrix(structure, 4, 1)
        assert_columns_bit_identical(structure, matrix)

    def test_non_contiguous_view_matches_contiguous(self):
        structure = random_structure(5)
        wide = random_matrix(structure, 5, 12)
        strided = simulate_retimed_batch(structure, wide[:, ::3])
        contiguous = simulate_retimed_batch(structure, np.ascontiguousarray(wide[:, ::3]))
        assert strided.makespans.tolist() == contiguous.makespans.tolist()
        assert_columns_bit_identical(structure, wide[:, ::3])

    def test_fortran_order_matches_c_order(self):
        structure = random_structure(6)
        matrix = random_matrix(structure, 6, 5)
        fortran = simulate_retimed_batch(structure, np.asfortranarray(matrix))
        c_order = simulate_retimed_batch(structure, matrix)
        assert fortran.makespans.tolist() == c_order.makespans.tolist()

    def test_float32_input_is_upcast_once(self):
        """A float32 matrix replays exactly like its float64 upcast."""
        structure = random_structure(7)
        matrix32 = random_matrix(structure, 7, 6).astype(np.float32)
        batch32 = simulate_retimed_batch(structure, matrix32)
        batch64 = simulate_retimed_batch(structure, matrix32.astype(np.float64))
        assert batch32.makespans.tolist() == batch64.makespans.tolist()

    def test_nested_list_input(self):
        structure = random_structure(8)
        matrix = random_matrix(structure, 8, 3)
        from_list = simulate_retimed_batch(structure, matrix.tolist())
        from_array = simulate_retimed_batch(structure, matrix)
        assert from_list.makespans.tolist() == from_array.makespans.tolist()


class TestDeviceClocks:
    @pytest.mark.parametrize("seed", range(10))
    def test_one_column_is_column_zero_of_three(self, seed):
        structure = random_structure(seed)
        assert_one_column_matches(structure, random_matrix(structure, seed, 3))

    def test_one_column_on_a_builder_structure(self, tiny_model, training):
        vtrain = VTrain(single_node(), granularity=Granularity.OPERATOR)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
        structure = vtrain.prepare(tiny_model, plan, training).structure
        assert_one_column_matches(structure, random_matrix(structure, 12, 3))

    def test_send_receive_holds_a_device_clock(self, tiny_model, training):
        """A long ``pp:`` slot and short ``wu:`` slots leave the last
        stage's clock on its last backward Send-Receive, a comm-stream
        task past every compute task of that stage: no clock read from
        compute tasks alone would match the scalar loop."""
        vtrain = VTrain(single_node(), granularity=Granularity.OPERATOR)
        plan = ParallelismConfig(tensor=1, data=1, pipeline=2, micro_batch_size=2)
        structure = vtrain.prepare(tiny_model, plan, training).structure
        tags = [key.split(":")[0] for key in structure.slot_keys]
        slots = np.array([{"pp": 100.0, "wu": 0.5}.get(tag, 1.0) for tag in tags])
        durations = slots[structure.slot_index]
        scalar = simulate_retimed(structure, durations, record_timeline=True)
        events = [event for event in scalar.events if event.device == 1]
        last = max(events, key=lambda event: event.finish)
        assert (last.stream, last.kind) == (COMM_STREAM, KIND_PP_COMM)
        assert last.finish > max(e.finish for e in events if e.stream == COMPUTE_STREAM)
        matrix = np.stack([durations, 2 * durations, durations / 2], axis=1)
        for width in (1, 3):
            batch = simulate_retimed_batch(structure, matrix[:, :width])
            assert batch.column(0).device_timeline == scalar.device_timeline
            assert batch.makespans[0] == scalar.iteration_time


class TestValidation:
    def test_wrong_row_count_rejected(self):
        structure = random_structure(9)
        matrix = random_matrix(structure, 9, 2)
        with pytest.raises(SimulationError, match="shape"):
            simulate_retimed_batch(structure, matrix[:-1])

    def test_wrong_rank_rejected(self):
        structure = random_structure(9)
        with pytest.raises(SimulationError, match="shape"):
            simulate_retimed_batch(structure, np.zeros(structure.num_tasks))

    def test_negative_durations_rejected(self):
        structure = random_structure(9)
        matrix = random_matrix(structure, 9, 2)
        matrix[0, 1] = -1.0
        with pytest.raises(SimulationError, match="non-negative"):
            simulate_retimed_batch(structure, matrix)

    def test_empty_structure_rejected(self):
        structure = GraphAssembler().finish(num_devices=0).compiled()
        with pytest.raises(SimulationError, match="empty"):
            simulate_retimed_batch(structure, np.empty((0, 4)))


class TestBuilderStructures:
    def test_builder_structure_columns(self, tiny_model, training):
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
        prepared = vtrain.prepare(tiny_model, plan, training)
        matrix = random_matrix(prepared.structure, 11, 9)
        assert_columns_bit_identical(prepared.structure, matrix)

    def test_column_metadata_override(self, tiny_model, training):
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
        prepared = vtrain.prepare(tiny_model, plan, training)
        matrix = np.asarray(prepared.durations, dtype=np.float64)[:, None]
        batch = simulate_retimed_batch(prepared.structure, matrix)
        scalar = simulate_retimed(
            prepared.structure, prepared.durations, metadata=prepared.metadata
        )
        assert batch.column(0, metadata=prepared.metadata).metadata == scalar.metadata


class TestPredictPrepared:
    def plans(self):
        plans = [
            ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=m)
            for m in (1, 2, 4, 8)
        ]
        plans.append(ParallelismConfig(tensor=4, data=2, pipeline=1, micro_batch_size=2))
        return plans

    def shared_plans(self):
        """Three plans that compile to one structure, plus one that does not."""
        return [
            ParallelismConfig(tensor=2, data=2, pipeline=1, micro_batch_size=2),
            ParallelismConfig(tensor=2, data=4, pipeline=1, micro_batch_size=1),
            ParallelismConfig(tensor=4, data=2, pipeline=1, micro_batch_size=2),
            ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2),
        ]

    def test_predict_prepared_matches_scalar_predict(self, tiny_model, training):
        scalar_sim = VTrain(single_node())
        scalar = [scalar_sim.predict(tiny_model, plan, training) for plan in self.plans()]
        batch_sim = VTrain(single_node())
        entries = [batch_sim.prepare_checked(tiny_model, plan, training) for plan in self.plans()]
        batched = batch_sim.predict_prepared(entries)
        assert batch_sim.num_predictions == len(self.plans())
        for one, other in zip(scalar, batched):
            assert one.iteration_time == other.iteration_time
            assert one.gpu_compute_utilization == other.gpu_compute_utilization
            assert one.memory_per_gpu == other.memory_per_gpu
            assert one.simulation.device_timeline == other.simulation.device_timeline
            assert one.simulation.device_busy == other.simulation.device_busy

    def test_predict_prepared_groups_shared_structures(self, tiny_model, training, monkeypatch):
        """Plans resolving to one cached structure are one engine choice
        of three columns."""
        from repro.sim import estimator

        asked = []
        rule = estimator.use_batched_replay

        def recording(structure, columns, **kwargs):
            asked.append(columns)
            return rule(structure, columns, **kwargs)

        vtrain = VTrain(single_node())
        entries = [
            vtrain.prepare_checked(tiny_model, plan, training) for plan in self.shared_plans()
        ]
        assert len({id(entry.phases[0].structure) for entry in entries}) == 2
        monkeypatch.setattr(estimator, "use_batched_replay", recording)
        predictions = vtrain.predict_prepared(entries)
        monkeypatch.undo()
        assert asked == [3, 1]
        for entry, prediction in zip(entries, predictions):
            reference = VTrain(single_node()).predict(tiny_model, entry.plan, training)
            assert prediction.iteration_time == reference.iteration_time
            assert prediction.simulation.device_busy == reference.simulation.device_busy

    def test_inference_phases_sharing_a_structure_batch(self, tiny_model, monkeypatch):
        """Serving replicas (t=1, p=1) share both phase graphs: one
        engine choice of three columns per phase."""
        from repro.sim import estimator
        from repro.workload import InferenceWorkload

        workload = InferenceWorkload(batch_size=8, prompt_len=128, gen_len=64)
        plans = [
            ParallelismConfig(tensor=1, data=d, pipeline=1, micro_batch_size=2) for d in (2, 4, 8)
        ]
        vtrain = VTrain(single_node())
        entries = [vtrain.prepare_checked(tiny_model, plan, workload=workload) for plan in plans]
        asked = []
        rule = estimator.use_batched_replay

        def recording(structure, columns, **kwargs):
            asked.append(columns)
            return rule(structure, columns, **kwargs)

        monkeypatch.setattr(estimator, "use_batched_replay", recording)
        predictions = vtrain.predict_prepared(entries)
        monkeypatch.undo()
        assert asked == [3, 3]
        for plan, prediction in zip(plans, predictions):
            reference = VTrain(single_node()).predict_inference(tiny_model, plan, workload)
            assert prediction == reference


class TestEvaluateBatch:
    def test_evaluate_batch_matches_scalar_evaluate(self, tiny_model, training):
        plans = [
            ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=m)
            for m in (1, 2, 4)
        ]
        plans.append(ParallelismConfig(tensor=8, data=8, pipeline=8))  # infeasible: 512 GPUs
        scalar_explorer = DesignSpaceExplorer(tiny_model, training)
        scalar = [scalar_explorer.evaluate(plan) for plan in plans]
        batch_explorer = DesignSpaceExplorer(tiny_model, training)
        batched = batch_explorer.evaluate_batch(plans)
        assert batched == scalar

    def test_explore_is_bit_identical_to_per_plan_evaluate(self, tiny_model, training):
        explorer = DesignSpaceExplorer(tiny_model, training)
        result = explorer.explore(max_gpus=8)
        reference = DesignSpaceExplorer(tiny_model, training)
        for point in result.points:
            assert point == reference.evaluate(point.plan)

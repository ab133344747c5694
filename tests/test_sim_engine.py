"""Unit tests for the Algorithm-1 simulation engine."""

import pytest
from graph_oracle import (ExecutionGraph, GraphAssembler, build_graph,
                          critical_path_length, simulate,
                          stream_serialisation_check)

from repro.config.parallelism import PipelineSchedule
from repro.errors import SimulationError
from repro.graph.builder import Granularity
from repro.graph.structure import (COMM_STREAM, COMPUTE_STREAM,
                                   KIND_COMPUTE, KIND_DP_COMM)
from repro.sim.engine import compute_idle_fraction


def chain_graph(durations):
    asm = GraphAssembler()
    for index, duration in enumerate(durations):
        asm.add(0, COMPUTE_STREAM, duration, KIND_COMPUTE, f"t{index}")
    return asm.finish(num_devices=1)


class TestBasics:
    def test_chain_sums(self):
        result = simulate(chain_graph([1.0, 2.0, 3.0]))
        assert result.iteration_time == pytest.approx(6.0)
        assert result.num_tasks == 3

    def test_parallel_devices_take_max(self):
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 2.0, KIND_COMPUTE, "a")
        asm.add(1, COMPUTE_STREAM, 5.0, KIND_COMPUTE, "b")
        result = simulate(asm.finish(num_devices=2))
        assert result.iteration_time == pytest.approx(5.0)
        assert result.device_timeline[0] == pytest.approx(2.0)
        assert result.device_timeline[1] == pytest.approx(5.0)

    def test_dependency_delays_child(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 3.0, KIND_COMPUTE, "a")
        asm.add(1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "b", deps=(a,))
        result = simulate(asm.finish(num_devices=2))
        assert result.iteration_time == pytest.approx(4.0)

    def test_empty_graph_rejected(self):
        with pytest.raises(SimulationError):
            simulate(ExecutionGraph(nodes=[], num_devices=0))

    def test_cycle_detected(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a", chain=False)
        b = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "b", deps=(a,),
                    chain=False)
        asm.link(b, a)
        with pytest.raises(SimulationError, match="deadlock"):
            simulate(asm.finish(num_devices=1))


class TestOverlap:
    def overlap_graph(self):
        """Compute chain of 3 x 1s; a 2s comm task depends on the first
        compute task and overlaps the rest (the Figure 5(a) pattern)."""
        asm = GraphAssembler()
        first = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "bwd4")
        asm.add(0, COMM_STREAM, 2.0, KIND_DP_COMM, "ar_bucket",
                deps=(first,), chain=False)
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "bwd3")
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "bwd2")
        return asm.finish(num_devices=1)

    def test_comm_overlaps_compute(self):
        """Total = 3s of compute; the 2s All-Reduce hides inside it."""
        result = simulate(self.overlap_graph())
        assert result.iteration_time == pytest.approx(3.0)

    def test_serial_comm_would_be_slower(self):
        """Sanity: had the AR been on the compute stream it would add."""
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "bwd4")
        asm.add(0, COMPUTE_STREAM, 2.0, KIND_DP_COMM, "ar_serial")
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "bwd3")
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "bwd2")
        result = simulate(asm.finish(num_devices=1))
        assert result.iteration_time == pytest.approx(5.0)


class TestAccounting:
    def test_busy_seconds_by_kind(self):
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 2.0, KIND_COMPUTE, "a")
        asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "c", chain=False)
        result = simulate(asm.finish(num_devices=1))
        assert result.busy_seconds(KIND_COMPUTE) == pytest.approx(2.0)
        assert result.busy_seconds(KIND_DP_COMM) == pytest.approx(1.0)
        breakdown = result.breakdown()
        assert breakdown[KIND_COMPUTE] == pytest.approx(2.0)

    def test_idle_fraction(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        asm.add(1, COMPUTE_STREAM, 3.0, KIND_COMPUTE, "b", deps=(a,),
                chain=False)
        result = simulate(asm.finish(num_devices=2))
        # iteration = 4s; device 0 busy 1s (idle 3/4), device 1 busy 3/4.
        assert compute_idle_fraction(result) == pytest.approx(0.5)

    def test_timeline_events_recorded(self):
        result = simulate(chain_graph([1.0, 2.0]), record_timeline=True)
        assert len(result.events) == 2
        assert result.events[0].finish == pytest.approx(1.0)
        assert result.events[1].start == pytest.approx(1.0)


class TestInvariants:
    def test_critical_path_lower_bounds_iteration(self, tiny_model, training):
        from repro.config.parallelism import ParallelismConfig
        from repro.sim.estimator import VTrain
        from repro.config.system import single_node
        vtrain = VTrain(single_node())
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        graph = build_graph(vtrain, tiny_model, plan, training)
        assert critical_path_length(graph) <= simulate(
            graph).iteration_time + 1e-12

    #: One plan per pipeline schedule on the tiny model's 4 layers
    #: (interleaving needs pipeline x virtual stages to divide them).
    SCHEDULES = {
        "1f1b": dict(pipeline=4),
        "gpipe": dict(pipeline=4, schedule=PipelineSchedule.GPIPE),
        "interleaved": dict(pipeline=2, virtual_stages=2),
    }

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_stream_serialisation_holds(self, granularity, schedule,
                                        tiny_model, training):
        """No two compute-stream tasks of one device overlap, at every
        granularity and under every pipeline schedule: the premise that
        lets a device's compute busy sum stand for its busy time."""
        from repro.config.parallelism import ParallelismConfig
        from repro.sim.estimator import VTrain
        from repro.config.system import single_node
        vtrain = VTrain(single_node(), granularity=granularity)
        plan = ParallelismConfig(tensor=1, data=2, **self.SCHEDULES[schedule])
        graph = build_graph(vtrain, tiny_model, plan, training)
        result = simulate(graph, record_timeline=True)
        assert stream_serialisation_check(graph, result)

    def test_serialisation_check_requires_timeline(self):
        graph = chain_graph([1.0])
        result = simulate(graph)
        with pytest.raises(SimulationError):
            stream_serialisation_check(graph, result)

    def test_engine_does_not_mutate_graph(self):
        graph = chain_graph([1.0, 2.0])
        before = [(n.num_parents, tuple(n.children)) for n in graph.nodes]
        simulate(graph)
        simulate(graph)
        after = [(n.num_parents, tuple(n.children)) for n in graph.nodes]
        assert before == after

"""Unit tests for the execution-graph structure and the reference
assembler."""

import importlib

import numpy as np
import pytest
from graph_oracle import (GraphAssembler, build_reference, chain_levels,
                          compile_graph)
from hypothesis import given, strategies as st

import repro.graph
import repro.sim
from repro.config.parallelism import ParallelismConfig
from repro.config.presets import (MT_NLG_530B, MT_NLG_BASELINE_PLANS,
                                  MT_NLG_TRAINING)
from repro.config.system import multi_node, single_node
from repro.errors import SimulationError
from repro.graph.builder import Granularity, GraphBuilder
from repro.graph.structure import (ALL_KINDS, COMM_STREAM, COMPUTE_STREAM,
                                   KIND_COMPUTE, KIND_DP_COMM,
                                   GraphStructure)
from repro.sim.estimator import VTrain

#: Per-task reference names the package must not define, by module.
MOVED = {
    "repro.graph.structure": ("TaskNode", "GraphAssembler",
                              "ExecutionGraph"),
    "repro.sim.engine": ("simulate", "simulate_reference",
                         "critical_path_length",
                         "stream_serialisation_check"),
}


class TestOneGraphForm:
    """The package ships the compiled structure alone; the per-task
    reference forms live in ``tests/graph_oracle.py``."""

    def test_packages_do_not_export_them(self):
        moved = {name for names in MOVED.values() for name in names}
        for package in (repro.graph, repro.sim):
            assert not moved & set(package.__all__), package.__name__
            assert not [name for name in moved if hasattr(package, name)]

    @pytest.mark.parametrize("module", sorted(MOVED))
    def test_modules_do_not_define_them(self, module):
        defined = vars(importlib.import_module(module))
        assert not [name for name in MOVED[module] if name in defined]

    def test_per_task_entry_points_are_gone(self):
        assert not hasattr(VTrain, "build_graph")
        assert not hasattr(GraphBuilder, "build")
        assert not hasattr(GraphStructure, "compile")


class TestAssembler:
    def test_chain_serialises_same_stream(self):
        asm = GraphAssembler()
        first = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        second = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "b")
        graph = asm.finish(num_devices=1)
        assert second in graph.nodes[first].children
        assert graph.nodes[second].num_parents == 1

    def test_streams_are_independent(self):
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        comm = asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "c")
        graph = asm.finish(num_devices=1)
        assert graph.nodes[comm].num_parents == 0

    def test_chain_false_does_not_extend_chain(self):
        asm = GraphAssembler()
        first = asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "a")
        asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "send", chain=False)
        third = asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "b")
        graph = asm.finish(num_devices=1)
        assert third in graph.nodes[first].children

    def test_explicit_deps(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        b = asm.add(1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "b", deps=(a,))
        graph = asm.finish(num_devices=2)
        assert b in graph.nodes[a].children

    def test_negative_duration_rejected(self):
        asm = GraphAssembler()
        with pytest.raises(SimulationError):
            asm.add(0, COMPUTE_STREAM, -1.0, KIND_COMPUTE, "bad")

    def test_self_dependency_rejected(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        with pytest.raises(SimulationError):
            asm.link(a, a)


class TestExecutionGraph:
    def _diamond(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a", chain=False)
        b = asm.add(0, COMM_STREAM, 2.0, KIND_DP_COMM, "b", deps=(a,),
                    chain=False)
        c = asm.add(1, COMPUTE_STREAM, 3.0, KIND_COMPUTE, "c", deps=(a,),
                    chain=False)
        asm.add(1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "d", deps=(b, c),
                chain=False)
        return asm.finish(num_devices=2)

    def test_roots(self):
        graph = self._diamond()
        assert graph.roots() == [0]

    def test_edge_count(self):
        assert self._diamond().num_edges == 4

    def test_validate_acyclic_passes(self):
        self._diamond().validate_acyclic()

    def test_validate_acyclic_detects_cycle(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a", chain=False)
        b = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "b", deps=(a,),
                    chain=False)
        asm.link(b, a)  # cycle
        graph = asm.finish(num_devices=1)
        with pytest.raises(SimulationError, match="cycle"):
            graph.validate_acyclic()

    def test_device_out_of_range_rejected_at_build(self):
        """A task on a device >= num_devices is a build-time error (the
        old engine silently invented timeline entries for it)."""
        asm = GraphAssembler()
        asm.add(2, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "ghost")
        with pytest.raises(SimulationError, match="device 2"):
            asm.finish(num_devices=2)

    def test_negative_device_rejected_at_build(self):
        asm = GraphAssembler()
        asm.add(-1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "ghost")
        with pytest.raises(SimulationError, match="device -1"):
            asm.finish(num_devices=2)


class TestGraphStructure:
    def _diamond(self):
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a", chain=False,
                    slot="x")
        b = asm.add(0, COMM_STREAM, 2.0, KIND_DP_COMM, "b", deps=(a,),
                    chain=False, slot="y")
        c = asm.add(1, COMPUTE_STREAM, 3.0, KIND_COMPUTE, "c", deps=(a,),
                    chain=False, slot="x")
        asm.add(1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "d", deps=(b, c),
                chain=False, slot="z")
        return asm, asm.finish(num_devices=2)

    def test_replay_order_is_topological(self):
        asm, graph = self._diamond()
        structure = compile_graph(graph, slots=asm.slots)
        position = {task: pos
                    for pos, task in enumerate(structure.task_id.tolist())}
        for node in graph.nodes:
            for child in node.children:
                assert position[node.task_id] < position[child]

    def test_csr_arrays_consistent(self):
        asm, graph = self._diamond()
        structure = compile_graph(graph, slots=asm.slots)
        ptr = structure.child_ptr.tolist()
        assert ptr[0] == 0
        assert ptr[-1] == structure.num_edges == graph.num_edges
        assert all(lo <= hi for lo, hi in zip(ptr, ptr[1:]))
        position = {task: pos
                    for pos, task in enumerate(structure.task_id.tolist())}
        for pos, task in enumerate(structure.task_id.tolist()):
            lo, hi = ptr[pos], ptr[pos + 1]
            assert structure.child_idx.tolist()[lo:hi] == [
                position[child] for child in graph.nodes[task].children]

    def test_edge_lists_follow_csr(self):
        asm, graph = self._diamond()
        structure = compile_graph(graph, slots=asm.slots)
        parents, children = structure.edge_lists()
        assert children == structure.child_idx.tolist()
        assert parents == [pos for pos in range(structure.num_tasks)
                           for _ in range(structure.child_ptr[pos],
                                          structure.child_ptr[pos + 1])]

    def test_baseline_durations_read_only(self):
        asm, graph = self._diamond()
        structure = compile_graph(graph, slots=asm.slots)
        with pytest.raises(ValueError):
            structure.duration[0] = 99.0


class TestStructureCache:
    def test_put_get_and_stats(self):
        from repro.graph.builder import (clear_structure_cache,
                                         structure_cache_get,
                                         structure_cache_put,
                                         structure_cache_stats)
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        structure = compile_graph(asm.finish(num_devices=1))
        clear_structure_cache()
        try:
            assert structure_cache_get("k") is None
            structure_cache_put("k", structure)
            assert structure_cache_get("k") is structure
            stats = structure_cache_stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            assert stats["entries"] == 1 and stats["cached_tasks"] == 1
        finally:
            clear_structure_cache()

    def test_lru_eviction_respects_task_budget(self, monkeypatch):
        from repro.graph.builder import (clear_structure_cache,
                                         structure_cache_get,
                                         structure_cache_put,
                                         structure_cache_stats)
        monkeypatch.setattr("repro.graph.builder.STRUCTURE_CACHE_TASKS", 5)

        def structure_with(num_tasks):
            asm = GraphAssembler()
            for index in range(num_tasks):
                asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, f"t{index}")
            return compile_graph(asm.finish(num_devices=1))

        clear_structure_cache()
        try:
            structure_cache_put("a", structure_with(3))
            structure_cache_put("b", structure_with(2))
            structure_cache_get("a")  # refresh 'a' so 'b' is LRU
            structure_cache_put("c", structure_with(2))
            assert structure_cache_get("b") is None  # evicted
            assert structure_cache_get("a") is not None
            assert structure_cache_get("c") is not None
            assert structure_cache_stats()["evictions"] == 1
        finally:
            clear_structure_cache()

    def test_running_total_matches_a_summing_reference(self, monkeypatch):
        """A seeded sequence of puts (new and replacing keys), gets,
        evictions and clears keeps ``cached_tasks``, the entry count,
        the eviction count and the LRU order equal to a reference that
        sums every entry on each put."""
        import random
        from collections import OrderedDict
        from types import SimpleNamespace

        from repro.graph import builder
        budget = 40
        monkeypatch.setattr(builder, "STRUCTURE_CACHE_TASKS", budget)
        rng = random.Random(7)
        reference: OrderedDict[str, int] = OrderedDict()
        evictions = 0
        actions = set()
        builder.clear_structure_cache()
        try:
            for _ in range(2_000):
                action = rng.choices(("put", "get", "evict", "clear"),
                                     weights=(60, 25, 12, 3))[0]
                key = f"k{rng.randrange(12)}"
                if action == "put":
                    tasks = rng.randrange(1, 25)
                    actions.add("replace" if key in reference else "put")
                    builder.structure_cache_put(
                        key, SimpleNamespace(num_tasks=tasks))
                    reference[key] = tasks
                    reference.move_to_end(key)
                    while (sum(reference.values()) > budget
                           and len(reference) > 1):
                        reference.popitem(last=False)
                        evictions += 1
                        actions.add("lru")
                elif action == "get":
                    builder.structure_cache_get(key)
                    if key in reference:
                        reference.move_to_end(key)
                elif action == "evict":
                    actions.add("evict" if key in reference else "absent")
                    builder.structure_cache_evict(key)
                    reference.pop(key, None)
                else:
                    builder.clear_structure_cache()
                    reference.clear()
                    evictions = 0
                stats = builder.structure_cache_stats()
                assert stats["cached_tasks"] == sum(reference.values())
                assert stats["entries"] == len(reference)
                assert stats["evictions"] == evictions
                assert list(builder._STRUCTURE_CACHE) == list(reference)
            assert actions == {"put", "replace", "lru", "evict", "absent"}
        finally:
            builder.clear_structure_cache()

    def test_zero_budget_keeps_only_the_newest(self, monkeypatch):
        from repro.graph.builder import (clear_structure_cache,
                                         structure_cache_put,
                                         structure_cache_stats)
        monkeypatch.setattr("repro.graph.builder.STRUCTURE_CACHE_TASKS", 0)
        asm = GraphAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        structure = compile_graph(asm.finish(num_devices=1))
        clear_structure_cache()
        try:
            structure_cache_put("a", structure)
            structure_cache_put("b", structure)
            assert structure_cache_stats()["entries"] == 1
        finally:
            clear_structure_cache()


@st.composite
def dags(draw):
    """Random DAGs: up to three earlier dependencies per task, and
    stream-serialising chain edges on some tasks."""
    num_devices = draw(st.integers(1, 3), label="num_devices")
    asm = GraphAssembler()
    for index in range(draw(st.integers(1, 40), label="num_tasks")):
        deps = (draw(st.sets(st.integers(0, index - 1), max_size=3))
                if index else set())
        asm.add(draw(st.integers(0, num_devices - 1)),
                draw(st.sampled_from((COMPUTE_STREAM, COMM_STREAM))), 1.0,
                draw(st.sampled_from(ALL_KINDS)), f"t{index}", deps=deps,
                chain=draw(st.booleans()))
    return asm.finish(num_devices=num_devices)


def packed_chains(structure: GraphStructure) -> list[tuple[list[int], int]]:
    """Every chain as the level plan's packed layout holds it: its
    positions from head to tail, and its level. Row 0 of a block holds
    its chains' head starts, row ``k + 1`` their ``k``-th tasks."""
    packed = structure.level_plan().packed()
    chains = []
    for level in range(packed.num_levels):
        for block in range(packed.block_ptr[level],
                           packed.block_ptr[level + 1]):
            grid = packed.cell_task[
                packed.block_cell[block]:packed.block_cell[block + 1]
            ].reshape(packed.block_rows[block], -1)
            chains += [(column.tolist(), level) for column in grid[1:].T]
    return chains


def assert_chain_layout(graph, structure: GraphStructure) -> None:
    """Edges run forward, every chain sits at consecutive positions, and
    the level plan holds the oracle's chains, each at the level its
    as-soon-as-possible pass finds."""
    num_tasks = structure.num_tasks
    position = np.empty(num_tasks, dtype=np.intp)
    position[structure.task_id] = np.arange(num_tasks)
    parents = np.repeat(np.arange(num_tasks), np.diff(structure.child_ptr))
    assert (parents < structure.child_idx).all()
    chains = chain_levels(graph)
    for tasks, _ in chains:
        assert (np.diff(position[tasks]) == 1).all(), tasks
    assert sorted(packed_chains(structure)) == sorted(
        (position[tasks].tolist(), level) for tasks, level in chains)


class TestChainLayout:
    """Positions are laid out chain by chain, in a topological order of
    chains, and the compile's chain pass yields the level plan."""

    @given(graph=dags())
    def test_random_dags(self, graph):
        assert_chain_layout(graph, compile_graph(graph))

    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("plan", [
        ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2),
        ParallelismConfig(tensor=2, data=1, pipeline=2, micro_batch_size=2,
                          virtual_stages=2)])
    def test_builder_graphs(self, tiny_model, training, granularity, plan):
        vtrain = VTrain(single_node(), granularity=granularity)
        builder = GraphBuilder(tiny_model, vtrain.system, plan, training,
                               vtrain.lookup, vtrain.nccl, granularity)
        assert_chain_layout(build_reference(builder), builder.compile())

    @pytest.mark.parametrize("first", ["b", "c"])
    def test_first_one_parent_child_continues_the_chain(self, first):
        """a's children b and c have one parent each: the first linked
        continues a's chain, and the other heads a chain of its own."""
        asm = GraphAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a", chain=False)
        b = asm.add(0, COMPUTE_STREAM, 2.0, KIND_COMPUTE, "b", chain=False)
        c = asm.add(1, COMM_STREAM, 3.0, KIND_DP_COMM, "c", chain=False)
        inner, other = (b, c) if first == "b" else (c, b)
        asm.link(a, inner)
        asm.link(a, other)
        structure = compile_graph(asm.finish(num_devices=2))
        task_id = structure.task_id.tolist()
        chains = [([task_id[position] for position in positions], level)
                  for positions, level in packed_chains(structure)]
        assert sorted(chains) == [([a, inner], 0), ([other], 1)]

    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_warm_up_forwards_form_one_chain(self, tiny_model, training,
                                             granularity):
        """Under 1F1B, stage 0 of a 4-stage pipeline runs 3 warm-up
        forwards and a steady-state one back to back. Each forward's
        exit feeds the next forward and a Send, so the four forwards and
        the Send after the last of them form one chain."""
        vtrain = VTrain(single_node(), granularity=granularity)
        plan = ParallelismConfig(tensor=2, data=1, pipeline=4,
                                 micro_batch_size=2)
        structure = GraphBuilder(tiny_model, vtrain.system, plan, training,
                                 vtrain.lookup, vtrain.nccl,
                                 granularity).compile()
        label = structure.label
        first_four = tuple(f"s0/F{micro_batch}" for micro_batch in range(4))
        forwards = [position for position, name in enumerate(label)
                    if name.startswith(first_four)]
        [chain] = [positions for positions, _ in packed_chains(structure)
                   if positions[0] == forwards[0]]
        assert chain == forwards + [label.index("s0->s1/F3")]

    def test_mtnlg_keeps_its_chains_and_levels(self):
        """The engine rule weighs tasks against levels: the paper's
        headline plan keeps both, so its engine still cannot move (it
        holds 399 tasks per level)."""
        vtrain = VTrain(multi_node(280), granularity=Granularity.OPERATOR)
        structure = GraphBuilder(
            MT_NLG_530B, vtrain.system, MT_NLG_BASELINE_PLANS[0],
            MT_NLG_TRAINING, vtrain.lookup, vtrain.nccl,
            Granularity.OPERATOR).compile()
        plan = structure.level_plan()
        assert (structure.num_tasks, plan.num_chains, plan.num_levels) == \
            (219_260, 16_461, 550)

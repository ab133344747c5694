"""End-to-end tests for interleaved virtual-pipeline schedules.

Covers the whole stack: config validation and serialisation, graph
emission (per-chunk layer slices, wrap-around P2P), the structure-cache
fingerprint, the compute-only bubble closed form, memory accounting,
DSE sweeps, and the testbed emulator.
"""

import pytest
from graph_oracle import GraphAssembler, build_graph, simulate

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      TrainingConfig, validate_plan)
from repro.config.system import single_node
from repro.errors import ConfigError, InfeasibleConfigError
from repro.graph.builder import (Granularity, GraphBuilder, StructureKey,
                                 clear_structure_cache)
from repro.graph.pipeline import (FORWARD, pipeline_bubble_fraction,
                                  schedule_order)
from repro.graph.structure import COMPUTE_STREAM, KIND_COMPUTE, KIND_PP_COMM
from repro.sim.estimator import VTrain


@pytest.fixture
def deep_model() -> ModelConfig:
    """16 layers so p=4 stages split into v ∈ {1, 2, 4} chunks."""
    return ModelConfig(hidden_size=512, num_layers=16, seq_length=128,
                       num_heads=8, vocab_size=32_000, name="deep16")


@pytest.fixture
def batch() -> TrainingConfig:
    return TrainingConfig(global_batch_size=32)


def interleaved_plan(v: int, **kwargs) -> ParallelismConfig:
    return ParallelismConfig(tensor=1, data=1, pipeline=4,
                             micro_batch_size=1, virtual_stages=v, **kwargs)


class TestConfig:
    def test_default_is_plain_schedule(self):
        assert ParallelismConfig(tensor=1, data=1, pipeline=2
                                 ).virtual_stages == 1

    def test_requires_pipeline(self):
        with pytest.raises(ConfigError, match="pipeline"):
            ParallelismConfig(tensor=1, data=1, pipeline=1, virtual_stages=2)

    def test_requires_1f1b(self):
        with pytest.raises(ConfigError, match="1f1b"):
            ParallelismConfig(tensor=1, data=1, pipeline=2, virtual_stages=2,
                              schedule=PipelineSchedule.GPIPE)

    def test_describe_appends_v(self):
        plan = interleaved_plan(2)
        assert plan.describe().endswith("v=2")
        assert "v=" not in interleaved_plan(1).describe()

    def test_to_dict_omits_default(self):
        """Pre-interleaving payloads (and the PR-1 cache fingerprints
        hashed from them) must be byte-identical."""
        assert "virtual_stages" not in interleaved_plan(1).to_dict()
        assert interleaved_plan(2).to_dict()["virtual_stages"] == 2

    def test_round_trip(self):
        plan = interleaved_plan(2)
        assert ParallelismConfig.from_dict(plan.to_dict()) == plan
        legacy = interleaved_plan(1)
        assert ParallelismConfig.from_dict(legacy.to_dict()) == legacy

    def test_validate_plan_chunk_divisibility(self, deep_model, batch):
        plan = interleaved_plan(3)  # 4 layers/stage, 3 does not divide
        with pytest.raises(InfeasibleConfigError, match="virtual stages"):
            validate_plan(deep_model, plan, batch, plan.total_gpus)

    def test_validate_plan_micro_batch_groups(self, deep_model):
        plan = interleaved_plan(2)
        uneven = TrainingConfig(global_batch_size=6)  # NMB=6, p=4
        with pytest.raises(InfeasibleConfigError, match="multiple"):
            validate_plan(deep_model, plan, uneven, plan.total_gpus)


class TestFingerprint:
    def test_v1_fingerprint_unchanged(self, deep_model, batch):
        """The v=1 fingerprint carries no v part — cached pre-interleaving
        structures stay addressable under their exact old keys."""
        fp = str(StructureKey.of(deep_model, interleaved_plan(1), batch,
                                 Granularity.OPERATOR))
        assert "v=" not in fp

    def test_v_distinguishes_structures(self, deep_model, batch):
        fps = {str(StructureKey.of(deep_model, interleaved_plan(v), batch,
                                   Granularity.OPERATOR))
               for v in (1, 2, 4)}
        assert len(fps) == 3

    def test_structure_cache_separates_v(self, deep_model, batch):
        clear_structure_cache()
        vtrain = VTrain(single_node())
        vtrain.predict(deep_model, interleaved_plan(1), batch)
        vtrain.predict(deep_model, interleaved_plan(2), batch)
        assert vtrain.structure_cache_misses == 2
        vtrain.predict(deep_model, interleaved_plan(2), batch)
        assert vtrain.structure_cache_hits == 1


class TestGraphEmission:
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_valid_dag_every_granularity(self, granularity, deep_model,
                                         batch):
        vtrain = VTrain(single_node(), granularity=granularity)
        graph = build_graph(vtrain, deep_model, interleaved_plan(2), batch)
        graph.validate_acyclic()
        assert simulate(graph).iteration_time > 0

    def test_wrap_around_p2p_tasks(self, deep_model, batch):
        """Each chunk boundary adds 2*NMB wrap-around sends between the
        last and first stage, costed through the network model."""
        vtrain = VTrain(single_node())
        plan = interleaved_plan(2)
        nmb = 32  # B=32, d=1, m=1
        builder = GraphBuilder(deep_model, vtrain.system, plan, batch,
                               vtrain.lookup, vtrain.nccl,
                               vtrain.granularity)
        structure = builder.compile()
        wrap = structure.slot_keys.index("pp:wrap")
        assert builder.slot_durations[wrap] > 0
        assert structure.slot_keys.count("pp:wrap") == 1
        wrap_tasks = sum(
            1 for pos in range(structure.num_tasks)
            if structure.slot_keys[structure.slot_index[pos]] == "pp:wrap")
        assert wrap_tasks == 2 * (plan.virtual_stages - 1) * nmb
        forward_wraps = [label for label in structure.label
                         if label.startswith("s3/c0->s0/c1/F")]
        assert len(forward_wraps) == nmb

    def test_p2p_task_count_scales_with_v(self, deep_model, batch):
        """Interleaving multiplies boundary traffic by v and adds the
        wrap hops: 2*NMB*((p-1)*v + v-1) P2P tasks in total."""
        vtrain = VTrain(single_node())
        for v in (1, 2, 4):
            graph = build_graph(vtrain, deep_model, interleaved_plan(v),
                                batch)
            p2p = sum(1 for n in graph.nodes if n.kind == KIND_PP_COMM)
            assert p2p == 2 * 32 * (3 * v + v - 1)

    def test_layer_coverage_per_chunk(self, deep_model, batch):
        """Stage-local layers 0..3 split as 0-1 (chunk 0) and 2-3
        (chunk 1); every layer appears in exactly one chunk."""
        vtrain = VTrain(single_node())
        graph = build_graph(vtrain, deep_model, interleaved_plan(2), batch)
        fwd_mha = [n.label for n in graph.nodes
                   if n.label.startswith("s0/") and "/F0/" in n.label
                   and n.label.endswith("/mha")]
        assert fwd_mha == ["s0/c0/F0/l0/mha", "s0/c0/F0/l1/mha",
                           "s0/c1/F0/l2/mha", "s0/c1/F0/l3/mha"]

    def test_stage_granularity_bucket_segments(self, deep_model, batch):
        """Buckets spanning chunk boundaries split at the intersection
        and anchor in the chunk holding their shallowest layer."""
        plan = interleaved_plan(2, gradient_bucketing=True,
                                num_gradient_buckets=4)
        vtrain = VTrain(single_node(), granularity=Granularity.STAGE)
        prediction = vtrain.predict(deep_model, plan, batch)
        assert prediction.iteration_time > 0


class TestBubbleClosedForm:
    """Uniform-duration replay matches ``(p-1)/(v*NMB + p-1)`` exactly
    in the compute-only idealization."""

    @staticmethod
    def ideal_graph(p, v, nmb):
        asm = GraphAssembler()
        f, b = {}, {}
        for stage in range(p):
            for unit in schedule_order(PipelineSchedule.ONE_F_ONE_B, stage,
                                       p, nmb, virtual_stages=v):
                task = asm.add(stage, COMPUTE_STREAM, 1.0, KIND_COMPUTE,
                               f"s{stage}/{unit.phase}{unit.chunk}"
                               f".{unit.micro_batch}")
                target = f if unit.phase == FORWARD else b
                target[(stage, unit.chunk, unit.micro_batch)] = task
        for (stage, c, m), task in f.items():
            if stage > 0:
                asm.link(f[(stage - 1, c, m)], task)
            elif c > 0:
                asm.link(f[(p - 1, c - 1, m)], task)
        for (stage, c, m), task in b.items():
            if stage < p - 1:
                asm.link(b[(stage + 1, c, m)], task)
            elif c < v - 1:
                asm.link(b[(0, c + 1, m)], task)
        return asm.finish(num_devices=p)

    @pytest.mark.parametrize("p,nmb", [(2, 4), (4, 8), (4, 16), (8, 8)])
    def test_matches_formula_and_monotone(self, p, nmb):
        fractions = []
        for v in (1, 2, 4):
            makespan = simulate(self.ideal_graph(p, v, nmb)).iteration_time
            busy = 2.0 * v * nmb
            fraction = (makespan - busy) / makespan
            assert fraction == pytest.approx(
                pipeline_bubble_fraction(p, nmb, v))
            fractions.append(fraction)
        assert fractions == sorted(fractions, reverse=True)


class TestPrediction:
    def test_iteration_time_improves_monotonically(self, deep_model, batch):
        for granularity in (Granularity.OPERATOR, Granularity.STAGE):
            vtrain = VTrain(single_node(), granularity=granularity)
            times = [vtrain.predict(deep_model, interleaved_plan(v),
                                    batch).iteration_time
                     for v in (1, 2, 4)]
            assert times[0] > times[1] > times[2]

    def test_granularities_agree(self, deep_model, batch):
        plan = interleaved_plan(2)
        times = [VTrain(single_node(), granularity=g).predict(
            deep_model, plan, batch).iteration_time
            for g in (Granularity.KERNEL, Granularity.OPERATOR)]
        assert times[0] == pytest.approx(times[1], rel=1e-9)

    def test_interleaving_costs_activation_memory(self, deep_model, batch):
        """Interleaving trades memory for bubble: stage 0 holds
        ``p + (p-1)/v`` layer-windows instead of 1F1B's ``p``, so every
        interleaved variant out-eats the plain schedule (the overhead
        peaks at v=2 and amortises as v grows — Narayanan et al. §2.2)."""
        from repro.memory.footprint import memory_footprint
        acts = {v: memory_footprint(deep_model, interleaved_plan(v),
                                    batch).activations
                for v in (1, 2, 4)}
        assert acts[1] < acts[4] < acts[2]


class TestDesignSpace:
    def test_interleaved_plan_dominates(self, deep_model):
        """An MT-NLG-style pipeline-bound sweep: some v>1 plan beats the
        best v=1 plan on iteration time (the acceptance criterion)."""
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.dse.space import SearchSpace
        training = TrainingConfig(global_batch_size=16)
        explorer = DesignSpaceExplorer(deep_model, training)
        base = dict(max_tensor=1, max_data=2, max_pipeline=8,
                    micro_batch_sizes=(1, 2))
        plain = explorer.explore(
            space=SearchSpace(**base, virtual_stages=(1,)), num_gpus=8)
        interleaved = explorer.explore(
            space=SearchSpace(**base, virtual_stages=(1, 2, 4)), num_gpus=8)
        best_plain = plain.best_by_iteration_time()
        best_any = interleaved.best_by_iteration_time()
        assert best_any.plan.virtual_stages > 1
        assert best_any.iteration_time < best_plain.iteration_time

    def test_enumeration_skips_invalid_combos(self, deep_model):
        from repro.dse.space import SearchSpace, enumerate_plans
        training = TrainingConfig(global_batch_size=16)
        space = SearchSpace(max_tensor=1, max_data=4, max_pipeline=8,
                            micro_batch_sizes=(1, 2),
                            virtual_stages=(1, 2, 3))
        plans = list(enumerate_plans(deep_model, training, space=space,
                                     max_gpus=8))
        for plan in plans:
            if plan.virtual_stages > 1:
                assert plan.pipeline > 1
                lps = deep_model.num_layers // plan.pipeline
                assert lps % plan.virtual_stages == 0
                nmb = (training.global_batch_size // plan.data
                       // plan.micro_batch_size)
                assert nmb % plan.pipeline == 0
        assert any(plan.virtual_stages == 2 for plan in plans)

    @pytest.mark.slow
    def test_preset_dominance_megatron(self):
        """MT-NLG-style preset: the --virtual-stages sweep finds a plan
        dominating the best v=1 plan on a pipeline-bound GPU budget."""
        from repro.config.presets import MODEL_ZOO
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.dse.space import SearchSpace
        model = next(m for m in MODEL_ZOO.values() if "1.7B" in m.name)
        training = TrainingConfig(global_batch_size=16)
        explorer = DesignSpaceExplorer(model, training)
        base = dict(max_tensor=1, max_data=2, max_pipeline=8,
                    micro_batch_sizes=(1, 2))
        plain = explorer.explore(
            space=SearchSpace(**base, virtual_stages=(1,)), num_gpus=8)
        swept = explorer.explore(
            space=SearchSpace(**base, virtual_stages=(1, 2, 3)), num_gpus=8)
        assert swept.best_by_iteration_time().iteration_time < \
            plain.best_by_iteration_time().iteration_time
        assert swept.best_by_iteration_time().plan.virtual_stages > 1

    def test_gpipe_space_rejects_interleaving(self):
        from repro.dse.space import SearchSpace
        with pytest.raises(ConfigError, match="1f1b"):
            SearchSpace(schedule=PipelineSchedule.GPIPE,
                        virtual_stages=(1, 2))

    def test_cli_sweeps_virtual_stages(self, tmp_path, capsys):
        from repro.cli import main
        csv_path = tmp_path / "points.csv"
        code = main(["dse", "megatron-1.7b", "--num-gpus", "8",
                     "--global-batch", "16", "--max-tensor", "1",
                     "--max-data", "2", "--max-pipeline", "8",
                     "--micro-batches", "1", "--virtual-stages", "1", "2",
                     "--zero-stage", "2", "--csv", str(csv_path),
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| v |" in out  # markdown table gains the v column
        assert "virtual_stages" in csv_path.read_text()


class TestScheduleSuggestion:
    def test_never_suggests_gpipe_for_interleaved_plan(self, deep_model,
                                                       batch):
        """GPipe has no interleaved variant; the suggestion must be one
        the plan can actually adopt."""
        from repro.memory.footprint import suggest_schedule_for_memory
        suggestion = suggest_schedule_for_memory(
            deep_model, interleaved_plan(2), batch, single_node())
        assert suggestion is PipelineSchedule.ONE_F_ONE_B
        interleaved_plan(2).replaced(schedule=suggestion)  # adoptable


class TestBaselines:
    def test_analytical_baseline_sees_smaller_bubble(self, deep_model,
                                                     batch):
        """The closed-form baseline must model the interleaved ramp too,
        so vTrain-vs-baseline comparisons stay meaningful at v>1."""
        from repro.baselines.analytical import AnalyticalModel
        baseline = AnalyticalModel(single_node())
        t1 = baseline.predict_iteration_time(deep_model,
                                             interleaved_plan(1), batch)
        t2 = baseline.predict_iteration_time(deep_model,
                                             interleaved_plan(2), batch)
        assert t2 < t1


class TestTestbed:
    def test_emulator_measures_interleaved_plan(self, deep_model, batch):
        from repro.testbed.emulator import TestbedEmulator
        emulator = TestbedEmulator(single_node())
        plain = emulator.measure(deep_model, interleaved_plan(1), batch)
        inter = emulator.measure(deep_model, interleaved_plan(2), batch)
        assert inter.iteration_time > 0
        assert inter.session_key != plain.session_key
        # Deterministic: measuring twice returns the identical number.
        again = emulator.measure(deep_model, interleaved_plan(2), batch)
        assert again.iteration_time == inter.iteration_time

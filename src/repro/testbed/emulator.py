"""Ground-truth testbed emulator (the "measured" side of Figure 9).

The paper validates vTrain against real 8-GPU p4d nodes and a 512-GPU
A100 cluster. With no hardware available, this emulator plays the role
of the physical testbed: it replays the *same* execution graph vTrain
builds, but layers on the effects the paper explicitly names as vTrain's
error sources (Section IV):

* **NCCL interference** — collectives run ~30 % slower during training
  than in the isolated environment vTrain profiles them in, "especially
  more pronounced when tensor parallelism is employed";
* **kernel-launch overheads** — per-kernel host latency vTrain's
  device-time profiles do not contain;
* **per-kernel jitter** — run-to-run variation of real kernels;
* **stragglers** — slow nodes delaying synchronisation points, which
  vTrain's static inter-node model cannot capture;
* **network contention** — concurrent data-parallel All-Reduce groups
  sharing a node's HCAs/ToR uplinks (the Figure 3 discussion);
* **framework overhead** — per-iteration host-side time.

Everything is hash-deterministic (:mod:`repro.testbed.noise`): measuring
the same configuration twice returns the identical number, as real
training iterations essentially do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.graph.builder import Granularity
from repro.graph.structure import (GraphStructure, KIND_COMPUTE, KIND_DP_COMM,
                                   KIND_PP_COMM, KIND_TP_COMM,
                                   KIND_WEIGHT_UPDATE)
from repro.hardware.cluster import ClusterTopology
from repro.hardware.interconnect import LinkType
from repro.sim.engine import (simulate_retimed, simulate_retimed_batch,
                              use_batched_replay)
from repro.sim.estimator import VTrain
from repro.testbed import noise


@dataclass(frozen=True)
class TestbedConfig:
    """Perturbation magnitudes of the emulated testbed.

    Defaults are calibrated so the validation campaigns land in the
    paper's error bands (single-node MAPE ~8 %, multi-node ~15 %).
    """

    __test__ = False  # "Testbed..." is not a pytest test class

    seed: str = "a100-testbed"
    kernel_jitter: float = 0.05
    nccl_interference: float = 1.30
    tensor_parallel_extra_interference: float = 0.12
    straggler_sigma: float = 0.012
    max_straggler_samples: int = 32
    # Kept modest: the paper's cluster is a *non-blocking* fat tree, so
    # sustained inter-node bandwidth is essentially achievable (that is
    # why its alpha sweep bottoms out at 1.0); the dominant multi-node
    # errors are two-sided placement/calibration variance plus fixed
    # sync/launch overheads and stragglers.
    dp_contention_per_group: float = 0.05
    overlap_sm_penalty: float = 0.02
    iteration_overhead: float = 1.5e-3
    internode_sync_overhead: float = 0.12
    # Two-sided per-configuration speed spread: production nodes run
    # faster or slower than the one the profiles were captured on
    # (clocks, thermals, binning), and multi-node jobs additionally vary
    # with placement quality across the fat tree. This is why the
    # paper's Figure 9 scatter has points on both sides of the parity
    # line, and why its multi-node MAPE (14.73%) is dominated by spread
    # rather than one-sided bias.
    compute_calibration_spread: float = 0.05
    multinode_calibration_spread: float = 0.22

    def without_interference(self) -> "TestbedConfig":
        """An idealised, contention-free cluster (the paper's regime).

        Keeps run-to-run jitter and node-calibration spread but removes
        every systematic communication slowdown — the configuration in
        which the Section-IV alpha sweep bottoms out at 1.0.
        """
        return replace(self, nccl_interference=1.0,
                       tensor_parallel_extra_interference=0.0,
                       straggler_sigma=0.0, dp_contention_per_group=0.0,
                       overlap_sm_penalty=0.0,
                       internode_sync_overhead=0.0)

    def with_seed(self, seed: str) -> "TestbedConfig":
        """Copy with a different measurement-session seed."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class MeasuredIteration:
    """One testbed measurement."""

    iteration_time: float
    num_tasks: int
    session_key: str


@dataclass(frozen=True)
class _SessionDraws:
    """Per-measurement-campaign perturbation state, drawn once.

    Everything here is independent of the *sample* session key: the
    allocation's calibration draw is keyed by (model, scale) alone, and
    the contention/SM-penalty/launch factors are deterministic functions
    of the plan's topology. Hoisting them out of the per-sample loop
    guarantees sample ``k`` of a batched campaign perturbs durations
    exactly as ``k`` standalone measurements would — it also stops the
    emulator re-deriving the same topology queries per measurement.
    """

    dp_link: LinkType | None
    dp_contention: float
    sm_penalty: float
    launch: float
    multi_node: bool
    calibration: float


class TestbedEmulator:
    """Measures "real" single-iteration training times.

    Args:
        system: The physical cluster being emulated.
        config: Perturbation magnitudes.
        granularity: Graph fidelity; OPERATOR (default) or KERNEL.
            STAGE is rejected — a coarse graph cannot carry per-operator
            launch overheads.
    """

    __test__ = False  # "Testbed..." is not a pytest test class

    def __init__(self, system: SystemConfig, *,
                 config: TestbedConfig = TestbedConfig(),
                 granularity: Granularity = Granularity.OPERATOR) -> None:
        if granularity is Granularity.STAGE:
            raise ConfigError("testbed measurement needs operator or kernel "
                              "granularity")
        self.system = system
        self.config = config
        self._vtrain = VTrain(system, granularity=granularity,
                              check_memory_feasibility=False)
        self.granularity = granularity

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def measure(self, model: ModelConfig, plan: ParallelismConfig,
                training: TrainingConfig) -> MeasuredIteration:
        """Run one "real" training iteration and report its wall time.

        Uses the retime-without-rebuild path: the compiled graph
        structure comes from the shared structure cache and only the
        duration vector is perturbed per measurement, so validation
        campaigns re-measuring one model under many plans never rebuild
        a graph they already compiled.
        """
        return self.measure_samples(model, plan, training, 1)[0]

    def measure_samples(self, model: ModelConfig, plan: ParallelismConfig,
                        training: TrainingConfig, num_samples: int,
                        ) -> list[MeasuredIteration]:
        """Run ``num_samples`` "real" iterations of one configuration.

        Sample 0 is the plain measurement session (bit-identical to
        :meth:`measure`); sample ``k > 0`` re-runs the iteration under
        the derived session ``<session>/it<k>``, re-drawing every
        run-to-run effect (kernel jitter, stragglers, overheads) while
        the campaign-level draws (:class:`_SessionDraws`) are shared —
        exactly how repeated iterations on one allocation behave. The K
        perturbed duration vectors replay on the engine
        :func:`~repro.sim.engine.use_batched_replay` picks for K columns
        of this structure; both give bit-identical makespans.
        """
        if num_samples < 1:
            raise ConfigError("num_samples must be >= 1")
        with obs.span("testbed.measure", category="testbed",
                      samples=num_samples):
            measurements = self._measure_samples(model, plan, training,
                                                 num_samples)
        obs.count("testbed.measurements", num_samples)
        return measurements

    def _measure_samples(self, model: ModelConfig, plan: ParallelismConfig,
                         training: TrainingConfig, num_samples: int,
                         ) -> list[MeasuredIteration]:
        prepared = self._vtrain.prepare(model, plan, training)
        session = self._session_key(model, plan, training)
        draws = self._session_draws(model, plan)
        kernel_counts = self._kernel_counts(prepared)
        sessions = [session if k == 0 else f"{session}/it{k}"
                    for k in range(num_samples)]
        structure = prepared.structure
        columns = [self._perturb(structure, prepared.durations,
                                 kernel_counts, plan, sample_session, draws)
                   for sample_session in sessions]
        if use_batched_replay(structure, num_samples):
            makespans = simulate_retimed_batch(
                structure, np.stack(columns, axis=1)).iteration_times()
        else:
            makespans = [simulate_retimed(structure, column).iteration_time
                         for column in columns]
        measurements = []
        for sample_session, makespan in zip(sessions, makespans):
            overhead = self.config.iteration_overhead * noise.one_sided(
                sample_session + "/iter_overhead", 1.0)
            if draws.multi_node:
                # Per-iteration cross-node synchronisation cost: NCCL
                # kernel launches and barrier waits that the paper lists
                # among vTrain's unmodelled multi-node latencies. A
                # fixed cost per iteration hurts short iterations
                # proportionally more, which is exactly the Figure 9(b)
                # error profile.
                overhead += (self.config.internode_sync_overhead
                             * noise.jitter(
                                 sample_session + "/sync_overhead", 0.3))
            measurements.append(MeasuredIteration(
                iteration_time=makespan + overhead,
                num_tasks=structure.num_tasks,
                session_key=sample_session))
        return measurements

    def measure_time(self, model: ModelConfig, plan: ParallelismConfig,
                     training: TrainingConfig) -> float:
        """Convenience: just the measured iteration time in seconds."""
        return self.measure(model, plan, training).iteration_time

    # ------------------------------------------------------------------
    # Perturbation machinery
    # ------------------------------------------------------------------
    def _session_key(self, model: ModelConfig, plan: ParallelismConfig,
                     training: TrainingConfig) -> str:
        return (f"{self.config.seed}/{model.hidden_size}x{model.num_layers}"
                f"x{model.seq_length}x{model.num_heads}"
                f"/{plan.describe()}/B{training.global_batch_size}")

    def _kernel_counts(self, prepared) -> list[int]:
        """Per-task kernel counts (launch-overhead accounting), in
        replay order, resolved for the plan being measured.

        Counts come from the prepared plan's *own* builder via timing
        slots: a cached structure may have been compiled by another
        plan with the same structure key, e.g. another recompute mode,
        which changes an operator's kernel count but not the key.
        """
        structure = prepared.structure
        table = prepared.builder.slot_kernel_counts()
        per_slot = [table.get(key, 1) for key in structure.slot_keys]
        return [per_slot[slot] for slot in structure.slot_index.tolist()]

    def _straggler(self, session: str, device: int, num_peers: int) -> float:
        """Slowdown of the slowest folded replica of one logical stage.

        The symmetry-reduced graph folds ``t*d`` GPUs into each stage; a
        synchronisation point runs at the pace of the slowest, so the
        factor is the max of per-replica log-normal samples. This is one
        of the two multi-node effects the paper names as missing from
        vTrain's analytical inter-node model.
        """
        samples = min(max(num_peers, 1), self.config.max_straggler_samples)
        return max(noise.lognormal(f"{session}/straggler/{device}/{i}",
                                   self.config.straggler_sigma)
                   for i in range(samples))

    def _session_draws(self, model: ModelConfig,
                       plan: ParallelismConfig) -> _SessionDraws:
        """Campaign-level perturbation state (sample-session-free)."""
        cfg = self.config
        model_key = (f"{model.hidden_size}x{model.num_layers}"
                     f"x{model.seq_length}")
        topology = ClusterTopology(self.system, plan)
        dp_link = topology.data_link() if plan.data > 1 else None
        dp_groups = (topology.concurrent_data_groups_per_node()
                     if plan.data > 1 else 1)
        # Contention grows with the log of concurrent groups on a node.
        dp_contention = 1.0 + cfg.dp_contention_per_group * (
            max(1, dp_groups) - 1).bit_length()
        multi_node_plan = topology.num_nodes_used() > 1
        # NCCL All-Reduce kernels occupy SMs, slowing the compute they
        # overlap with; only inter-node DP traffic lives long enough for
        # this to matter.
        sm_penalty = (1.0 + cfg.overlap_sm_penalty
                      if dp_link is LinkType.INTER_NODE else 1.0)
        # This allocation's nodes vs the profiling node (two-sided);
        # multi-node placements add fat-tree locality variance on top.
        # Keyed by (model, scale), NOT by plan: two plans for the same
        # model measured on the same nodes share the hardware draw, so
        # plan comparisons (Table II) stay meaningful while the
        # campaign-level scatter (Figure 9) persists.
        spread = (cfg.multinode_calibration_spread if multi_node_plan
                  else cfg.compute_calibration_spread)
        allocation_key = (f"{cfg.seed}/allocation/{model_key}"
                          f"/{topology.num_nodes_used()}nodes")
        return _SessionDraws(
            dp_link=dp_link,
            dp_contention=dp_contention,
            sm_penalty=sm_penalty,
            launch=self.system.gpu.kernel_launch_overhead,
            multi_node=multi_node_plan,
            calibration=noise.jitter(allocation_key, spread))

    def _perturb(self, structure: GraphStructure, durations,
                 kernel_counts: list[int], plan: ParallelismConfig,
                 session: str, draws: _SessionDraws) -> list[float]:
        """Testbed-perturbed duration vector (replay order) for one run."""
        cfg = self.config
        dp_link = draws.dp_link
        dp_contention = draws.dp_contention
        sm_penalty = draws.sm_penalty
        launch = draws.launch
        calibration = draws.calibration
        if draws.multi_node:
            # Straggler nodes only matter once synchronisation crosses
            # node boundaries (Section IV, multi-node error discussion).
            stage_straggler = {
                device: self._straggler(session, device, plan.data)
                for device in range(structure.num_devices)}
        else:
            stage_straggler = {device: 1.0
                               for device in range(structure.num_devices)}

        kinds = structure.kinds
        perturbed: list[float] = []
        for duration, kind_index, label, device, num_kernels in zip(
                durations.tolist(), structure.kind_index.tolist(),
                structure.label, structure.device.tolist(), kernel_counts):
            kind = kinds[kind_index]
            key = f"{session}/{label}"
            if kind in (KIND_COMPUTE, KIND_WEIGHT_UPDATE):
                duration *= noise.jitter(key, cfg.kernel_jitter)
                duration *= stage_straggler[device] * sm_penalty
                duration *= calibration
                duration += launch * num_kernels
            elif kind == KIND_TP_COMM:
                factor = (cfg.nccl_interference
                          + cfg.tensor_parallel_extra_interference)
                duration *= factor * noise.jitter(key, cfg.kernel_jitter)
                duration += launch
            elif kind == KIND_DP_COMM:
                if dp_link is LinkType.INTRA_NODE:
                    duration *= cfg.nccl_interference
                else:
                    duration *= dp_contention
                    duration *= stage_straggler[device]
                duration *= noise.jitter(key, cfg.kernel_jitter)
                duration += launch
            elif kind == KIND_PP_COMM:
                duration *= noise.jitter(key, cfg.kernel_jitter)
                duration += launch
            perturbed.append(duration)
        return perturbed

"""Closed forms on the builder's emitted STAGE graphs.

With dyadic durations every sum in a replay is exact, so a pipeline's
makespan must equal its schedule's closed form bit for bit, on both
replay engines, each called directly (the engine rule would send these
narrow graphs to the scalar loop):

* GPipe and 1F1B, with no Send-Receive and no weight update:
  ``(m + p - 1)(f + b)``;
* interleaved 1F1B, per chunk: ``(v*m + p - 1)(f_c + b_c)``;
* GPipe with Send-Receive ``s`` and weight update ``u``:
  ``(m + p - 1)(f + b) + 2(p - 1)s + u``.

Every forward chunk slot (``sf``) holds ``f``, every backward one
(``sb``) ``b``, and each chunk's last-backward bucket segments (``sbl``)
halve down so that they sum to ``b``. The TP degree is drawn as well: a
STAGE graph holds no TP All-Reduce task, so a t > 1 plan replays the
structure a t = 1 plan compiled.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      TrainingConfig)
from repro.config.system import multi_node
from repro.graph.builder import Granularity
from repro.graph.structure import GraphStructure
from repro.sim.engine import simulate_retimed, simulate_retimed_batch
from repro.sim.estimator import VTrain

#: 32 layers split over every drawn (p, v).
MODEL = ModelConfig(hidden_size=512, num_layers=32, seq_length=128,
                    num_heads=8, vocab_size=32_000, name="deep32")

#: Dyadic durations: sixteenths up to 4 s.
DYADIC = st.integers(1, 64).map(lambda sixteenths: sixteenths / 16)


@functools.cache
def vtrain_at(granularity: Granularity) -> VTrain:
    return VTrain(multi_node(4), granularity=granularity,
                  check_memory_feasibility=False)


def structure_of(schedule: PipelineSchedule, p: int, m: int, v: int,
                 t: int, buckets: int,
                 granularity: Granularity = Granularity.STAGE
                 ) -> GraphStructure:
    """The structure of one (t, d = 1, p) plan with ``m`` micro-batches
    of one sequence."""
    plan = ParallelismConfig(tensor=t, data=1, pipeline=p,
                             micro_batch_size=1, schedule=schedule,
                             virtual_stages=v, num_gradient_buckets=buckets)
    return vtrain_at(granularity).prepare(
        MODEL, plan, TrainingConfig(global_batch_size=m)).structure


def slot_vector(structure: GraphStructure, f: float, b: float,
                s: float = 0.0, u: float = 0.0) -> np.ndarray:
    """``f``, ``b``, ``s`` and ``u`` by slot tag; a chunk's ``n``
    last-backward segments take b/2, b/4, ..., and the last two share
    ``b / 2**(n - 1)``."""
    chunk_of = [slot.rsplit(":", 1)[0] for slot in structure.slot_keys]
    segments = Counter(chunk for chunk, slot in zip(chunk_of,
                                                    structure.slot_keys)
                       if slot.startswith("sbl:"))
    seen: Counter = Counter()
    values = []
    for chunk, slot in zip(chunk_of, structure.slot_keys):
        tag = slot.split(":", 1)[0]
        if tag == "sbl":
            seen[chunk] += 1
            values.append(b / 2 ** min(seen[chunk], segments[chunk] - 1))
        else:
            values.append({"sf": f, "sb": b, "pp": s, "wu": u}[tag])
    return np.array(values)


def operator_slot_vector(structure: GraphStructure, f: float, b: float,
                         layers_per_chunk: int) -> np.ndarray:
    """Each layer's MHA and FFN take ``f / (2 * lpc)`` forward and
    ``b / (2 * lpc)`` backward, so every chunk sums to ``f`` and ``b``;
    the embedding, LM-head, Send-Receive and weight-update slots are 0."""
    layer_ops = {"op:fwd_mha": f, "op:fwd_ffn": f, "op:bwd_mha": b,
                 "op:bwd_ffn": b}
    return np.array([layer_ops.get(slot, 0.0) / (2 * layers_per_chunk)
                     for slot in structure.slot_keys])


def makespans(structure: GraphStructure, slots: np.ndarray) -> list[float]:
    """The makespan on the scalar loop, on the level engine with one
    column, and on it with three: the durations, doubled and halved,
    each scaled back (both scalings are exact)."""
    durations = slots[structure.slot_index]
    three = simulate_retimed_batch(
        structure, np.stack([durations, 2 * durations, durations / 2],
                            axis=1)).makespans.tolist()
    return [simulate_retimed(structure, durations).iteration_time,
            float(simulate_retimed_batch(structure,
                                         durations[:, None]).makespans[0]),
            three[0], three[1] / 2, three[2] * 2]


pipelines = st.sampled_from((1, 2, 4, 8))
tensors = st.sampled_from((1, 2, 4))
buckets = st.integers(1, 5)


class TestStageClosedForms:
    @given(schedule=st.sampled_from((PipelineSchedule.GPIPE,
                                     PipelineSchedule.ONE_F_ONE_B)),
           p=pipelines, m=st.integers(1, 64), t=tensors, n=buckets,
           f=DYADIC, b=DYADIC)
    def test_gpipe_and_1f1b(self, schedule, p, m, t, n, f, b):
        structure = structure_of(schedule, p, m, 1, t, n)
        expected = (m + p - 1) * (f + b)
        assert makespans(structure, slot_vector(structure, f, b)) \
            == [expected] * 5

    @given(p=st.sampled_from((2, 4, 8)), v=st.sampled_from((2, 4)),
           groups=st.integers(1, 8), t=tensors, n=buckets, f=DYADIC,
           b=DYADIC)
    def test_interleaved_1f1b(self, p, v, groups, t, n, f, b):
        m = groups * p
        structure = structure_of(PipelineSchedule.ONE_F_ONE_B, p, m, v, t, n)
        expected = (v * m + p - 1) * (f + b)
        assert makespans(structure, slot_vector(structure, f, b)) \
            == [expected] * 5

    @given(p=pipelines, m=st.integers(1, 64), t=tensors, n=buckets,
           f=DYADIC, b=DYADIC, s=DYADIC, u=DYADIC)
    def test_gpipe_with_send_receive_and_update(self, p, m, t, n, f, b,
                                                s, u):
        structure = structure_of(PipelineSchedule.GPIPE, p, m, 1, t, n)
        expected = (m + p - 1) * (f + b) + 2 * (p - 1) * s + u
        assert makespans(structure, slot_vector(structure, f, b, s, u)) \
            == [expected] * 5


class TestOperatorClosedForms:
    """The GPipe/1F1B and interleaved laws on OPERATOR training graphs
    with t = d = 1: a chunk's ``lpc`` layers each run one MHA and one
    FFN task per pass, and every other task lasts 0."""

    @given(schedule=st.sampled_from((PipelineSchedule.GPIPE,
                                     PipelineSchedule.ONE_F_ONE_B)),
           p=pipelines, m=st.integers(1, 64), f=DYADIC, b=DYADIC)
    def test_gpipe_and_1f1b(self, schedule, p, m, f, b):
        structure = structure_of(schedule, p, m, 1, 1, 1,
                                 Granularity.OPERATOR)
        slots = operator_slot_vector(structure, f, b,
                                     MODEL.num_layers // p)
        expected = (m + p - 1) * (f + b)
        assert makespans(structure, slots) == [expected] * 5

    @given(p=st.sampled_from((2, 4, 8)), v=st.sampled_from((2, 4)),
           groups=st.integers(1, 8), f=DYADIC, b=DYADIC)
    def test_interleaved_1f1b(self, p, v, groups, f, b):
        m = groups * p
        structure = structure_of(PipelineSchedule.ONE_F_ONE_B, p, m, v, 1,
                                 1, Granularity.OPERATOR)
        slots = operator_slot_vector(structure, f, b,
                                     MODEL.num_layers // (p * v))
        expected = (v * m + p - 1) * (f + b)
        assert makespans(structure, slots) == [expected] * 5

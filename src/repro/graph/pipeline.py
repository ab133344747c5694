"""Pipeline-parallel schedules: GPipe, 1F1B, and interleaved 1F1B.

A schedule is, per pipeline stage, the *issue order* of forward and
backward micro-batch chunks on that stage's compute stream. Cross-stage
data dependencies (a stage cannot run micro-batch i before receiving it)
are separate graph edges added by the builder; together the two reproduce
the paper's two dependency families: "the execution order within each GPU"
and "the operators associated with the same micro-batch ... across GPUs".

GPipe and 1F1B are the paper's Figure 7. The interleaved schedule is
Megatron-LM's virtual-pipeline variant of 1F1B (Narayanan et al., SC'21):
each device hosts ``v`` *model chunks* of ``L / (p * v)`` layers instead
of one contiguous block, and cycles through them in a round-robin of
``p`` micro-batches per chunk. The bubble shrinks by ``v`` —
``(p-1) / (v*NMB + p-1)`` — at the cost of ``v`` activation windows per
device and extra inter-chunk P2P traffic (the last stage feeds chunk
``c+1`` of the first stage).

Every order has a closed form: :func:`issue_orders` returns all stages'
orders at once as integer arrays, which the graph builder tiles over;
:func:`schedule_order` lists one stage's row as :class:`ScheduledChunk`
entries. ``tests/graph_oracle.py`` keeps the unit-by-unit loops.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.config.parallelism import PipelineSchedule
from repro.errors import ConfigError

FORWARD = "F"
BACKWARD = "B"


class ScheduledChunk(NamedTuple):
    """One entry of a stage's issue order, as :func:`schedule_order`
    lists it.

    ``chunk`` is the model-chunk (virtual-stage) index the entry runs on;
    it is always 0 for GPipe and plain 1F1B. The graph builder makes
    none: it tiles :func:`issue_orders`' columns (16,800 units for an
    MT-NLG step).
    """

    phase: str  # FORWARD or BACKWARD
    micro_batch: int
    chunk: int = 0


def issue_orders(schedule: PipelineSchedule | None, num_stages: int,
                 num_micro_batches: int, *, virtual_stages: int = 1,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stage's issue order at once, in closed form.

    Returns ``(forward, micro_batch, chunk)``, read-only arrays of shape
    ``(num_stages, units)`` whose row ``s`` is stage ``s``'s order.
    ``schedule=None`` is an inference phase's forward-only order, the
    forward sub-order of both GPipe and 1F1B.

    * GPipe: all forwards in order, then all backwards in reverse, the
      freshest activations first (Figure 7a).
    * 1F1B (PipeDream-Flush, Figure 7b): stage ``s`` issues
      ``w = min(NMB, p - 1 - s)`` warm-up forwards, alternates one
      forward with one backward, then drains the last ``w`` backwards.
    * Interleaved 1F1B (Megatron-LM's
      ``forward_backward_pipelining_with_interleaving``): the same over
      ``NMB * v`` (chunk, micro-batch) units with a warm-up of
      ``min(2(p - s - 1) + (v - 1)p, NMB * v)`` (all units when
      ``NMB == p``). Unit ``k`` is micro-batch ``(k // pv) p + k % p``
      on chunk ``(k % pv) // p``, counted down for backward units.

    Raises:
        ConfigError: No stages or micro-batches, ``virtual_stages < 1``,
            ``virtual_stages > 1`` outside 1F1B or with ``p`` not
            dividing ``NMB``, or an unknown schedule.
    """
    _check(num_micro_batches, num_stages, virtual_stages)
    p, v, nmb = num_stages, virtual_stages, num_micro_batches
    if v > 1 and schedule is not PipelineSchedule.ONE_F_ONE_B:
        raise ConfigError("only 1F1B has an interleaved variant; "
                          "virtual_stages requires the 1F1B schedule")
    if schedule is None:
        forward, unit = np.ones(nmb, dtype=bool), np.arange(nmb)
    elif schedule is PipelineSchedule.GPIPE:
        position = np.arange(2 * nmb)
        forward = position < nmb
        unit = np.where(forward, position, 2 * nmb - 1 - position)
    elif schedule is PipelineSchedule.ONE_F_ONE_B:
        if v > 1 and nmb % p:
            raise ConfigError(
                f"interleaved schedule needs the micro-batch count ({nmb}) "
                f"to be a multiple of the pipeline depth ({p})")
        total, stage = nmb * v, np.arange(p)[:, None]
        if v == 1:
            warmup = np.minimum(nmb, p - 1 - stage)
        elif nmb == p:
            warmup = total
        else:
            warmup = np.minimum(2 * (p - stage - 1) + (v - 1) * p, total)
        position = np.arange(2 * total)
        steady = position - warmup
        drain = position >= 2 * total - warmup
        forward = (steady < 0) | (~drain & (steady % 2 == 0))
        unit = np.where(steady < 0, position,
                        np.where(drain, position - total,
                                 steady // 2 + warmup * forward))
    else:
        raise ConfigError(f"unknown schedule {schedule}")
    group, rank = np.divmod(unit, p * v)
    chunk = rank // p
    columns = (forward, group * p + rank % p,
               np.where(forward, chunk, v - 1 - chunk))
    return tuple(np.broadcast_to(column, (p, column.shape[-1]))
                 for column in columns)


def schedule_order(schedule: PipelineSchedule, stage: int, num_stages: int,
                   num_micro_batches: int, *,
                   virtual_stages: int = 1) -> list[ScheduledChunk]:
    """Issue order for one stage under the chosen scheduling policy:
    row ``stage`` of :func:`issue_orders`."""
    orders = issue_orders(schedule, num_stages, num_micro_batches,
                          virtual_stages=virtual_stages)
    if not 0 <= stage < num_stages:
        raise ConfigError(f"stage {stage} outside pipeline of {num_stages}")
    forward, micro_batch, chunk = (column[stage].tolist()
                                   for column in orders)
    return [ScheduledChunk(FORWARD if fwd else BACKWARD, mb, ch)
            for fwd, mb, ch in zip(forward, micro_batch, chunk)]


def gpipe_order(num_micro_batches: int) -> list[ScheduledChunk]:
    """GPipe's issue order (the same on every stage)."""
    return schedule_order(PipelineSchedule.GPIPE, 0, 1, num_micro_batches)


def one_f_one_b_order(stage: int, num_stages: int,
                      num_micro_batches: int) -> list[ScheduledChunk]:
    """One stage's 1F1B issue order."""
    return schedule_order(PipelineSchedule.ONE_F_ONE_B, stage, num_stages,
                          num_micro_batches)


def interleaved_order(stage: int, num_stages: int, num_micro_batches: int,
                      virtual_stages: int) -> list[ScheduledChunk]:
    """One stage's interleaved issue order (plain 1F1B if ``v == 1``)."""
    return schedule_order(PipelineSchedule.ONE_F_ONE_B, stage, num_stages,
                          num_micro_batches, virtual_stages=virtual_stages)


def last_backward_micro_batch(schedule: PipelineSchedule,
                              num_micro_batches: int) -> int:
    """Micro-batch whose backward chunk is issued last on every stage.

    Gradient-bucket All-Reduces attach to this chunk: gradients are only
    complete once every micro-batch's backward has accumulated into them
    (Figure 5), and the per-stream chain makes the last-issued backward
    the synchronisation point.
    """
    _check(num_micro_batches)
    if schedule is PipelineSchedule.GPIPE:
        return 0  # backwards run in reverse order; micro-batch 0 is last
    return num_micro_batches - 1


def warmup_forwards(schedule: PipelineSchedule, stage: int, num_stages: int,
                    num_micro_batches: int, *,
                    virtual_stages: int = 1) -> int:
    """Leading forward units in a stage's issue order (closed form).

    Counts the forwards issued before the first backward, in schedule
    units — whole micro-batches for GPipe/1F1B, (chunk, micro-batch)
    pairs for the interleaved schedule. This is also the stage's peak
    count of simultaneously-live activation windows, because every
    schedule here retires one window per backward once the steady state
    starts.
    """
    _check(num_micro_batches)
    if schedule is PipelineSchedule.GPIPE:
        return num_micro_batches
    if virtual_stages > 1:
        total = num_micro_batches * virtual_stages
        if num_micro_batches == num_stages:
            return total
        return min(2 * (num_stages - stage - 1)
                   + (virtual_stages - 1) * num_stages + 1, total)
    return min(num_micro_batches, num_stages - stage)


def max_in_flight_micro_batches(schedule: PipelineSchedule, stage: int,
                                num_stages: int, num_micro_batches: int, *,
                                virtual_stages: int = 1) -> int:
    """Peak simultaneously-live schedule units on a stage (memory model).

    GPipe holds every micro-batch's activations; 1F1B caps in-flight work
    at the pipeline depth remaining below the stage — the memory saving
    that motivated PipeDream (Section II-B). Under the interleaved
    schedule (``virtual_stages > 1``) a unit is one *model chunk* of
    ``layers_per_stage / v`` layers, and the warm-up admits
    ``2*(p - stage - 1) + (v - 1)*p + 1`` of them — more windows, each
    ``v`` times thinner (the memory model divides by ``v`` accordingly).
    """
    return warmup_forwards(schedule, stage, num_stages, num_micro_batches,
                           virtual_stages=virtual_stages)


def pipeline_bubble_fraction(num_stages: int, num_micro_batches: int,
                             virtual_stages: int = 1) -> float:
    """Ideal bubble fraction ``(p-1) / (v*NMB + p - 1)`` for diagnostics.

    ``virtual_stages = 1`` gives the classic GPipe/1F1B bubble; the
    interleaved schedule divides the warm-up/drain ramp by ``v``
    (Narayanan et al., SC'21, Section 2.2).
    """
    _check(num_micro_batches, num_stages, virtual_stages)
    return ((num_stages - 1)
            / (virtual_stages * num_micro_batches + num_stages - 1))


def _check(num_micro_batches: int, num_stages: int = 1,
           virtual_stages: int = 1) -> None:
    if num_micro_batches <= 0:
        raise ConfigError("num_micro_batches must be positive")
    if num_stages <= 0:
        raise ConfigError("num_stages must be positive")
    if virtual_stages < 1:
        raise ConfigError("virtual_stages must be positive")

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
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config.parallelism import PipelineSchedule
from repro.errors import ConfigError

FORWARD = "F"
BACKWARD = "B"


class ScheduledChunk(NamedTuple):
    """One entry in a stage's issue order.

    ``chunk`` is the model-chunk (virtual-stage) index the entry runs on;
    it is always 0 for GPipe and plain 1F1B. A named tuple rather than
    a frozen dataclass: an MT-NLG graph issues ~17k of them per build.
    """

    phase: str  # FORWARD or BACKWARD
    micro_batch: int
    chunk: int = 0


def gpipe_order(num_micro_batches: int) -> list[ScheduledChunk]:
    """GPipe: all forwards in order, then all backwards in reverse.

    Backwards run most-recent-first because the last micro-batch's
    activations are freshest (Figure 7a).
    """
    _check(num_micro_batches)
    forwards = [ScheduledChunk(FORWARD, i) for i in range(num_micro_batches)]
    backwards = [ScheduledChunk(BACKWARD, i)
                 for i in reversed(range(num_micro_batches))]
    return forwards + backwards


def one_f_one_b_order(stage: int, num_stages: int,
                      num_micro_batches: int) -> list[ScheduledChunk]:
    """1F1B (PipeDream-Flush): warm up, alternate, cool down (Figure 7b).

    Stage ``i`` admits ``min(NMB, p - 1 - i)`` warm-up forwards, then
    alternates one forward with one backward, then drains the remaining
    backwards. The last stage has zero warm-up and strictly alternates.
    """
    _check(num_micro_batches)
    if not 0 <= stage < num_stages:
        raise ConfigError(f"stage {stage} outside pipeline of {num_stages}")
    warmup = min(num_micro_batches, num_stages - 1 - stage)
    order: list[ScheduledChunk] = []
    for i in range(warmup):
        order.append(ScheduledChunk(FORWARD, i))
    steady = num_micro_batches - warmup
    for i in range(steady):
        order.append(ScheduledChunk(FORWARD, warmup + i))
        order.append(ScheduledChunk(BACKWARD, i))
    for i in range(steady, num_micro_batches):
        order.append(ScheduledChunk(BACKWARD, i))
    return order


def interleaved_order(stage: int, num_stages: int, num_micro_batches: int,
                      virtual_stages: int) -> list[ScheduledChunk]:
    """Megatron-LM interleaved 1F1B: ``v`` model chunks per stage.

    Reproduces ``forward_backward_pipelining_with_interleaving``: the
    unit of scheduling is one (chunk, micro-batch) pair, micro-batches
    advance in groups of ``p`` per chunk, warm-up admits
    ``2*(p - stage - 1) + (v - 1) * p`` units (all of them when
    ``NMB == p``, Megatron's all-warmup special case), then the stage
    alternates one forward unit with one backward unit and drains.
    Forward units walk chunks in ascending order; backward units walk
    them descending, so the final backward on every stage is chunk 0 of
    the last micro-batch.
    """
    _check(num_micro_batches)
    if not 0 <= stage < num_stages:
        raise ConfigError(f"stage {stage} outside pipeline of {num_stages}")
    if virtual_stages < 1:
        raise ConfigError("virtual_stages must be positive")
    if num_micro_batches % num_stages:
        raise ConfigError(
            f"interleaved schedule needs the micro-batch count "
            f"({num_micro_batches}) to be a multiple of the pipeline depth "
            f"({num_stages})")
    p, v = num_stages, virtual_stages
    total = num_micro_batches * v

    def forward_unit(k: int) -> ScheduledChunk:
        group, j = divmod(k, p * v)
        return ScheduledChunk(FORWARD, group * p + j % p, chunk=j // p)

    def backward_unit(k: int) -> ScheduledChunk:
        group, j = divmod(k, p * v)
        return ScheduledChunk(BACKWARD, group * p + j % p,
                              chunk=v - 1 - j // p)

    if num_micro_batches == p:
        warmup = total
    else:
        warmup = min(2 * (p - stage - 1) + (v - 1) * p, total)
    order = [forward_unit(k) for k in range(warmup)]
    for k in range(total - warmup):
        order.append(forward_unit(warmup + k))
        order.append(backward_unit(k))
    for k in range(total - warmup, total):
        order.append(backward_unit(k))
    return order


def schedule_order(schedule: PipelineSchedule, stage: int, num_stages: int,
                   num_micro_batches: int, *,
                   virtual_stages: int = 1) -> list[ScheduledChunk]:
    """Issue order for one stage under the chosen scheduling policy."""
    if virtual_stages < 1:
        raise ConfigError("virtual_stages must be positive")
    if schedule is PipelineSchedule.GPIPE:
        if virtual_stages > 1:
            raise ConfigError("GPipe has no interleaved variant; "
                              "virtual_stages requires the 1F1B schedule")
        return gpipe_order(num_micro_batches)
    if schedule is PipelineSchedule.ONE_F_ONE_B:
        if virtual_stages > 1:
            return interleaved_order(stage, num_stages, num_micro_batches,
                                     virtual_stages)
        return one_f_one_b_order(stage, num_stages, num_micro_batches)
    raise ConfigError(f"unknown schedule {schedule}")


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
    _check(num_micro_batches)
    if num_stages <= 0:
        raise ConfigError("num_stages must be positive")
    if virtual_stages < 1:
        raise ConfigError("virtual_stages must be positive")
    return ((num_stages - 1)
            / (virtual_stages * num_micro_batches + num_stages - 1))


def _check(num_micro_batches: int) -> None:
    if num_micro_batches <= 0:
        raise ConfigError("num_micro_batches must be positive")

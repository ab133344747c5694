"""Execution graphs: operators, pipeline schedules, builders, structure."""

from repro.graph.builder import (Granularity, GraphBuilder,
                                 clear_structure_cache,
                                 structure_cache_stats)
from repro.graph.operators import (CommKind, CommOperator, CommScope,
                                   CompOperator, OpKind, data_allreduce,
                                   pipeline_send_recv, tensor_allreduce)
from repro.graph.pipeline import (ScheduledChunk, gpipe_order,
                                  interleaved_order,
                                  last_backward_micro_batch,
                                  max_in_flight_micro_batches,
                                  one_f_one_b_order,
                                  pipeline_bubble_fraction, schedule_order,
                                  warmup_forwards)
from repro.graph.structure import COMM_STREAM, COMPUTE_STREAM, GraphStructure

__all__ = [
    "COMM_STREAM",
    "COMPUTE_STREAM",
    "CommKind",
    "CommOperator",
    "CommScope",
    "CompOperator",
    "Granularity",
    "GraphBuilder",
    "GraphStructure",
    "OpKind",
    "clear_structure_cache",
    "structure_cache_stats",
    "ScheduledChunk",
    "data_allreduce",
    "gpipe_order",
    "interleaved_order",
    "last_backward_micro_batch",
    "max_in_flight_micro_batches",
    "one_f_one_b_order",
    "pipeline_bubble_fraction",
    "pipeline_send_recv",
    "schedule_order",
    "tensor_allreduce",
    "warmup_forwards",
]

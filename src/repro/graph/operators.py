"""Operator taxonomy for the operator-granularity execution graph.

A layer-node in the paper's operator-granularity graph (Section III-B) is
either a *computation operator* — forward/backward pass of an MHA or FFN
block, embedding, LM head, weight update — or a *communication operator* —
All-Reduce or Send-Receive — inserted according to the parallelization
strategy (Figures 5, 6, 8).

Computation operators carry exactly the shape fields that determine their
CUDA-kernel decomposition; two operators with equal :attr:`signature`
decompose into identical kernel sequences. That equivalence is what makes
the paper's "necessary operator" optimisation sound: profiling one
representative per signature is enough (Section III-C).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from repro.config.parallelism import RecomputeMode
from repro.errors import ConfigError
from repro.hardware.interconnect import LinkType


class OpKind(enum.Enum):
    """Computation-operator kinds (forward order, then backward order)."""

    FWD_EMBEDDING = "fwd_embedding"
    FWD_MHA = "fwd_mha"
    FWD_FFN = "fwd_ffn"
    FWD_LM_HEAD = "fwd_lm_head"
    BWD_LM_HEAD = "bwd_lm_head"
    BWD_FFN = "bwd_ffn"
    BWD_MHA = "bwd_mha"
    BWD_EMBEDDING = "bwd_embedding"
    WEIGHT_UPDATE = "weight_update"


FORWARD_KINDS = frozenset({OpKind.FWD_EMBEDDING, OpKind.FWD_MHA,
                           OpKind.FWD_FFN, OpKind.FWD_LM_HEAD})
BACKWARD_KINDS = frozenset({OpKind.BWD_EMBEDDING, OpKind.BWD_MHA,
                            OpKind.BWD_FFN, OpKind.BWD_LM_HEAD})


@dataclass(frozen=True)
class CompOperator:
    """A computation layer-node with its kernel-determining shape.

    Attributes:
        kind: Which block this operator is.
        micro_batch: Sequences in the micro-batch (``b``).
        seq_length: Tokens per sequence (``s``).
        hidden_size: Model hidden dimension (``h``).
        num_heads: Attention heads (``n``); heads are split across tensor
            ranks.
        tensor_parallel: Tensor-parallel degree (``t``) — every weight
            matrix in the operator is sharded ``1/t``.
        vocab_size: Padded vocabulary (embedding / LM head only).
        recompute: Activation recomputation mode — changes the backward
            kernel sequence (re-executed forward kernels).
        num_params: Parameters updated (WEIGHT_UPDATE only).
        kv_length: KV-cache entries attention reads (decode-phase MHA
            only). Zero — the default, and the value for every training
            operator — means attention attends over the operator's own
            ``seq_length``; a positive value scales the attention
            score/context kernels to ``seq_length x kv_length``, the
            single-token-query-over-cached-keys shape of inference
            decode.
    """

    kind: OpKind
    micro_batch: int = 1
    seq_length: int = 1
    hidden_size: int = 1
    num_heads: int = 1
    tensor_parallel: int = 1
    vocab_size: int = 0
    recompute: RecomputeMode = RecomputeMode.NONE
    num_params: int = 0
    kv_length: int = 0

    def __post_init__(self) -> None:
        if self.kind is OpKind.WEIGHT_UPDATE:
            if self.num_params <= 0:
                raise ConfigError("WEIGHT_UPDATE requires num_params > 0")
            return
        for field in ("micro_batch", "seq_length", "hidden_size",
                      "num_heads", "tensor_parallel"):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{field} must be positive for {self.kind}")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError("hidden_size must be divisible by num_heads")
        if self.num_heads % self.tensor_parallel != 0:
            raise ConfigError("num_heads must be divisible by tensor_parallel")
        if self.kind in (OpKind.FWD_EMBEDDING, OpKind.BWD_EMBEDDING,
                         OpKind.FWD_LM_HEAD, OpKind.BWD_LM_HEAD):
            if self.vocab_size <= 0:
                raise ConfigError(f"{self.kind} requires vocab_size > 0")
        if self.kv_length < 0:
            raise ConfigError("kv_length must be non-negative")

    @functools.cached_property
    def signature(self) -> tuple:
        """Hashable profiling key — equal signature means equal kernels.

        :func:`comp_signature` over this operator's fields, computed
        once per instance. The graph builder forms the same key from
        raw numbers to probe the profile table without an instance."""
        return comp_signature(self.kind, self.micro_batch, self.seq_length,
                              self.hidden_size, self.num_heads,
                              self.tensor_parallel, self.vocab_size,
                              self.recompute, self.num_params,
                              self.kv_length)

    @property
    def tokens(self) -> int:
        """Tokens processed by this operator (``b * s``)."""
        return self.micro_batch * self.seq_length

    @property
    def is_forward(self) -> bool:
        """True for forward-pass operators."""
        return self.kind in FORWARD_KINDS

    @property
    def is_backward(self) -> bool:
        """True for backward-pass operators."""
        return self.kind in BACKWARD_KINDS


def comp_signature(kind: OpKind, micro_batch: int = 1, seq_length: int = 1,
                   hidden_size: int = 1, num_heads: int = 1,
                   tensor_parallel: int = 1, vocab_size: int = 0,
                   recompute: RecomputeMode = RecomputeMode.NONE,
                   num_params: int = 0, kv_length: int = 0) -> tuple:
    """The :attr:`CompOperator.signature` of an operator with these
    fields, taken in the dataclass's field order, without building it.

    Every field enters the key: a field left out would let two shapes
    share one profile. (Both key functions read enum members' values as
    ``_value_``, which skips the ``value`` descriptor's Python-level
    call, and a sweep forms thousands of keys.)
    """
    base = (kind._value_, micro_batch, seq_length, hidden_size, num_heads,
            tensor_parallel, vocab_size, recompute._value_, num_params)
    if kv_length:
        # Appended only when set, so every pre-workload (training)
        # signature — and therefore every profiling-table key — stays
        # byte-identical.
        return base + (kv_length,)
    return base


class CommKind(enum.Enum):
    """Communication-operator kinds inserted by 3D parallelism."""

    ALL_REDUCE = "all_reduce"
    SEND_RECV = "send_recv"


class CommScope(enum.Enum):
    """Which parallelism dimension a communication operator serves."""

    TENSOR = "tensor"      # intra-node All-Reduce after MHA/FFN (Fig. 6)
    DATA = "data"          # gradient All-Reduce per bucket (Fig. 5)
    PIPELINE = "pipeline"  # Send-Receive at stage boundaries (Fig. 6)


@dataclass(frozen=True)
class CommOperator:
    """A communication layer-node.

    Attributes:
        kind: Collective / point-to-point type.
        scope: Parallelism dimension that inserted it.
        size_bytes: Payload size.
        group_size: Participating workers (``n`` in Equation 1).
        link: Intra-node (NVLink, profile table) or inter-node
            (Equation-1 model).
        concurrent_groups: How many sibling collectives share this
            group's node uplinks (the Figure-3 "four data parallel
            groups share the same ToR switch" count). The basic
            Equation-1 model ignores it; the contention-aware extension
            (:class:`repro.profiling.advanced.ContentionAwareNcclModel`)
            derates bandwidth with it.
    """

    kind: CommKind
    scope: CommScope
    size_bytes: float
    group_size: int
    link: LinkType
    concurrent_groups: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ConfigError("size_bytes must be non-negative")
        if self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if self.concurrent_groups < 1:
            raise ConfigError("concurrent_groups must be >= 1")
        if self.kind is CommKind.SEND_RECV and self.group_size != 2:
            raise ConfigError("SEND_RECV involves exactly 2 workers")

    @functools.cached_property
    def signature(self) -> tuple:
        """Hashable key for communication-latency caching (the key
        :meth:`repro.profiling.nccl.NcclModel.time` memoizes costs
        under): :func:`comm_signature` over this operator's fields,
        computed once per instance."""
        return comm_signature(self.kind, self.scope, self.size_bytes,
                              self.group_size, self.link,
                              self.concurrent_groups)


def comm_signature(kind: CommKind, scope: CommScope, size_bytes: float,
                   group_size: int, link: LinkType,
                   concurrent_groups: int = 1) -> tuple:
    """The :attr:`CommOperator.signature` of an operator with these
    fields, taken in the dataclass's field order, without building it.

    Every field enters the key: a field left out would let two
    collectives share one cost.
    """
    return (kind._value_, scope._value_, float(size_bytes), group_size,
            link._value_, concurrent_groups)


def activation_bytes(micro_batch: int, seq_length: int,
                     hidden_size: int) -> float:
    """FP16 bytes of one block's output activation, ``b * s * h``
    elements: the payload of a TP All-Reduce and a pipeline hop."""
    return 2.0 * micro_batch * seq_length * hidden_size


def tensor_allreduce(micro_batch: int, seq_length: int, hidden_size: int,
                     tensor_parallel: int, link: LinkType) -> CommOperator:
    """The All-Reduce following an MHA or FFN block under TP (Figure 6).

    Payload is the block's FP16 output activation
    (:func:`activation_bytes`).
    """
    return CommOperator(kind=CommKind.ALL_REDUCE, scope=CommScope.TENSOR,
                        size_bytes=activation_bytes(micro_batch, seq_length,
                                                    hidden_size),
                        group_size=tensor_parallel, link=link)


def data_allreduce(grad_bytes: float, data_parallel: int, link: LinkType,
                   concurrent_groups: int = 1) -> CommOperator:
    """A gradient-bucket All-Reduce for data parallelism (Figure 5)."""
    return CommOperator(kind=CommKind.ALL_REDUCE, scope=CommScope.DATA,
                        size_bytes=grad_bytes, group_size=data_parallel,
                        link=link, concurrent_groups=concurrent_groups)


def pipeline_send_recv(micro_batch: int, seq_length: int, hidden_size: int,
                       link: LinkType) -> CommOperator:
    """The Send-Receive between adjacent pipeline stages (Figure 6)."""
    return CommOperator(kind=CommKind.SEND_RECV, scope=CommScope.PIPELINE,
                        size_bytes=activation_bytes(micro_batch, seq_length,
                                                    hidden_size),
                        group_size=2, link=link)

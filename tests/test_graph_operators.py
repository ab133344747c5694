"""Unit tests for the operator taxonomy."""

import dataclasses
import enum

import pytest

from repro.config.parallelism import RecomputeMode
from repro.errors import ConfigError
from repro.graph.operators import (CommKind, CommOperator, CommScope,
                                   CompOperator, OpKind, comm_signature,
                                   comp_signature, data_allreduce,
                                   pipeline_send_recv, tensor_allreduce)
from repro.hardware.interconnect import LinkType


def field_values(op) -> list:
    """An operator's field values, in field order."""
    return [getattr(op, field.name) for field in dataclasses.fields(op)]


def changed(value):
    """Another value of ``value``'s type: the next enum member, or one
    more."""
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    return value + 1


class TestSignatureKeys:
    """Each operator class's signature is its one key function over its
    fields, and every field enters the key (a field left out would let
    a probe by signature return another shape's duration)."""

    COMP = [CompOperator(OpKind.FWD_MHA, micro_batch=2, seq_length=1,
                         hidden_size=512, num_heads=8, tensor_parallel=2,
                         kv_length=96),
            CompOperator(OpKind.BWD_FFN, micro_batch=1, seq_length=128,
                         hidden_size=512, num_heads=8, tensor_parallel=4,
                         recompute=RecomputeMode.FULL),
            CompOperator(OpKind.FWD_EMBEDDING, micro_batch=4,
                         seq_length=64, hidden_size=256, num_heads=4,
                         vocab_size=32_000),
            CompOperator(OpKind.WEIGHT_UPDATE, num_params=1234)]
    COMM = [tensor_allreduce(2, 128, 512, 4, LinkType.INTRA_NODE),
            data_allreduce(3.0e6, 8, LinkType.INTER_NODE,
                           concurrent_groups=4),
            pipeline_send_recv(1, 128, 512, LinkType.INTER_NODE)]

    @pytest.mark.parametrize("op", COMP + COMM, ids=repr)
    def test_key_function_is_the_signature(self, op):
        key = (comp_signature if isinstance(op, CompOperator)
               else comm_signature)
        assert key(*field_values(op)) == op.signature

    @pytest.mark.parametrize("op", COMP + COMM, ids=repr)
    def test_every_field_changes_the_key(self, op):
        key = (comp_signature if isinstance(op, CompOperator)
               else comm_signature)
        values = field_values(op)
        for index, value in enumerate(values):
            other = values[:index] + [changed(value)] + values[index + 1:]
            assert key(*other) != key(*values), \
                dataclasses.fields(op)[index].name


class TestCompOperator:
    def _mha(self, **overrides):
        base = dict(kind=OpKind.FWD_MHA, micro_batch=2, seq_length=128,
                    hidden_size=512, num_heads=8, tensor_parallel=2)
        base.update(overrides)
        return CompOperator(**base)

    def test_signature_equality_for_identical_shapes(self):
        assert self._mha().signature == self._mha().signature

    def test_signature_differs_by_tensor_degree(self):
        assert self._mha().signature != self._mha(tensor_parallel=4).signature

    def test_signature_is_computed_once_and_leaves_equality_alone(self):
        op = self._mha()
        assert op.signature is op.signature
        assert op == self._mha() and hash(op) == hash(self._mha())

    def test_signature_differs_by_recompute(self):
        bwd = dict(kind=OpKind.BWD_MHA, micro_batch=1, seq_length=8,
                   hidden_size=64, num_heads=2, tensor_parallel=1)
        a = CompOperator(recompute=RecomputeMode.NONE, **bwd)
        b = CompOperator(recompute=RecomputeMode.FULL, **bwd)
        assert a.signature != b.signature

    def test_tokens(self):
        assert self._mha().tokens == 256

    def test_direction_flags(self):
        assert self._mha().is_forward
        assert not self._mha().is_backward
        bwd = self._mha(kind=OpKind.BWD_MHA)
        assert bwd.is_backward and not bwd.is_forward

    def test_weight_update_requires_params(self):
        with pytest.raises(ConfigError):
            CompOperator(kind=OpKind.WEIGHT_UPDATE)
        op = CompOperator(kind=OpKind.WEIGHT_UPDATE, num_params=100)
        assert op.num_params == 100

    def test_embedding_requires_vocab(self):
        with pytest.raises(ConfigError):
            CompOperator(kind=OpKind.FWD_EMBEDDING, micro_batch=1,
                         seq_length=8, hidden_size=64, num_heads=2,
                         tensor_parallel=1)

    def test_heads_must_divide_across_tensor_ranks(self):
        with pytest.raises(ConfigError):
            self._mha(num_heads=8, tensor_parallel=3)


class TestCommOperator:
    def test_tensor_allreduce_payload_is_bsh(self):
        comm = tensor_allreduce(2, 128, 512, 4, LinkType.INTRA_NODE)
        assert comm.size_bytes == pytest.approx(2 * 2 * 128 * 512)
        assert comm.group_size == 4
        assert comm.scope is CommScope.TENSOR

    def test_data_allreduce(self):
        comm = data_allreduce(1 << 20, 8, LinkType.INTER_NODE)
        assert comm.kind is CommKind.ALL_REDUCE
        assert comm.scope is CommScope.DATA

    def test_send_recv_group_is_two(self):
        comm = pipeline_send_recv(1, 128, 512, LinkType.INTER_NODE)
        assert comm.group_size == 2
        with pytest.raises(ConfigError):
            CommOperator(kind=CommKind.SEND_RECV, scope=CommScope.PIPELINE,
                         size_bytes=8, group_size=3,
                         link=LinkType.INTER_NODE)

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigError):
            CommOperator(kind=CommKind.ALL_REDUCE, scope=CommScope.DATA,
                         size_bytes=-1, group_size=2,
                         link=LinkType.INTRA_NODE)

    def test_signature_is_computed_once(self):
        op = tensor_allreduce(1, 128, 512, 4, LinkType.INTRA_NODE)
        assert op.signature is op.signature
        assert op == tensor_allreduce(1, 128, 512, 4, LinkType.INTRA_NODE)

    def test_signature_is_hashable_and_distinct(self):
        a = tensor_allreduce(1, 128, 512, 4, LinkType.INTRA_NODE)
        b = tensor_allreduce(1, 128, 512, 8, LinkType.INTRA_NODE)
        assert hash(a.signature) != hash(b.signature) or \
            a.signature != b.signature

"""Unit tests for GPipe/1F1B schedule generation (Figure 7)."""

import pytest
from graph_oracle import reference_order
from hypothesis import example, given
from hypothesis import strategies as st

from repro.config.parallelism import PipelineSchedule
from repro.errors import ConfigError
from repro.graph.pipeline import (BACKWARD, FORWARD, gpipe_order,
                                  issue_orders, last_backward_micro_batch,
                                  max_in_flight_micro_batches,
                                  one_f_one_b_order,
                                  pipeline_bubble_fraction, schedule_order)

GPIPE, ONE_F_ONE_B = PipelineSchedule.GPIPE, PipelineSchedule.ONE_F_ONE_B


def phases(order):
    return [(chunk.phase, chunk.micro_batch) for chunk in order]


class TestGPipe:
    def test_all_forwards_then_all_backwards(self):
        order = gpipe_order(4)
        assert phases(order) == [("F", 0), ("F", 1), ("F", 2), ("F", 3),
                                 ("B", 3), ("B", 2), ("B", 1), ("B", 0)]

    def test_every_micro_batch_once_per_phase(self):
        order = gpipe_order(7)
        fwd = [c.micro_batch for c in order if c.phase == FORWARD]
        bwd = [c.micro_batch for c in order if c.phase == BACKWARD]
        assert sorted(fwd) == list(range(7))
        assert sorted(bwd) == list(range(7))

    def test_rejects_zero_micro_batches(self):
        with pytest.raises(ConfigError):
            gpipe_order(0)


class TestOneFOneB:
    def test_figure_7b_stage0(self):
        """Stage 0 of a 2-deep pipeline with 4 micro-batches:
        F1, F2 B1, F3 B2, F4 B3, B4 (Figure 7b, 1-indexed)."""
        order = one_f_one_b_order(stage=0, num_stages=2, num_micro_batches=4)
        assert phases(order) == [("F", 0), ("F", 1), ("B", 0), ("F", 2),
                                 ("B", 1), ("F", 3), ("B", 2), ("B", 3)]

    def test_last_stage_strictly_alternates(self):
        order = one_f_one_b_order(stage=1, num_stages=2, num_micro_batches=4)
        assert phases(order) == [("F", 0), ("B", 0), ("F", 1), ("B", 1),
                                 ("F", 2), ("B", 2), ("F", 3), ("B", 3)]

    def test_warmup_shrinks_with_stage(self):
        for stage in range(4):
            order = one_f_one_b_order(stage, 4, 8)
            warmup = 0
            for chunk in order:
                if chunk.phase == BACKWARD:
                    break
                warmup += 1
            assert warmup == 4 - stage  # (p - 1 - stage) + the paired F

    def test_fewer_micro_batches_than_warmup(self):
        order = one_f_one_b_order(stage=0, num_stages=8, num_micro_batches=2)
        assert phases(order) == [("F", 0), ("F", 1), ("B", 0), ("B", 1)]

    def test_backward_order_is_fifo(self):
        order = one_f_one_b_order(stage=0, num_stages=3, num_micro_batches=6)
        bwd = [c.micro_batch for c in order if c.phase == BACKWARD]
        assert bwd == sorted(bwd)

    def test_rejects_bad_stage(self):
        with pytest.raises(ConfigError):
            one_f_one_b_order(stage=3, num_stages=3, num_micro_batches=2)


class TestHelpers:
    def test_schedule_order_dispatch(self):
        assert phases(schedule_order(PipelineSchedule.GPIPE, 0, 2, 2)) == \
            phases(gpipe_order(2))
        assert phases(schedule_order(PipelineSchedule.ONE_F_ONE_B, 0, 2, 2)) \
            == phases(one_f_one_b_order(0, 2, 2))

    def test_last_backward_micro_batch(self):
        assert last_backward_micro_batch(PipelineSchedule.GPIPE, 6) == 0
        assert last_backward_micro_batch(PipelineSchedule.ONE_F_ONE_B, 6) == 5

    def test_in_flight_gpipe_holds_everything(self):
        assert max_in_flight_micro_batches(PipelineSchedule.GPIPE, 0, 4,
                                           16) == 16

    def test_in_flight_1f1b_caps_at_depth(self):
        assert max_in_flight_micro_batches(PipelineSchedule.ONE_F_ONE_B, 0, 4,
                                           16) == 4
        assert max_in_flight_micro_batches(PipelineSchedule.ONE_F_ONE_B, 3, 4,
                                           16) == 1

    def test_bubble_fraction(self):
        assert pipeline_bubble_fraction(1, 8) == 0.0
        assert pipeline_bubble_fraction(4, 12) == pytest.approx(3 / 15)

    def test_bubble_fraction_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            pipeline_bubble_fraction(0, 4)
        with pytest.raises(ConfigError):
            pipeline_bubble_fraction(2, 0)
        with pytest.raises(ConfigError):
            pipeline_bubble_fraction(2, 4, 0)


class TestInterleavedHelpers:
    def test_schedule_order_dispatches_to_interleaved(self):
        from repro.graph.pipeline import interleaved_order
        interleaved = schedule_order(PipelineSchedule.ONE_F_ONE_B, 0, 2, 4,
                                     virtual_stages=2)
        assert phases(interleaved) == phases(interleaved_order(0, 2, 4, 2))
        assert any(chunk.chunk == 1 for chunk in interleaved)

    def test_v1_dispatch_is_plain_1f1b(self):
        assert phases(schedule_order(PipelineSchedule.ONE_F_ONE_B, 0, 2, 4,
                                     virtual_stages=1)) == \
            phases(one_f_one_b_order(0, 2, 4))

    def test_bubble_fraction_shrinks_by_v(self):
        assert pipeline_bubble_fraction(4, 12, 3) == pytest.approx(3 / 39)
        assert pipeline_bubble_fraction(4, 12, 1) == \
            pipeline_bubble_fraction(4, 12)

    def test_in_flight_interleaved_window_count(self):
        # p=4, v=2, NMB=8: stage 0 warms up 2*3 + 4 = 10 chunks, +1 in
        # steady state; deeper stages admit fewer.
        assert max_in_flight_micro_batches(
            PipelineSchedule.ONE_F_ONE_B, 0, 4, 8, virtual_stages=2) == 11
        assert max_in_flight_micro_batches(
            PipelineSchedule.ONE_F_ONE_B, 3, 4, 8, virtual_stages=2) == 5

    def test_in_flight_all_warmup_case(self):
        # NMB == p runs all-forward-then-all-backward: every chunk lives.
        assert max_in_flight_micro_batches(
            PipelineSchedule.ONE_F_ONE_B, 0, 4, 4, virtual_stages=2) == 8


@st.composite
def order_cases(draw):
    """``(schedule, p, NMB, v)``: ``None`` is the forward-only order;
    interleaving (``v > 1``) needs 1F1B and ``p | NMB``."""
    schedule = draw(st.sampled_from([None, GPIPE, ONE_F_ONE_B]))
    p = draw(st.integers(1, 12))
    v = draw(st.sampled_from([1, 2, 3, 4])) if schedule is ONE_F_ONE_B else 1
    if v > 1:
        nmb = p * draw(st.integers(1, 64 // p))
    else:
        nmb = draw(st.integers(1, 64))
    return schedule, p, nmb, v


class TestClosedForm:
    """``issue_orders`` against the unit-by-unit loops of
    ``graph_oracle.reference_order``, stage by stage."""

    @given(case=order_cases())
    @example(case=(ONE_F_ONE_B, 8, 3, 1))   # warm-ups clipped at NMB
    @example(case=(ONE_F_ONE_B, 4, 4, 1))   # NMB == p, plain 1F1B
    @example(case=(ONE_F_ONE_B, 4, 4, 3))   # NMB == p: all warm-up
    @example(case=(ONE_F_ONE_B, 12, 24, 4))
    @example(case=(GPIPE, 12, 64, 1))
    @example(case=(None, 3, 5, 1))
    def test_arrays_equal_the_reference_loops(self, case):
        schedule, p, nmb, v = case
        forward, micro_batch, chunk = issue_orders(schedule, p, nmb,
                                                   virtual_stages=v)
        units = nmb if schedule is None else 2 * nmb * v
        assert forward.shape == micro_batch.shape == chunk.shape == (p, units)
        assert forward.dtype.kind == "b"
        for stage in range(p):
            expected = reference_order(schedule, stage, p, nmb, v)
            assert list(zip(forward[stage].tolist(),
                            micro_batch[stage].tolist(),
                            chunk[stage].tolist())) == [
                (unit.phase == FORWARD, unit.micro_batch, unit.chunk)
                for unit in expected]
            if schedule is not None:
                assert schedule_order(schedule, stage, p, nmb,
                                      virtual_stages=v) == expected

    @pytest.mark.parametrize("args,match", [
        ((GPIPE, 2, 0), "num_micro_batches"),
        ((GPIPE, 0, 2), "num_stages"),
        ((ONE_F_ONE_B, 2, 4, 0), "virtual_stages"),
        ((GPIPE, 2, 4, 2), "interleaved"),
        ((None, 2, 4, 2), "interleaved"),
        ((ONE_F_ONE_B, 4, 6, 2), "multiple"),
        (("zigzag", 2, 4), "unknown schedule"),
    ])
    def test_rejects_what_the_loops_rejected(self, args, match):
        schedule, p, nmb, *v = args
        with pytest.raises(ConfigError, match=match):
            issue_orders(schedule, p, nmb, virtual_stages=v[0] if v else 1)

    def test_arrays_are_read_only(self):
        forward, micro_batch, chunk = issue_orders(ONE_F_ONE_B, 4, 8,
                                                   virtual_stages=2)
        for column in (forward, micro_batch, chunk):
            assert not column.flags.writeable

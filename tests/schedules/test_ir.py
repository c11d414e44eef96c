"""The schedule IR itself: task vocabulary, streams, registry."""

import pytest

from repro.schedules import (
    COMM_KINDS,
    COMPUTE_KINDS,
    Backward,
    BackwardInput,
    BackwardWeight,
    Dapple1F1BSchedule,
    Forward,
    GPipeSchedule,
    Interleaved1F1BSchedule,
    RecvAct,
    RecvGrad,
    SendAct,
    SendGrad,
    UnknownScheduleError,
    ZeroBubble2BPSchedule,
    build_schedule,
    parse_schedule_spec,
    schedule_names,
)
from tests.schedules.test_differential import reference_1f1b, reference_gpipe


class TestTaskVocabulary:
    def test_kinds(self):
        assert Forward(0).kind == "F"
        assert Backward(0).kind == "B"
        assert BackwardInput(0).kind == "BI"
        assert BackwardWeight(0).kind == "BW"
        assert COMPUTE_KINDS == {"F", "B", "BI", "BW"}
        assert {RecvAct(0).kind, SendAct(0).kind,
                RecvGrad(0).kind, SendGrad(0).kind} == COMM_KINDS

    def test_compute_flag(self):
        assert Forward(0).compute and BackwardWeight(0).compute
        assert not RecvAct(0).compute and not SendGrad(0).compute

    def test_tasks_are_frozen_values(self):
        assert Forward(3) == Forward(3)
        assert Forward(3) != Backward(3)
        with pytest.raises(Exception):
            Forward(3).micro_batch = 4


class TestStreamsAndLowering:
    def test_dapple_streams_match_reference(self):
        assert Dapple1F1BSchedule(4, 8).streams() == reference_1f1b(4, 8)

    def test_gpipe_streams_match_reference(self):
        assert GPipeSchedule(3, 6).streams() == reference_gpipe(3, 6)

    def test_streams_reject_comm_markers(self):
        class Marked(GPipeSchedule):
            def stage_stream(self, stage):
                yield RecvAct(0)
                yield from super().stage_stream(stage)

        with pytest.raises(ValueError, match="unknown task kind"):
            Marked(1, 1).validate()

    def test_steps_interpolates_comm_markers(self):
        sched = Dapple1F1BSchedule(2, 2)
        kinds = [t.kind for t in sched.steps(0)]
        # Stage 0 receives nothing forward, sends activations, receives
        # gradients; it never sends gradients (no upstream stage).
        assert "send_act" in kinds and "recv_grad" in kinds
        assert "recv_act" not in kinds and "send_grad" not in kinds
        last = [t.kind for t in sched.steps(1)]
        assert "recv_act" in last and "send_grad" in last
        assert "send_act" not in last

    def test_zb2bp_splits_backward(self):
        sched = ZeroBubble2BPSchedule(2, 4)
        kinds = [t.kind for t in sched.stage_tasks(1)]
        assert kinds.count("BI") == 4 and kinds.count("BW") == 4
        assert "B" not in kinds
        # Per micro-batch, BI precedes BW.
        for mb in range(4):
            tasks = list(sched.stage_tasks(1))
            bi = next(i for i, t in enumerate(tasks)
                      if t.kind == "BI" and t.micro_batch == mb)
            bw = next(i for i, t in enumerate(tasks)
                      if t.kind == "BW" and t.micro_batch == mb)
            assert bi < bw

    def test_interleaved_virtual_stages(self):
        sched = Interleaved1F1BSchedule(2, 4, chunks=2)
        assert sched.num_stages == 4
        assert sched.num_virtual_stages() == 4
        # Each virtual stage still runs every micro-batch forward+backward.
        for s in range(4):
            kinds = [t.kind for t in sched.stage_tasks(s)]
            assert kinds.count("F") == 4 and kinds.count("B") == 4

    def test_interleaved_rejects_bad_m(self):
        with pytest.raises(ValueError, match="divisible"):
            Interleaved1F1BSchedule(2, 3, chunks=2)

    def test_validate_accepts_all(self):
        for sched in (
            Dapple1F1BSchedule(3, 5),
            GPipeSchedule(3, 5),
            ZeroBubble2BPSchedule(3, 5),
            Interleaved1F1BSchedule(2, 4, chunks=2),
        ):
            sched.validate()  # no raise

    def test_memory_high_water_monotone(self):
        # GPipe holds everything; 1F1B caps stage 0 at ~S.
        gp = GPipeSchedule(4, 8).memory_high_water()
        da = Dapple1F1BSchedule(4, 8).memory_high_water()
        assert gp == [8, 8, 8, 8]
        assert da[0] <= 4 and da[-1] == 1
        assert all(d <= g for d, g in zip(da, gp))

    def test_describe_mentions_shape(self):
        assert "BI/BW" in ZeroBubble2BPSchedule(2, 4, weight_fraction=0.4).describe()
        assert "virtual" in Interleaved1F1BSchedule(2, 4).describe()


class TestRegistry:
    def test_names_cover_library(self):
        assert set(schedule_names()) >= {"dapple", "gpipe", "interleaved", "zb2bp"}

    def test_parse_specs(self):
        assert parse_schedule_spec("dapple") == ("dapple", {})
        assert parse_schedule_spec("1f1b") == ("dapple", {})  # alias
        assert parse_schedule_spec("zb2bp:w=0.4") == ("zb2bp", {"w": 0.4})
        assert parse_schedule_spec("interleaved:v=4") == ("interleaved", {"v": 4})

    def test_unknown_schedule_lists_valid_names(self):
        with pytest.raises(UnknownScheduleError) as exc:
            parse_schedule_spec("zigzag")
        for name in schedule_names():
            assert name in str(exc.value)
        assert isinstance(exc.value, ValueError)  # CLI exit-code contract

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="param"):
            parse_schedule_spec("dapple:beam=3")

    def test_build_from_spec(self):
        from types import SimpleNamespace

        plan = SimpleNamespace(num_stages=3, num_micro_batches=6)
        sched = build_schedule("zb2bp:w=0.25", plan=plan)
        assert isinstance(sched, ZeroBubble2BPSchedule)
        assert sched.backward_weight_fraction == 0.25
        assert isinstance(build_schedule("1f1b", plan=plan), Dapple1F1BSchedule)

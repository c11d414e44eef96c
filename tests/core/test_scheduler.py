"""Unit and property tests for the GPipe and DAPPLE micro-batch schedules
and the stream helpers of :mod:`repro.schedules`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedules import (
    Backward,
    Dapple1F1BSchedule,
    Forward,
    GPipeSchedule,
    max_resident_micro_batches,
    validate_schedule,
    warmup_counts,
)


def dapple_streams(s, m, policy="PA", max_in_memory=None):
    return Dapple1F1BSchedule(
        s, m, warmup_policy=policy, max_in_memory=max_in_memory
    ).streams()


def gpipe_streams(s, m):
    return GPipeSchedule(s, m).streams()


class TestWarmupCounts:
    def test_pa_formula(self):
        # Ki = min(S - i, D); S=4, M large, D large.
        assert warmup_counts(4, 100, "PA") == [4, 3, 2, 1]

    def test_pb_formula(self):
        # Ki = min(2(S - i) - 1, D)
        assert warmup_counts(4, 100, "PB") == [7, 5, 3, 1]

    def test_memory_cap_applies(self):
        assert warmup_counts(4, 100, "PB", max_in_memory=3) == [3, 3, 3, 1]

    def test_capped_by_micro_batches(self):
        assert warmup_counts(4, 2, "PA") == [2, 2, 2, 1]

    def test_last_stage_always_one(self):
        for policy in ("PA", "PB"):
            assert warmup_counts(5, 10, policy)[-1] == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            warmup_counts(0, 1)
        with pytest.raises(ValueError):
            warmup_counts(1, 0)
        with pytest.raises(ValueError):
            warmup_counts(2, 2, "PC")
        with pytest.raises(ValueError):
            warmup_counts(2, 2, "PA", max_in_memory=0)


class TestDappleSchedule:
    def test_last_stage_strict_1f1b(self):
        sched = dapple_streams(3, 4)
        last = [repr(t) for t in sched[-1]]
        assert last == ["F0", "B0", "F1", "B1", "F2", "B2", "F3", "B3"]

    def test_first_stage_warmup(self):
        sched = dapple_streams(3, 5)
        first = [repr(t) for t in sched[0]]
        assert first[:3] == ["F0", "F1", "F2"]  # K0 = 3 warm-up forwards
        assert first[3] == "B0"  # then strict interleave

    def test_valid_for_all_sizes(self):
        for s in range(1, 6):
            for m in range(1, 9):
                validate_schedule(dapple_streams(s, m), m)

    def test_memory_bound_by_k(self):
        sched = dapple_streams(4, 20, policy="PA")
        ks = warmup_counts(4, 20, "PA")
        for tasks, k in zip(sched, ks):
            assert max_resident_micro_batches(tasks) == k

    def test_pb_holds_more_in_flight(self):
        pa = dapple_streams(4, 20, policy="PA")
        pb = dapple_streams(4, 20, policy="PB")
        assert max_resident_micro_batches(pb[0]) > max_resident_micro_batches(pa[0])


class TestGPipeSchedule:
    def test_all_forwards_then_backwards(self):
        sched = gpipe_streams(2, 3)
        kinds = [t.kind for t in sched[0]]
        assert kinds == ["F", "F", "F", "B", "B", "B"]

    def test_backwards_reverse_order(self):
        sched = gpipe_streams(1, 4)
        b_order = [t.micro_batch for t in sched[0] if t.kind == "B"]
        assert b_order == [3, 2, 1, 0]

    def test_memory_grows_with_m(self):
        for m in (2, 5, 8):
            sched = gpipe_streams(3, m)
            assert max_resident_micro_batches(sched[0]) == m

    def test_valid(self):
        validate_schedule(gpipe_streams(4, 6), 6)


class TestValidateSchedule:
    def test_detects_backward_before_forward(self):
        bad = [[Backward(0), Forward(0)]]
        with pytest.raises(ValueError, match="before its forward"):
            validate_schedule(bad, 1)

    def test_detects_duplicates(self):
        bad = [[Forward(0), Forward(0), Backward(0)]]
        with pytest.raises(ValueError, match="duplicate"):
            validate_schedule(bad, 1)

    def test_detects_missing(self):
        bad = [[Forward(0), Backward(0)]]
        with pytest.raises(ValueError, match="incomplete"):
            validate_schedule(bad, 2)


class TestScheduleProperties:
    @given(
        s=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=32),
        policy=st.sampled_from(["PA", "PB"]),
        d=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_dapple_always_valid_and_bounded(self, s, m, policy, d):
        sched = dapple_streams(s, m, policy=policy, max_in_memory=d)
        validate_schedule(sched, m)
        ks = warmup_counts(s, m, policy, max_in_memory=d)
        for tasks, k in zip(sched, ks):
            # Peak resident micro-batches never exceeds the warm-up count,
            # which never exceeds the memory cap D (paper's central claim).
            assert max_resident_micro_batches(tasks) == k <= max(1, min(d, m))

    @given(s=st.integers(1, 8), m=st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_gpipe_memory_always_m(self, s, m):
        sched = gpipe_streams(s, m)
        validate_schedule(sched, m)
        assert all(max_resident_micro_batches(t) == m for t in sched)

    @given(s=st.integers(2, 8), m=st.integers(2, 32))
    @settings(max_examples=100, deadline=None)
    def test_dapple_never_worse_memory_than_gpipe(self, s, m):
        da = dapple_streams(s, m)
        gp = gpipe_streams(s, m)
        for a, g in zip(da, gp):
            assert max_resident_micro_batches(a) <= max_resident_micro_batches(g)

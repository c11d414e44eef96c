"""Property-based tests: checkpointing and memory-accounting invariants.

Two DAPPLE memory claims, checked on randomized inputs:

* re-computation (§VI-E) trades compute for memory — at any in-flight
  depth it must never *increase* a stage's peak, nor shrink the number of
  micro-batches a device can hold;
* the simulator's :class:`MemoryTimeline` must agree exactly with the
  closed-form :class:`StageMemory` accounting
  (``persistent + resident·per_mb + transient``) on arbitrary valid 1F1B
  interleaves, and stay within the ``Ki``-derived ``peak_bytes`` bound.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.generators import random_case, random_schedule
from repro.schedules import max_resident_micro_batches
from repro.runtime import execute_plan
from repro.runtime.memory import MemoryModel, StageMemory
from repro.sim.engine import MemEffect, Op, Simulator, TaskGraph

RECOMPUTE = ("boundary", "sqrt")


class TestRecomputeNeverIncreasesPeak:
    @given(seed=st.integers(0, 400), k=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_stage_peak_monotone_in_strategy(self, seed, k):
        case = random_case(seed)
        base = MemoryModel(case.profile, case.plan, recompute="none")
        for strategy in RECOMPUTE:
            model = MemoryModel(case.profile, case.plan, recompute=strategy)
            for i in range(case.plan.num_stages):
                b = base.stage_memory(i)
                c = model.stage_memory(i)
                assert c.peak_bytes(k) <= b.peak_bytes(k) * (1 + 1e-9), (
                    f"seed={seed} stage={i} {strategy}: "
                    f"{c.peak_bytes(k):.3e} > {b.peak_bytes(k):.3e} at k={k}"
                )

    @given(seed=st.integers(0, 400))
    @settings(max_examples=50, deadline=None)
    def test_recompute_never_shrinks_capacity(self, seed):
        # If a device can hold at least one micro-batch without recompute,
        # checkpointing can only raise (or keep) its in-flight capacity D.
        case = random_case(seed)
        base = MemoryModel(case.profile, case.plan, recompute="none")
        for strategy in RECOMPUTE:
            model = MemoryModel(case.profile, case.plan, recompute=strategy)
            for i, (sn, sc) in enumerate(zip(base.all_stages(), model.all_stages())):
                d_none = sn.max_resident_micro_batches()
                if d_none >= 1:
                    assert sc.max_resident_micro_batches() >= d_none, (
                        f"seed={seed} stage={i}: {strategy} shrank D"
                    )

    @pytest.mark.parametrize("strategy", RECOMPUTE)
    def test_execution_peak_never_above_none(self, strategy):
        # Same plan, same schedule (enforce_memory=False caps warm-up at M
        # for every strategy): the simulated per-device peak with recompute
        # must not exceed the no-recompute peak.
        for seed in (0, 3, 11, 27):
            case = random_case(seed)
            ref = execute_plan(
                case.profile, case.cluster, case.plan,
                warmup_policy=case.warmup_policy, recompute=False,
                enforce_memory=False,
            )
            ck = execute_plan(
                case.profile, case.cluster, case.plan,
                warmup_policy=case.warmup_policy, recompute=strategy,
                enforce_memory=False,
            )
            for dev in ref.memory.devices():
                assert ck.memory.peak(dev) <= ref.memory.peak(dev) * (1 + 1e-9), (
                    f"seed={seed} {strategy}: peak rose on {dev}"
                )


def _single_stage_graph(sm: StageMemory, tasks):
    """One device running ``tasks`` in order, with the executor's memory
    idiom: activations live from F-start to B-end, transient spans B."""
    dev = "gpu:0"
    g = TaskGraph()
    init = Op("init", 0.0)
    init.mem_effects.append(MemEffect(dev, sm.persistent_bytes))
    g.add(init)
    prev = "init"
    for t in tasks:
        name = f"{t.kind}/m{t.micro_batch}"
        op = Op(name, 1.0, resources=(dev,))
        if t.kind == "F":
            op.mem_effects.append(MemEffect(dev, sm.per_microbatch_bytes))
        else:
            tr = sm.transient_backward_bytes
            if tr > 0:
                op.mem_effects.append(MemEffect(dev, tr))
                op.mem_effects.append(MemEffect(dev, -tr, at_end=True))
            op.mem_effects.append(
                MemEffect(dev, -sm.per_microbatch_bytes, at_end=True)
            )
        g.add(op)
        g.add_dep(prev, name)
        prev = name
    return g, dev


def _closed_form_peak(sm: StageMemory, tasks) -> float:
    live, peak = 0, sm.persistent_bytes
    for t in tasks:
        if t.kind == "F":
            live += 1
            peak = max(peak, sm.persistent_bytes + live * sm.per_microbatch_bytes)
        else:
            peak = max(
                peak,
                sm.persistent_bytes
                + live * sm.per_microbatch_bytes
                + sm.transient_backward_bytes,
            )
            live -= 1
    return peak


class TestTimelineMatchesAccounting:
    @given(
        m=st.integers(1, 10),
        seed=st.integers(0, 10_000),
        persistent=st.floats(0.0, 1e9),
        full=st.floats(1.0, 1e9),
        ckpt_frac=st.floats(0.0, 1.0),
        recompute=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_simulated_peak_matches_closed_form(
        self, m, seed, persistent, full, ckpt_frac, recompute
    ):
        sm = StageMemory(
            persistent_bytes=persistent,
            full_activation_bytes=full,
            checkpoint_bytes=full * ckpt_frac,
            capacity_bytes=float("inf"),
            recompute=recompute,
        )
        tasks = random_schedule(m, random.Random(seed))
        g, dev = _single_stage_graph(sm, tasks)
        timeline = Simulator(g).run().memory

        want = _closed_form_peak(sm, tasks)
        assert timeline.peak(dev) == pytest.approx(want, rel=1e-9, abs=1e-6)
        # Conservation: every activation and transient is released.
        assert timeline.final(dev) == pytest.approx(persistent, rel=1e-9, abs=1e-6)
        # And the whole run stays within the Ki-derived bound (§III-B).
        k = max_resident_micro_batches(tasks)
        assert want <= sm.peak_bytes(k) * (1 + 1e-9) + 1e-6

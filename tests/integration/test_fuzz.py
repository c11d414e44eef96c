"""Fuzz tests: random-but-valid inputs through the full runtime stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.generators import ExplicitSchedule
from repro.cluster import config_a, config_b
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.core.serialization import plan_from_dict, plan_to_dict
from repro.models import uniform_model
from repro.runtime import execute_plan
from repro.schedules import Backward, Forward, validate_schedule
from tests.schedules.test_differential import one_f_one_b


def random_consistent_schedule(rng: np.random.Generator, num_stages: int, m: int):
    """Random 1F1B-style schedules with non-increasing warm-up depths.

    Stage-local causality is *not* enough for global consistency: a stage
    whose early-backward depth is shallower than its downstream stage's can
    form a control/data cycle (see
    ``test_inconsistent_schedule_cycle_detected``).  Non-increasing per-
    stage warm-up counts ``K_0 >= K_1 >= ... >= K_last`` — the structure
    DAPPLE's ``Ki = min(S−i, D)`` guarantees — are always consistent.
    """
    ks = []
    prev = m
    for i in range(num_stages):
        upper = max(1, min(prev, m))
        k = int(rng.integers(1, upper + 1))
        ks.append(k)
        prev = k
    return [one_f_one_b(m, k) for k in ks]


class TestScheduleFuzz:
    def test_inconsistent_schedule_cycle_detected(self):
        """A schedule that is valid per stage but globally inconsistent
        (upstream drains earlier than downstream) must be rejected as a
        dependency cycle, not silently deadlock."""
        from repro.core import profile_model as _pm

        model = uniform_model("bad", 4, 1e9, 10_000, 1e4, profile_batch=1)
        cluster = config_b(2)
        prof = _pm(model)
        stages = [Stage(0, 2, (cluster.device(0),)), Stage(2, 4, (cluster.device(1),))]
        plan = ParallelPlan(model, stages, 2, 2)
        bad = [
            [Forward(0), Backward(0), Forward(1), Backward(1)],  # K=1 upstream
            [Forward(0), Forward(1), Backward(0), Backward(1)],  # K=2 downstream
        ]
        with pytest.raises(ValueError, match="cycle"):
            execute_plan(prof, cluster, plan, schedule=ExplicitSchedule(bad, 2))

    @given(
        num_stages=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_valid_schedule_executes_without_deadlock(self, num_stages, m, seed):
        """Every globally-consistent (non-increasing warm-up) schedule
        executes to completion."""
        rng = np.random.default_rng(seed)
        sched = random_consistent_schedule(rng, num_stages, m)
        validate_schedule(sched, m)
        layers = max(num_stages * 2, 4)
        model = uniform_model("fz", layers, 1e9, 10_000, 1e4, profile_batch=1)
        cluster = config_b(num_stages)
        prof = profile_model(model)
        per = layers // num_stages
        stages = [
            Stage(i * per, layers if i == num_stages - 1 else (i + 1) * per,
                  (cluster.device(i),))
            for i in range(num_stages)
        ]
        plan = ParallelPlan(model, stages, m, m)
        res = execute_plan(prof, cluster, plan, schedule=ExplicitSchedule(sched, m))
        assert res.iteration_time > 0
        f_count = sum(1 for e in res.trace.events if e.tags.get("kind") == "F")
        assert f_count == num_stages * m


class TestSerializationFuzz:
    @given(
        layers=st.integers(min_value=2, max_value=20),
        num_stages=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_plan(self, layers, num_stages, seed):
        num_stages = min(num_stages, layers)
        rng = np.random.default_rng(seed)
        model = uniform_model("sz", layers, 1e9, 100, 1e3, profile_batch=1)
        cluster = config_a(2)
        # Random contiguous bounds and disjoint device groups.
        cuts = sorted(rng.choice(np.arange(1, layers), size=num_stages - 1,
                                 replace=False).tolist()) if num_stages > 1 else []
        bounds = [0, *cuts, layers]
        ids = rng.permutation(16)
        sizes = rng.integers(1, 4, size=num_stages)
        stages = []
        cursor = 0
        for k in range(num_stages):
            take = int(sizes[k])
            devs = tuple(cluster.device(int(i)) for i in ids[cursor : cursor + take])
            stages.append(Stage(bounds[k], bounds[k + 1], devs))
            cursor += take
        plan = ParallelPlan(model, stages, 8, 4)
        restored = plan_from_dict(plan_to_dict(plan), model, cluster)
        assert restored.split_positions == plan.split_positions
        assert [d.global_id for s in restored.stages for d in s.devices] == [
            d.global_id for s in plan.stages for d in s.devices
        ]

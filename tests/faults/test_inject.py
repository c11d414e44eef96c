"""Injection-layer tests: clean-path identity, rebuild fidelity, seeding."""

import numpy as np
import pytest

from repro.cluster import config_b
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.faults import (
    ComputeJitter,
    SlowDevice,
    execute_plan_faulted,
    perturb_graph,
    rebuild_with_durations,
)
from repro.models import uniform_model
from repro.runtime import execute_plan
from repro.sim import Op, Simulator, TaskGraph
from repro.sim.engine import MemEffect


def small_setup():
    model = uniform_model("flt", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
    cluster = config_b(2)
    prof = profile_model(model)
    d = cluster.devices
    plan = ParallelPlan(model, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4)
    return prof, cluster, plan


def tiny_graph():
    g = TaskGraph()
    a = Op("a", 1.0, resources=("r0",), priority=1.0, tags={"kind": "F"})
    a.mem_effects.append(MemEffect("dev:0", 64.0))
    g.add(a)
    g.add(Op("b", 2.0, resources=("r0", "r1"), tags={"kind": "send"}))
    g.add(Op("c", 0.0))
    g.add_dep("a", "b")
    g.add_dep("a", "c")
    return g


class TestRebuildWithDurations:
    def test_structure_preserved(self):
        g = tiny_graph()
        g2 = rebuild_with_durations(g, [3.0, 2.0, 0.0])
        assert g2._order == g._order
        assert g2._succ == g._succ
        ops, ops2 = g.ops(), g2.ops()
        assert [op.duration for op in ops2] == [3.0, 2.0, 0.0]
        for op, op2 in zip(ops, ops2):
            assert op2.resources == op.resources
            assert op2.priority == op.priority
            assert op2.tags == op.tags
            assert op2.mem_effects == op.mem_effects
            assert op2 is not op

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            rebuild_with_durations(tiny_graph(), [1.0])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            rebuild_with_durations(tiny_graph(), [1.0, -0.5, 0.0])


class TestPerturbGraph:
    def test_no_models_returns_same_object(self):
        g = tiny_graph()
        assert perturb_graph(g, (), seed=123) is g

    def test_seeded_and_reproducible(self):
        g = tiny_graph()
        models = (ComputeJitter(sigma=0.5, kinds=None),)
        d1 = [op.duration for op in perturb_graph(g, models, 7).ops()]
        d2 = [op.duration for op in perturb_graph(g, models, 7).ops()]
        d3 = [op.duration for op in perturb_graph(g, models, 8).ops()]
        assert d1 == d2
        assert d1 != d3
        assert all(d >= 0 for d in d1)

    def test_appending_model_keeps_earlier_draws(self):
        # Child generators are spawned per model, so adding a model must not
        # shift the draws consumed by the models before it.
        g = tiny_graph()
        jit = ComputeJitter(sigma=0.5, kinds=None)
        only = perturb_graph(g, (jit,), 7).ops()
        both = perturb_graph(g, (jit, SlowDevice(factor=1.0 + 1e-12)), 7).ops()
        np.testing.assert_allclose(
            [op.duration for op in both], [op.duration for op in only], rtol=1e-9
        )


class TestExecutePlanFaulted:
    def test_clean_path_byte_identical(self):
        prof, cluster, plan = small_setup()
        clean = execute_plan(prof, cluster, plan)
        faulted = execute_plan_faulted(prof, cluster, plan, models=(), seed=0)
        assert faulted.makespan == clean.iteration_time
        assert [
            (e.name, e.start, e.end) for e in faulted.result.trace.events
        ] == [(e.name, e.start, e.end) for e in clean.trace.events]

    def test_perturbed_run_reproducible_and_slower(self):
        prof, cluster, plan = small_setup()
        models = (SlowDevice(factor=2.0), ComputeJitter(sigma=0.1))
        a = execute_plan_faulted(prof, cluster, plan, models, seed=3)
        b = execute_plan_faulted(prof, cluster, plan, models, seed=3)
        clean = execute_plan(prof, cluster, plan)
        assert a.makespan == b.makespan
        assert a.makespan > clean.iteration_time

    def test_engines_agree_on_perturbed_run(self):
        prof, cluster, plan = small_setup()
        models = (SlowDevice(factor=1.8), ComputeJitter(sigma=0.2))
        ref = execute_plan_faulted(
            prof, cluster, plan, models, seed=5, sim_engine="reference"
        )
        fast = execute_plan_faulted(
            prof, cluster, plan, models, seed=5, sim_engine="compiled"
        )
        assert ref.makespan == fast.makespan
        assert [
            (e.name, e.start, e.end) for e in ref.result.trace.events
        ] == [(e.name, e.start, e.end) for e in fast.result.trace.events]

    @pytest.mark.parametrize("schedule", ["dapple", "gpipe", "zb2bp:w=0.4"])
    def test_faulted_result_carries_the_schedule(self, schedule):
        prof, cluster, plan = small_setup()
        clean = execute_plan(prof, cluster, plan, schedule=schedule)
        faulted = execute_plan_faulted(
            prof, cluster, plan, (SlowDevice(factor=1.5),), seed=1,
            schedule=schedule,
        ).result
        assert faulted.schedule.name == clean.schedule.name
        assert faulted.schedule.streams() == clean.schedule.streams()
        assert (
            faulted.schedule.backward_weight_fraction
            == clean.schedule.backward_weight_fraction
        )

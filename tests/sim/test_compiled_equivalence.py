"""Equivalence suite: compiled engine vs the reference oracle.

The compiled engine (indexed task graph + waiter-queue dispatch, columnar
trace/memory) must be **bit-identical** to the reference drain-everything
loop: same makespans, same event order under the (priority, submission-seq)
tie-break, same per-device memory timelines.  These tests enforce that over
seeded random DAGs (with shared resources, zero-duration barriers,
simultaneous completions, priority ties, and start/end memory effects), the
model zoo via the executor (DAPPLE, GPipe, ZB-2BP and interleaved
schedules), multi-iteration steady-state graphs, and the direct-graph
experiments.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import config_a, config_b, config_by_name
from repro.core import Planner, profile_model
from repro.core.plan import ParallelPlan, Stage, interleaved_straight_plan
from repro.experiments import fig8
from repro.faults import (
    ComputeJitter,
    SlowDevice,
    TransientFailure,
    execute_plan_faulted,
    perturb_graph,
)
from repro.models import get_model, uniform_model
from repro.runtime import execute_plan, simulate_iterations
from repro.sim import Op, Simulator, TaskGraph
from repro.sim.engine import MemEffect


def random_graph(seed: int, n: int, num_resources: int, num_devices: int = 3):
    """A seeded random DAG exercising every engine code path at once.

    Zero-duration barriers, duplicate durations (simultaneous completions),
    priority ties, multi-resource ops, resource-free ops, and memory deltas
    at both op start and op end.
    """
    rng = random.Random(seed)
    keys = [f"res:{i}" for i in range(num_resources)]
    devices = [f"dev:{i}" for i in range(num_devices)]
    g = TaskGraph()
    for i in range(n):
        duration = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0])
        nres = rng.choice([0, 1, 1, 2, 3])
        resources = tuple(rng.sample(keys, min(nres, len(keys))))
        priority = float(rng.choice([0, 0, 1, 2]))
        effects = [
            MemEffect(
                rng.choice(devices),
                rng.choice([64.0, -32.0, 128.0]),
                at_end=rng.random() < 0.5,
            )
            for _ in range(rng.choice([0, 0, 1, 2]))
        ]
        g.add(Op(f"op{i}", duration, resources=resources, priority=priority,
                 mem_effects=effects))
    for i in range(n):
        for j in rng.sample(range(n), min(3, n)):
            if j > i and rng.random() < 0.6:
                g.add_dep(f"op{i}", f"op{j}")
    return g


def event_rows(result):
    return [
        (e.name, e.start, e.end, e.resources, e.tags) for e in result.trace.events
    ]


def assert_identical(res_ref, res_fast):
    """Exact equality — no tolerances — of traces, makespans, and memory."""
    assert res_ref.makespan == res_fast.makespan
    assert event_rows(res_ref) == event_rows(res_fast)
    assert res_ref.memory.devices() == res_fast.memory.devices()
    assert res_ref.memory.peak_all() == res_fast.memory.peak_all()
    for dev in res_ref.memory.devices():
        t_ref, u_ref = res_ref.memory._materialize(dev)
        t_fast, u_fast = res_fast.memory._materialize(dev)
        assert np.array_equal(t_ref, t_fast)
        assert np.array_equal(u_ref, u_fast)


def run_both(build):
    """Build two identical graphs (fresh Ops each) and run both engines."""
    ref = Simulator(build(), engine="reference").run()
    fast = Simulator(build(), engine="compiled").run()
    return ref, fast


class TestRandomDagEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n=st.integers(min_value=1, max_value=120),
        num_resources=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_random_dags(self, seed, n, num_resources):
        ref, fast = run_both(lambda: random_graph(seed, n, num_resources))
        assert_identical(ref, fast)

    @pytest.mark.parametrize("seed", range(5))
    def test_large_random_dags(self, seed):
        ref, fast = run_both(lambda: random_graph(seed, 600, 4))
        assert_identical(ref, fast)

    def test_empty_graph(self):
        ref, fast = run_both(TaskGraph)
        assert ref.makespan == fast.makespan == 0.0
        assert fast.trace.events == []

    def test_zero_duration_barrier_chain(self):
        # Barriers complete at the instant they start, forcing several
        # dispatch rounds at the same timestamp.
        def build():
            g = TaskGraph()
            g.add(Op("a", 1.0, resources=("r0",)))
            g.add(Op("bar0", 0.0))
            g.add(Op("bar1", 0.0, resources=("r0",)))
            g.add(Op("b", 1.0, resources=("r0",), priority=1.0))
            g.add(Op("c", 1.0, resources=("r1",)))
            g.add_dep("a", "bar0")
            g.add_dep("bar0", "bar1")
            g.add_dep("bar1", "b")
            g.add_dep("bar1", "c")
            return g

        ref, fast = run_both(build)
        assert_identical(ref, fast)

    def test_simultaneous_completions_free_shared_resource(self):
        # x and y complete at the same instant; both free resources that
        # parked ops need — the drain must make both frees visible before
        # the (priority, seq)-ordered dispatch.
        def build():
            g = TaskGraph()
            g.add(Op("x", 2.0, resources=("r0",)))
            g.add(Op("y", 2.0, resources=("r1",)))
            g.add(Op("needs_both", 1.0, resources=("r0", "r1"), priority=1.0))
            g.add(Op("needs_r0", 1.0, resources=("r0",), priority=0.0))
            return g

        ref, fast = run_both(build)
        assert_identical(ref, fast)

    def test_priority_tie_falls_back_to_submission_order(self):
        def build():
            g = TaskGraph()
            for i in range(6):
                g.add(Op(f"op{i}", 1.0, resources=("gpu:0",), priority=5.0))
            return g

        ref, fast = run_both(build)
        assert [e.name for e in fast.trace.by_resource("gpu:0")] == [
            f"op{i}" for i in range(6)
        ]
        assert_identical(ref, fast)


class TestModelZooEquivalence:
    def _exec_both(self, prof, cluster, plan, **kw):
        ref = execute_plan(prof, cluster, plan, sim_engine="reference", **kw)
        fast = execute_plan(prof, cluster, plan, sim_engine="compiled", **kw)
        assert ref.iteration_time == fast.iteration_time
        assert event_rows(ref) == event_rows(fast)
        assert ref.memory.peak_all() == fast.memory.peak_all()
        return ref, fast

    def test_uniform_model_replicated_stages(self):
        model = uniform_model("eq", 8, 9e9, 1_000_000, 1e6, profile_batch=2)
        cluster = config_b(4)
        prof = profile_model(model)
        d = cluster.devices
        plan = ParallelPlan(
            model, [Stage(0, 4, tuple(d[:2])), Stage(4, 8, tuple(d[2:]))], 32, 8
        )
        self._exec_both(prof, cluster, plan)

    def test_vgg19_planned(self):
        prof = profile_model(get_model("vgg19"))
        cluster = config_b(4)
        plan = Planner(prof, cluster, 64).search().plan
        self._exec_both(prof, cluster, plan)

    def test_bert48_two_stage_gpipe_and_dapple(self):
        prof = profile_model(get_model("bert48"))
        cluster = config_a(16)
        d = cluster.devices
        plan = ParallelPlan(
            prof.graph,
            [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))],
            64,
            4,
        )
        for schedule in ("dapple", "gpipe"):
            self._exec_both(
                prof, cluster, plan, schedule=schedule, enforce_memory=False
            )

    @pytest.mark.parametrize("name", ["gnmt16", "vgg19", "bert48"])
    def test_zb2bp_and_interleaved(self, name):
        prof = profile_model(get_model(name))
        cluster = config_by_name("B", 8)
        plan = Planner(prof, cluster, 64).search().plan
        self._exec_both(
            prof, cluster, plan, schedule="zb2bp", enforce_memory=False
        )
        interleaved = interleaved_straight_plan(
            prof.graph, cluster.devices, 64, 8, virtual_per_device=2
        )
        self._exec_both(
            prof, cluster, interleaved, schedule="interleaved",
            enforce_memory=False,
        )

    def test_recompute_and_straggler(self):
        model = uniform_model("eq2", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
        cluster = config_b(2)
        prof = profile_model(model)
        d = cluster.devices
        plan = ParallelPlan(
            model, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
        )
        self._exec_both(
            prof, cluster, plan, recompute="sqrt", device_slowdown={0: 1.5}
        )

    def test_steady_state_sync_and_async(self):
        model = uniform_model("eq3", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
        cluster = config_b(2)
        prof = profile_model(model)
        for sync in (True, False):
            ref = simulate_iterations(
                prof, cluster, _two_stage_plan(model, cluster), num_iterations=3,
                sync=sync, sim_engine="reference",
            )
            fast = simulate_iterations(
                prof, cluster, _two_stage_plan(model, cluster), num_iterations=3,
                sync=sync, sim_engine="compiled",
            )
            assert ref.total_time == fast.total_time
            assert ref.iteration_ends == fast.iteration_ends
            assert [
                (e.name, e.start, e.end) for e in ref.trace.events
            ] == [(e.name, e.start, e.end) for e in fast.trace.events]

    def test_fig8_direct_graphs(self):
        ref = fig8.run(num_micro_batches=6, sim_engine="reference")
        fast = fig8.run(num_micro_batches=6, sim_engine="compiled")
        assert ref == fast


class TestPerturbedGraphEquivalence:
    """Seeded fault injection must preserve engine bit-identity.

    Perturbation rebuilds the graph with transformed durations *before*
    simulation, so both engines see the same perturbed graph — equivalence
    must hold for every (models, seed) combination, and a fixed seed must
    reproduce the exact same perturbed trace across runs.
    """

    MODELS = (
        ComputeJitter(sigma=0.2),
        SlowDevice(factor=1.7),
        TransientFailure(stall=0.8),
    )

    def _perturbed(self, seed, graph_seed=11):
        return perturb_graph(random_graph(graph_seed, 150, 4), self.MODELS, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dag_jitter_equivalence(self, seed):
        ref, fast = run_both(lambda: self._perturbed(seed))
        assert_identical(ref, fast)

    def test_fixed_seed_reproducible_across_runs(self):
        a = Simulator(self._perturbed(3), engine="compiled").run()
        b = Simulator(self._perturbed(3), engine="compiled").run()
        assert a.makespan == b.makespan
        assert event_rows(a) == event_rows(b)

    def test_different_seeds_differ(self):
        a = Simulator(self._perturbed(3), engine="compiled").run()
        b = Simulator(self._perturbed(4), engine="compiled").run()
        assert event_rows(a) != event_rows(b)

    def test_executor_graph_perturbed_equivalence(self):
        model = uniform_model("eqf", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
        cluster = config_b(2)
        prof = profile_model(model)
        plan = _two_stage_plan(model, cluster)
        ref = execute_plan_faulted(
            prof, cluster, plan, self.MODELS, seed=5, sim_engine="reference"
        )
        fast = execute_plan_faulted(
            prof, cluster, plan, self.MODELS, seed=5, sim_engine="compiled"
        )
        assert ref.makespan == fast.makespan
        assert event_rows(ref.result) == event_rows(fast.result)
        clean = execute_plan(prof, cluster, plan)
        assert fast.makespan > clean.iteration_time


def _two_stage_plan(model, cluster):
    d = cluster.devices
    return ParallelPlan(
        model, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
    )


class TestEngineSelection:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown sim engine"):
            Simulator(TaskGraph(), engine="turbo")


class TestColumnarTraceApi:
    def _result(self):
        return Simulator(random_graph(7, 80, 3), engine="compiled").run()

    def test_find_and_makespan(self):
        res = self._result()
        ev = res.trace.find("op0")
        assert ev.name == "op0"
        with pytest.raises(KeyError, match="got 0"):
            res.trace.find("missing")
        assert res.trace.makespan() == max(e.end for e in res.trace.events)

    def test_busy_time_matches_reference(self):
        fast = self._result()
        ref = Simulator(random_graph(7, 80, 3), engine="reference").run()
        for key in (f"res:{i}" for i in range(3)):
            assert fast.trace.busy_time(key) == ref.trace.busy_time(key)
            assert fast.trace.utilization(key) == ref.trace.utilization(key)

    def test_iter_rows_streams_without_events(self):
        res = self._result()
        rows = list(res.trace.iter_rows())
        assert rows == [
            (e.name, e.start, e.end, e.resources, e.tags)
            for e in res.trace.events
        ]

    def test_post_run_add_is_rejected(self):
        from repro.sim import TraceEvent

        res = self._result()
        with pytest.raises(TypeError, match="read-only"):
            res.trace.add(TraceEvent("extra", 0.0, 1e9, ("res:0",)))

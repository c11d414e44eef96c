"""Ensemble-analysis tests: critical paths, bubbles, Monte-Carlo reports."""

import numpy as np
import pytest

from repro.check.reference import event_bubble_fractions, event_critical_path
from repro.faults import (
    ComputeJitter,
    SlowDevice,
    critical_path,
    critical_path_stages,
    execute_plan_faulted,
    run_ensemble,
    stage_bubble_fractions,
)
from repro.runtime import execute_plan
from repro.sim import Op, Simulator, TaskGraph

from tests.faults.test_inject import small_setup
from tests.sim.test_compiled_equivalence import random_graph


class TestCriticalPath:
    def test_serial_chain_is_whole_path(self):
        g = TaskGraph()
        for i, name in enumerate(("a", "b", "c")):
            g.add(Op(name, 1.0, resources=("r0",), tags={"stage": i}))
        g.add_dep("a", "b")
        g.add_dep("b", "c")
        res = Simulator(g).run()
        path = critical_path(g, res.trace)
        assert [e.name for e in path] == ["a", "b", "c"]
        assert critical_path_stages(path) == (0, 1, 2)

    def test_slow_branch_wins(self):
        # Two independent branches join at a sink; only the slow branch can
        # gate the makespan.
        g = TaskGraph()
        g.add(Op("slow", 5.0, resources=("r0",), tags={"stage": 0}))
        g.add(Op("fast", 1.0, resources=("r1",), tags={"stage": 1}))
        g.add(Op("sink", 1.0, resources=("r2",), tags={"stage": 2}))
        g.add_dep("slow", "sink")
        g.add_dep("fast", "sink")
        res = Simulator(g).run()
        names = [e.name for e in critical_path(g, res.trace)]
        assert names == ["slow", "sink"]

    def test_resource_contention_links_the_path(self):
        # b has no dependency on a but waits for a's resource; the binding
        # constraint must follow the resource chain.
        g = TaskGraph()
        g.add(Op("a", 2.0, resources=("r0",), tags={"stage": 0}))
        g.add(Op("b", 1.0, resources=("r0",), tags={"stage": 0}))
        res = Simulator(g).run()
        names = [e.name for e in critical_path(g, res.trace)]
        assert names == ["a", "b"]

    def test_signature_dedupes_consecutive_stages(self):
        class E:
            def __init__(self, stage):
                self.tags = {} if stage is None else {"stage": stage}

        assert critical_path_stages(
            [E(0), E(0), E(None), E(1), E(1), E(0)]
        ) == (0, 1, 0)

    def test_stage_bubbles_in_unit_range(self):
        prof, cluster, plan = small_setup()
        res = execute_plan(prof, cluster, plan)
        bubbles = stage_bubble_fractions(res)
        assert set(bubbles) == {0, 1}
        assert all(0.0 <= v < 1.0 for v in bubbles.values())


class TestAgainstEventOracle:
    """The columnar analysis on the compiled trace == the event walk of
    :mod:`repro.check.reference` on the reference engine's trace."""

    @pytest.mark.parametrize("seed", range(6))
    def test_critical_path_on_contention_graphs(self, seed):
        graph = random_graph(seed, 150, 3)
        fast = Simulator(graph, engine="compiled").run()
        ref = Simulator(graph, engine="reference").run()
        path = critical_path(graph, fast.trace)
        oracle = event_critical_path(graph, ref.trace)
        assert path
        assert [(e.name, e.end) for e in path] == [
            (e.name, e.end) for e in oracle
        ]
        assert path[-1].end == fast.makespan

    @pytest.mark.parametrize("schedule", ["dapple", "gpipe"])
    def test_bubble_fractions_and_signature(self, schedule):
        prof, cluster, plan = small_setup()
        fast = execute_plan_faulted(
            prof, cluster, plan, (SlowDevice(factor=2.0),), seed=3,
            schedule=schedule,
        )
        ref = execute_plan_faulted(
            prof, cluster, plan, (SlowDevice(factor=2.0),), seed=3,
            schedule=schedule, sim_engine="reference",
        )
        assert stage_bubble_fractions(fast.result) == event_bubble_fractions(
            ref.result
        )
        path = critical_path(fast.graph, fast.result.trace)
        oracle = event_critical_path(ref.graph, ref.result.trace)
        assert critical_path_stages(path) == critical_path_stages(oracle)


class TestRunEnsemble:
    MODELS = (SlowDevice(factor=2.0), ComputeJitter(sigma=0.1))

    def _report(self, n=4):
        prof, cluster, plan = small_setup()
        return run_ensemble(prof, cluster, plan, self.MODELS, range(n))

    def test_report_statistics(self):
        rep = self._report()
        assert len(rep.outcomes) == 4
        assert rep.makespans.shape == (4,)
        assert rep.clean_makespan > 0
        assert rep.p50 <= rep.p95 <= rep.p99 <= rep.worst
        assert rep.slowdown(0.95) > 1.0
        assert 0.0 <= rep.critical_path_shift() <= 1.0

    def test_bubble_attribution_rows(self):
        rep = self._report()
        rows = rep.bubble_attribution()
        assert [r.stage for r in rows] == [0, 1]
        for r in rows:
            assert r.inflation == r.perturbed_fraction - r.clean_fraction

    def test_deterministic_across_calls(self):
        a, b = self._report(), self._report()
        assert np.array_equal(a.makespans, b.makespans)
        assert a.outcomes == b.outcomes

    def test_empty_seed_list_rejected(self):
        prof, cluster, plan = small_setup()
        with pytest.raises(ValueError, match="seed"):
            run_ensemble(prof, cluster, plan, self.MODELS, [])


@pytest.mark.slow
class TestLargeEnsemble:
    def test_bert48_ensemble_statistics(self):
        from repro.experiments.common import best_plan, cluster, profile

        prof, clu = profile("bert48"), cluster("A")
        plan = best_plan("bert48", "A", 64).plan
        rep = run_ensemble(
            prof, clu, plan,
            (SlowDevice(factor=1.5), ComputeJitter(sigma=0.05)),
            range(32),
        )
        assert len(rep.outcomes) == 32
        assert rep.slowdown(0.95) > 1.0
        assert rep.p99 >= rep.p50 > rep.clean_makespan

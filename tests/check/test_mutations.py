"""Mutation testing: deliberately corrupted executions must be caught,
with violations naming the offending op/stage/invariant (ISSUE 5
acceptance: corrupted warm-up count, dropped dependency edge, tampered
memory column)."""

from dataclasses import replace

from repro.check import check_execution
from repro.sim.engine import MemEffect, Simulator, TaskGraph


def _cap(executor) -> int:
    return min(executor.memory_model.max_in_flight())


def _clone_graph(graph, skip_edge=None, scale_mem_of=None, mem_factor=1.0):
    """Re-add all ops/edges, optionally dropping one edge or scaling one
    op's start-time memory delta."""
    g = TaskGraph()
    for op in graph.ops():
        effects = list(op.mem_effects)
        if op.name == scale_mem_of:
            effects = [
                MemEffect(e.device, e.delta * (1.0 if e.at_end else mem_factor),
                          at_end=e.at_end)
                for e in effects
            ]
        g.add(replace(op, mem_effects=effects))
    names = [op.name for op in graph.ops()]
    for i, succs in enumerate(graph.succ_ids):
        for j in succs:
            if (names[i], names[j]) == skip_edge:
                continue
            g.add_dep(names[i], names[j])
    return g


def _check(executor, graph):
    result = Simulator(graph).run()
    return check_execution(
        executor, graph, result,
        schedule_kind="dapple", warmup_policy="PA", max_in_memory=_cap(executor),
    )


class TestCorruptedWarmup:
    def test_extra_warmup_forward_is_caught(self, tiny_executor):
        # Last stage runs F0 B0 F1 B1 ... (K=1).  Swapping B0 and F1 makes
        # the warm-up prefix 2 — still a valid, deadlock-free schedule
        # (warm-up depths stay non-increasing along the pipeline), but it
        # no longer matches the PA policy count.
        last = tiny_executor.schedule.num_stages - 1
        sched = tiny_executor.schedule.stage_tasks(last)
        assert (sched[1].kind, sched[2].kind) == ("B", "F")
        sched[1], sched[2] = sched[2], sched[1]
        report = _check(tiny_executor, tiny_executor.build_graph())
        assert not report.ok
        bad = [v for v in report.violations if v.invariant == "warmup-count"]
        assert bad and bad[0].stage == last
        assert "Ki=1" in bad[0].message

    def test_trace_order_follows_the_mutation(self, tiny_executor):
        # The executed trace matches the (mutated) schedule, so only the
        # schedule-shape invariants fire — not trace-schedule-order.
        sched = tiny_executor.schedule.stage_tasks(
            tiny_executor.schedule.num_stages - 1
        )
        sched[1], sched[2] = sched[2], sched[1]
        report = _check(tiny_executor, tiny_executor.build_graph())
        kinds = {v.invariant for v in report.violations}
        assert "warmup-count" in kinds
        assert "trace-schedule-order" not in kinds


class TestDroppedDependencyEdge:
    def test_missing_fb_edge_is_caught_and_named(self, tiny_executor):
        graph = tiny_executor.build_graph()
        mutated = _clone_graph(graph, skip_edge=("F/s0/m0/r0", "B/s0/m0/r0"))
        report = _check(tiny_executor, mutated)
        assert not report.ok
        bad = [v for v in report.violations if v.invariant == "structure"]
        assert bad
        assert bad[0].op == "B/s0/m0/r0"
        assert bad[0].stage == 0
        assert "F/s0/m0/r0" in bad[0].message

    def test_missing_transfer_edge_is_caught(self, tiny_executor):
        graph = tiny_executor.build_graph()
        mutated = _clone_graph(graph, skip_edge=("send/s0/m2", "F/s1/m2/r0"))
        report = _check(tiny_executor, mutated)
        bad = [v for v in report.violations if v.invariant == "structure"]
        assert any(v.op == "F/s1/m2/r0" for v in bad)


class TestTamperedMemoryColumn:
    def test_inflated_allocation_breaks_ki_bound(self, tiny_executor):
        graph = tiny_executor.build_graph()
        # Triple one forward's activation allocation but keep its release:
        # the device peak rises above the Ki-derived bound and the leak
        # shows up as a conservation failure too.
        mutated = _clone_graph(
            graph, scale_mem_of="F/s1/m0/r0", mem_factor=3.0
        )
        report = _check(tiny_executor, mutated)
        assert not report.ok
        kinds = {v.invariant for v in report.violations}
        assert "memory-bound" in kinds
        assert "memory-conservation" in kinds
        bound = [v for v in report.violations if v.invariant == "memory-bound"]
        dev = tiny_executor.plan.stages[1].devices[0].resource_key
        assert bound[0].resource == dev


class TestBrokenWeightSync:
    def test_missing_allreduce_is_caught(self, tiny_executor):
        graph = tiny_executor.build_graph()
        g = TaskGraph()
        for op in graph.ops():
            if op.name == "allreduce/s1":
                continue
            g.add(replace(op, mem_effects=list(op.mem_effects)))
        names = [op.name for op in graph.ops()]
        for i, succs in enumerate(graph.succ_ids):
            for j in succs:
                if "allreduce/s1" in (names[i], names[j]):
                    continue
                g.add_dep(names[i], names[j])
        report = _check(tiny_executor, g)
        assert not report.ok
        bad = [v for v in report.violations if v.invariant == "weight-sync"]
        assert any(v.stage == 1 for v in bad)

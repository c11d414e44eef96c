"""Unit tests for the discrete-event simulation engine."""

from dataclasses import FrozenInstanceError

import pytest

from repro.sim import Op, Simulator, TaskGraph, compile_graph
from repro.sim.engine import MemEffect


def build(ops, deps):
    g = TaskGraph()
    for op in ops:
        g.add(op)
    for a, b in deps:
        g.add_dep(a, b)
    return g


class TestTaskGraph:
    def test_duplicate_name_rejected(self):
        g = TaskGraph()
        g.add(Op("a", 1.0))
        with pytest.raises(ValueError):
            g.add(Op("a", 2.0))

    def test_unknown_dep_rejected(self):
        g = TaskGraph()
        g.add(Op("a", 1.0))
        with pytest.raises(KeyError):
            g.add_dep("a", "missing")
        with pytest.raises(KeyError):
            g.add_dep("missing", "a")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Op("bad", -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Op("bad", bad)

    def test_duplicate_resource_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            Op("a", 1.0, ("gpu:0", "gpu:0"))
        assert Op("b", 1.0, ("gpu:0", "gpu:1")).resources == ("gpu:0", "gpu:1")

    @pytest.mark.parametrize("field, value", [
        ("duration", 5.0), ("priority", 1.0), ("resources", ("gpu:1",)),
        ("mem_effects", []),
    ])
    def test_op_fields_are_frozen(self, field, value):
        op = Op("a", 1.0, ("gpu:0",), mem_effects=[MemEffect("gpu:0", 8.0)])
        with pytest.raises(FrozenInstanceError):
            setattr(op, field, value)

    def test_mem_effects_cannot_grow_after_construction(self):
        op = Op("a", 1.0, ("gpu:0",), mem_effects=[MemEffect("gpu:0", 8.0)])
        assert op.mem_effects == (MemEffect("gpu:0", 8.0),)
        with pytest.raises(AttributeError):
            op.mem_effects.append(MemEffect("gpu:0", -8.0, at_end=True))
        assert Op("b", 1.0).mem_effects == ()

    def test_compile_graph_returns_the_graph(self):
        g = build([Op("a", 1.0)], [])
        assert compile_graph(g) is g

    def test_compiled_graph_rejects_ops_and_deps(self):
        g = build([Op("a", 1.0), Op("b", 1.0)], [])
        compile_graph(g)
        with pytest.raises(RuntimeError, match="sealed"):
            g.add(Op("c", 1.0))
        with pytest.raises(RuntimeError, match="sealed"):
            g.add_dep("a", "b")
        assert len(g) == 2 and g.indegree == [0, 0]

    def test_simulating_seals_the_graph(self):
        g = build([Op("a", 1.0)], [])
        Simulator(g).run()
        with pytest.raises(RuntimeError, match="sealed"):
            g.add(Op("b", 1.0))

    def test_cycle_detected(self):
        # Validation is lazy: the cycle surfaces when the graph is run.
        g = build([Op("a", 1.0), Op("b", 1.0)], [("a", "b"), ("b", "a")])
        for engine in ("compiled", "reference"):
            with pytest.raises(ValueError, match="cycle"):
                Simulator(g, engine=engine).run()


class TestSequentialExecution:
    def test_single_op(self):
        g = build([Op("a", 2.5)], [])
        res = Simulator(g).run()
        assert res.makespan == pytest.approx(2.5)

    def test_chain_sums_durations(self):
        ops = [Op(f"op{i}", 1.0 + i) for i in range(5)]
        deps = [(f"op{i}", f"op{i+1}") for i in range(4)]
        res = Simulator(build(ops, deps)).run()
        assert res.makespan == pytest.approx(sum(1.0 + i for i in range(5)))

    def test_zero_duration_ops(self):
        g = build([Op("a", 0.0), Op("b", 0.0)], [("a", "b")])
        assert Simulator(g).run().makespan == 0.0

    def test_empty_graph(self):
        assert Simulator(TaskGraph()).run().makespan == 0.0


class TestParallelExecution:
    def test_independent_ops_same_resource_serialize(self):
        ops = [Op(f"op{i}", 1.0, resources=("gpu:0",)) for i in range(4)]
        res = Simulator(build(ops, [])).run()
        assert res.makespan == pytest.approx(4.0)

    def test_independent_ops_distinct_resources_parallel(self):
        ops = [Op(f"op{i}", 1.0, resources=(f"gpu:{i}",)) for i in range(4)]
        res = Simulator(build(ops, [])).run()
        assert res.makespan == pytest.approx(1.0)

    def test_no_resource_ops_run_concurrently(self):
        ops = [Op(f"op{i}", 3.0) for i in range(10)]
        res = Simulator(build(ops, [])).run()
        assert res.makespan == pytest.approx(3.0)

    def test_diamond_dependency(self):
        # a -> (b, c) -> d ; b and c on different devices run in parallel.
        ops = [
            Op("a", 1.0, resources=("gpu:0",)),
            Op("b", 2.0, resources=("gpu:0",)),
            Op("c", 3.0, resources=("gpu:1",)),
            Op("d", 1.0, resources=("gpu:0",)),
        ]
        deps = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        res = Simulator(build(ops, deps)).run()
        assert res.makespan == pytest.approx(1.0 + 3.0 + 1.0)

    def test_multi_resource_op_waits_for_all(self):
        # x holds gpu:0 for 5s; y needs gpu:0 AND gpu:1 so it waits; z needs
        # only gpu:1 and is ready first, so it runs before y.
        ops = [
            Op("x", 5.0, resources=("gpu:0",)),
            Op("y", 1.0, resources=("gpu:0", "gpu:1")),
            Op("z", 2.0, resources=("gpu:1",)),
        ]
        res = Simulator(build(ops, [])).run()
        ev = {e.name: e for e in res.trace.events}
        assert ev["z"].start == pytest.approx(0.0)
        assert ev["y"].start == pytest.approx(5.0)
        assert res.makespan == pytest.approx(6.0)


class TestPriority:
    def test_lower_priority_value_runs_first(self):
        ops = [
            Op("late", 1.0, resources=("gpu:0",), priority=2.0),
            Op("early", 1.0, resources=("gpu:0",), priority=1.0),
        ]
        res = Simulator(build(ops, [])).run()
        ev = {e.name: e for e in res.trace.events}
        assert ev["early"].start < ev["late"].start

    def test_fifo_tiebreak_is_submission_order(self):
        ops = [Op(f"op{i}", 1.0, resources=("gpu:0",)) for i in range(3)]
        res = Simulator(build(ops, [])).run()
        order = [e.name for e in res.trace.by_resource("gpu:0")]
        assert order == ["op0", "op1", "op2"]


class TestDeterminism:
    def test_repeated_runs_identical(self):
        ops = [
            Op(f"op{i}", 0.5 + (i % 3) * 0.25, resources=(f"gpu:{i % 2}",), priority=i % 4)
            for i in range(20)
        ]
        deps = [(f"op{i}", f"op{i+5}") for i in range(15)]
        g1 = build(ops, deps)
        ops2 = [
            Op(f"op{i}", 0.5 + (i % 3) * 0.25, resources=(f"gpu:{i % 2}",), priority=i % 4)
            for i in range(20)
        ]
        g2 = build(ops2, deps)
        t1 = [(e.name, e.start, e.end) for e in Simulator(g1).run().trace.events]
        t2 = [(e.name, e.start, e.end) for e in Simulator(g2).run().trace.events]
        assert t1 == t2


class TestMemoryAccounting:
    def test_alloc_and_free(self):
        op_a = Op("alloc", 1.0, resources=("gpu:0",),
                  mem_effects=[MemEffect("gpu:0", 100.0)])
        op_b = Op("free", 1.0, resources=("gpu:0",),
                  mem_effects=[MemEffect("gpu:0", -100.0, at_end=True)])
        g = build([op_a, op_b], [("alloc", "free")])
        res = Simulator(g).run()
        assert res.memory.peak("gpu:0") == pytest.approx(100.0)
        assert res.memory.final("gpu:0") == pytest.approx(0.0)

    def test_free_before_alloc_at_same_time(self):
        # b frees at t=1 (end); c allocates at t=1 (start): peak must be 100,
        # not 200, because end-phase deltas apply first.
        a = Op("a", 1.0, resources=("gpu:0",), mem_effects=[
            MemEffect("gpu:0", 100.0), MemEffect("gpu:0", -100.0, at_end=True),
        ])
        c = Op("c", 1.0, resources=("gpu:0",),
               mem_effects=[MemEffect("gpu:0", 100.0)])
        g = build([a, c], [("a", "c")])
        res = Simulator(g).run()
        assert res.memory.peak("gpu:0") == pytest.approx(100.0)

    def test_concurrent_allocations_stack(self):
        ops = []
        for i in range(3):
            ops.append(Op(f"op{i}", 2.0, resources=(f"gpu:{i}",), mem_effects=[
                MemEffect("shared", 50.0), MemEffect("shared", -50.0, at_end=True),
            ]))
        res = Simulator(build(ops, [])).run()
        assert res.memory.peak("shared") == pytest.approx(150.0)


class TestTrace:
    def test_utilization(self):
        ops = [
            Op("a", 1.0, resources=("gpu:0",)),
            Op("b", 1.0, resources=("gpu:1",)),
            Op("c", 2.0, resources=("gpu:1",)),
        ]
        res = Simulator(build(ops, [("a", "c")])).run()
        assert res.trace.utilization("gpu:1") == pytest.approx(1.0)
        assert res.trace.utilization("gpu:0") == pytest.approx(1.0 / 3.0)

    def test_find_unique(self):
        res = Simulator(build([Op("only", 1.0)], [])).run()
        assert res.trace.find("only").duration == pytest.approx(1.0)
        with pytest.raises(KeyError):
            res.trace.find("absent")

"""The conformance checker accepts every legitimate schedule shape."""

import pytest

import repro.sim.compiled as compiled
from repro.check import check_execution, check_simulation, verify_execution
from repro.check.invariants import ConformanceError, Violation
from repro.faults.inject import rebuild_with_durations
from repro.sim.engine import SimulationResult, Simulator


class TestCleanRunsPass:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @pytest.mark.parametrize("schedule", ["dapple", "gpipe"])
    def test_tiny_pipeline_conforms(self, tiny, schedule, engine):
        prof, cluster, plan = tiny
        report = verify_execution(
            prof, cluster, plan, schedule=schedule, engine=engine
        )
        assert report.ok, report.render()
        assert len(report.checks) >= 10

    @pytest.mark.parametrize("policy", ["PA", "PB"])
    def test_both_warmup_policies(self, tiny, policy):
        prof, cluster, plan = tiny
        report = verify_execution(prof, cluster, plan, warmup_policy=policy)
        assert report.ok, report.render()
        assert "warmup-count" in report.checks

    def test_recompute_conforms(self, tiny):
        prof, cluster, plan = tiny
        report = verify_execution(prof, cluster, plan, recompute="boundary")
        assert report.ok, report.render()

    def test_dapple_checks_more_than_gpipe(self, tiny):
        prof, cluster, plan = tiny
        dapple = verify_execution(prof, cluster, plan, schedule="dapple")
        gpipe = verify_execution(prof, cluster, plan, schedule="gpipe")
        assert "warmup-count" in dapple.checks
        assert "warmup-count" not in gpipe.checks
        assert "gpipe-shape" in gpipe.checks


class TestReportType:
    def test_violation_str_names_op_stage_invariant(self):
        v = Violation(
            "warmup-count", "3 forwards, expected 2", op="F/s1/m2/r0", stage=1
        )
        s = str(v)
        assert "warmup-count" in s
        assert "F/s1/m2/r0" in s
        assert "stage=1" in s

    def test_raise_if_failed(self, tiny):
        prof, cluster, plan = tiny
        report = verify_execution(prof, cluster, plan)
        report.raise_if_failed()  # clean: no-op
        report.add(Violation("structure", "synthetic"))
        with pytest.raises(ConformanceError) as exc:
            report.raise_if_failed()
        assert exc.value.report is report
        assert "structure" in str(exc.value)


class TestSimulatorValidate:
    def test_validate_true_on_clean_graph(self, tiny_executor):
        graph = tiny_executor.build_graph()
        result = Simulator(graph).run(validate=True)
        assert result.makespan > 0

    def test_validate_catches_duration_tamper(self, tiny_executor, monkeypatch):
        # The event loop simulates a copy with one op seven times slower, so
        # the trace contradicts the duration the graph itself declares.
        graph = tiny_executor.build_graph()
        durations = list(graph.duration_list)
        durations[graph.id_of["F/s0/m0/r0"]] *= 7
        tampered = rebuild_with_durations(graph, durations)
        run_compiled = compiled.run_compiled
        monkeypatch.setattr(
            compiled, "run_compiled", lambda _graph: run_compiled(tampered)
        )
        with pytest.raises(ConformanceError) as exc:
            Simulator(graph).run(validate=True)
        assert any(
            v.invariant == "duration-fidelity" and v.op == "F/s0/m0/r0"
            for v in exc.value.report.violations
        )


class TestLowerBound:
    def test_understated_makespan_is_flagged(self, tiny_executor):
        graph = tiny_executor.build_graph()
        honest = Simulator(graph).run()
        lied = SimulationResult(
            makespan=honest.makespan * 0.5,
            trace=honest.trace,
            memory=honest.memory,
        )
        report = check_simulation(graph, lied)
        assert any(
            v.invariant == "makespan-lower-bound" for v in report.violations
        )

    def test_honest_makespan_passes(self, tiny_executor):
        graph = tiny_executor.build_graph()
        result = Simulator(graph).run()
        assert check_simulation(graph, result).ok


class TestScheduleKindNone:
    def test_custom_schedule_skips_shape_checks(self, tiny, tiny_executor):
        prof, cluster, plan = tiny
        graph = tiny_executor.build_graph()
        result = Simulator(graph).run()
        report = check_execution(
            tiny_executor, graph, result, schedule_kind=None
        )
        assert report.ok, report.render()
        assert "warmup-count" not in report.checks
        assert "structure" in report.checks

"""Differential oracles pass on healthy code and catch real divergence."""

import repro.check.reference as reference
from repro.check import (
    oracle_clean_faults,
    oracle_engines,
    oracle_explain,
    oracle_memory_m_independence,
    oracle_plan_cache,
    oracle_planner,
    oracle_served_plan,
    run_oracles,
)
from repro.faults.inject import rebuild_with_durations


class TestOraclesPass:
    def test_engine_equivalence(self, tiny_executor):
        report = oracle_engines(tiny_executor.build_graph())
        assert report.ok, report.render()

    def test_planner_fast_vs_scalar(self, tiny):
        prof, cluster, plan = tiny
        report = oracle_planner(prof, cluster, plan.global_batch_size)
        assert report.ok, report.render()

    def test_plan_cache_round_trip(self, tiny):
        prof, cluster, plan = tiny
        report = oracle_plan_cache(prof, cluster, plan.global_batch_size)
        assert report.ok, report.render()

    def test_served_plan_matches_direct(self, tiny):
        prof, cluster, plan = tiny
        report = oracle_served_plan(prof, cluster, plan.global_batch_size)
        assert report.ok, report.render()
        assert report.checks  # skipped-on-bind-failure still records the run

    def test_explain_decomposition(self, tiny):
        prof, cluster, plan = tiny
        assert oracle_explain(prof, cluster, plan).ok

    def test_clean_fault_path(self, tiny):
        prof, cluster, plan = tiny
        report = oracle_clean_faults(prof, cluster, plan)
        assert report.ok, report.render()

    def test_memory_m_independence(self, tiny):
        prof, cluster, plan = tiny
        report = oracle_memory_m_independence(prof, cluster, plan)
        assert report.ok, report.render()

    def test_run_all(self, tiny):
        prof, cluster, plan = tiny
        report = run_oracles(prof, cluster, plan, gbs=plan.global_batch_size)
        assert report.ok, report.render()
        assert len(report.checks) == 9
        assert "oracle-served-plan" in report.checks
        assert "oracle-fold" in report.checks


class TestOraclesCatchDivergence:
    def test_engine_divergence_is_caught(self, tiny_executor, monkeypatch):
        # The reference side simulates a copy of the graph with one op five
        # times slower; the compiled side runs the graph itself.  The
        # engines then disagree — exactly what the oracle exists to detect.
        graph = tiny_executor.build_graph()
        durations = list(graph.duration_list)
        durations[graph.id_of["F/s0/m1/r0"]] *= 5
        tampered = rebuild_with_durations(graph, durations)
        run_reference = reference.run_reference
        monkeypatch.setattr(
            reference, "run_reference", lambda _graph: run_reference(tampered)
        )
        report = oracle_engines(graph)
        assert not report.ok
        assert all(v.invariant == "oracle-engines" for v in report.violations)

"""Differential oracles pass on healthy code and catch real divergence."""

import repro.check.reference as reference
from repro.check import (
    oracle_batched_ensemble,
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


def _wide():
    """Six replicas in stage 0: room for the oracle's three victim slots."""
    from repro.cluster.configs import config_by_name
    from repro.core.plan import ParallelPlan, Stage
    from repro.core.profiler import profile_model
    from repro.models.graph import uniform_model

    model = uniform_model("wide-check", 4, 1e9, 100_000, 1e6)
    cluster = config_by_name("B", num_devices=8)
    d = cluster.devices
    plan = ParallelPlan(model, [Stage(0, 2, tuple(d[:6])), Stage(2, 4, tuple(d[6:]))],
                        global_batch_size=24, num_micro_batches=4)
    return profile_model(model), cluster, plan


class TestBatchedEnsembleOracle:
    def test_victim_slot_graph_passes(self):
        report = oracle_batched_ensemble(*_wide())
        assert report.ok, report.render()

    def test_unplaced_victims_are_caught(self, monkeypatch):
        # A victim left in its folded class slows either the whole class
        # (the class's own key) or nothing (any other member's key).
        import repro.faults.models as models

        monkeypatch.setattr(models._GraphIndex, "place", lambda self, key: key)
        report = oracle_batched_ensemble(*_wide())
        assert not report.ok
        assert "victim-slot graph" in report.violations[0].message

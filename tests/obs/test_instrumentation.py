"""Cross-layer instrumentation: planner, simulator, and faults publish the
right spans and metrics when observability is on — and nothing when off."""

import pytest

import repro.obs as obs
from repro.cluster import config_b
from repro.core import Planner, profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.models import get_model, uniform_model
from repro.runtime import execute_plan


@pytest.fixture()
def small_problem():
    model = uniform_model("obs", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
    cluster = config_b(2)
    return profile_model(model), cluster


class TestPlannerMetrics:
    def test_search_span_and_counters(self, small_problem):
        prof, cluster = small_problem
        obs.enable()
        result = Planner(prof, cluster, 16).search()
        names = [r.name for r in obs.tracer().spans()]
        assert "planner.search" in names
        reg = obs.registry()
        assert reg.counter("planner.plans_evaluated").value == result.plans_evaluated
        assert reg.counter("planner.states_expanded").value == result.states_explored
        assert reg.counter("planner.infeasible_plans").value == result.infeasible_plans

    def test_per_split_repl_scoring_counts_match_scalar_path(self, small_problem):
        """The level-batched search counts candidate scorings analytically
        (one outer product per state); the scalar oracle counts one by one.
        Both must agree series-for-series."""
        from repro.check import ScalarPlanner

        prof, cluster = small_problem

        def counts(planner_cls):
            obs.enable(reset_state=True)
            planner_cls(prof, cluster, 16).search()
            return {
                (m.labels, m.value)
                for m in obs.registry().snapshot()
                if m.name == "planner.scored"
            }

        fast = counts(Planner)
        scalar = counts(ScalarPlanner)
        assert fast == scalar
        assert fast  # non-empty: the search did score candidates

    def test_search_records_nothing_when_disabled(self, small_problem):
        prof, cluster = small_problem
        Planner(prof, cluster, 16).search()
        assert len(obs.tracer()) == 0
        assert len(obs.registry()) == 0


class TestSimulatorMetrics:
    def _run(self, prof, cluster, engine):
        d = cluster.devices
        plan = ParallelPlan(
            prof.graph, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
        )
        return execute_plan(prof, cluster, plan, sim_engine=engine)

    def test_run_publishes_events_occupancy_memory(self, small_problem):
        prof, cluster = small_problem
        obs.enable()
        res = self._run(prof, cluster, "compiled")
        reg = obs.registry()
        assert reg.counter("sim.events").value == sum(
            1 for _ in res.trace.iter_rows()
        )
        occ = reg.gauge("sim.occupancy", resource="gpu:0").value
        assert 0.0 < occ <= 1.0
        peak = reg.gauge("sim.memory_peak_bytes", device="gpu:0").value
        assert peak == res.memory.peak("gpu:0")
        names = [r.name for r in obs.tracer().spans()]
        assert "sim.run" in names
        assert "runtime.build_graph" in names
        assert "runtime.execute" in names

    def test_compiled_engine_records_queue_histograms(self, small_problem):
        prof, cluster = small_problem
        obs.enable()
        self._run(prof, cluster, "compiled")
        h = obs.registry().histogram("sim.completion_batch")
        assert h.count > 0

    def test_instrumented_run_is_bit_identical_to_untraced(self, small_problem):
        """Turning tracing on must not change simulation results."""
        prof, cluster = small_problem
        clean = self._run(prof, cluster, "compiled")
        obs.enable()
        traced = self._run(prof, cluster, "compiled")
        assert traced.iteration_time == clean.iteration_time
        assert list(traced.trace.iter_rows()) == list(clean.trace.iter_rows())


class TestFaultsMetrics:
    def test_ensemble_publishes_timing_and_convergence(self, small_problem):
        from repro.faults import ComputeJitter, run_ensemble

        prof, cluster = small_problem
        d = cluster.devices
        plan = ParallelPlan(
            prof.graph, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
        )
        obs.enable()
        rep = run_ensemble(
            prof, cluster, plan, (ComputeJitter(sigma=0.1),), range(4)
        )
        reg = obs.registry()
        assert reg.counter("faults.seeds_evaluated").value == 4
        assert (
            reg.gauge("faults.ensemble_seconds", plan=plan.notation).value > 0
        )
        assert reg.histogram("faults.seed_slowdown").count == 4
        delta = reg.gauge(
            "faults.quantile_convergence_delta", plan=plan.notation
        ).value
        conv = rep.quantile_convergence(0.95)
        assert delta == pytest.approx(abs(float(conv[-1]) - float(conv[-2])))
        names = [r.name for r in obs.tracer().spans()]
        assert "faults.run_ensemble" in names
        # Default engine is batched: the whole ensemble (clean row + 4
        # seeds) is one multi-scenario pass, no per-seed spans.
        assert "sim.run_batched" in names
        assert names.count("faults.seed") == 0

    def test_per_seed_engine_publishes_seed_spans(self, small_problem):
        from repro.check import per_seed_ensemble
        from repro.faults import ComputeJitter

        prof, cluster = small_problem
        d = cluster.devices
        plan = ParallelPlan(
            prof.graph, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
        )
        obs.enable()
        per_seed_ensemble(
            prof, cluster, plan, (ComputeJitter(sigma=0.1),), range(4),
        )
        names = [r.name for r in obs.tracer().spans()]
        assert names.count("faults.seed") == 5  # clean + 4 seeds
        assert names.count("sim.run") == 5

    def test_quantile_convergence_shape(self, small_problem):
        from repro.faults import ComputeJitter, run_ensemble

        prof, cluster = small_problem
        d = cluster.devices
        plan = ParallelPlan(
            prof.graph, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
        )
        rep = run_ensemble(
            prof, cluster, plan, (ComputeJitter(sigma=0.1),), range(5)
        )
        conv = rep.quantile_convergence(0.95)
        assert len(conv) == 5
        assert conv[-1] == pytest.approx(rep.p95)

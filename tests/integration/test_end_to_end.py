"""Integration tests crossing module boundaries."""

import math

import pytest

from repro import plan_and_run
from repro.cluster import config_a, config_b, config_c
from repro.core import Planner, profile_model
from repro.core.latency import evaluate_plan
from repro.core.serialization import load_plan, save_plan
from repro.models import BENCHMARK_MODELS, PAPER_FIGURES, get_model
from repro.runtime import execute_plan


class TestPlanAndRun:
    def test_bert_on_config_a(self):
        res = plan_and_run("bert48", hardware="A", global_batch_size=64)
        assert res.plan.num_devices == 16
        assert res.execution.throughput > 0
        assert res.execution.max_peak_memory() < 16 * 2**30

    def test_default_gbs_from_paper(self):
        res = plan_and_run("resnet50", hardware="B")
        assert res.plan.global_batch_size == PAPER_FIGURES["resnet50"].global_batch_size

    def test_custom_model_requires_gbs(self):
        from repro.models import uniform_model

        m = uniform_model("u", 4, 1e9, 1000, 1e4, profile_batch=2)
        with pytest.raises(ValueError):
            plan_and_run(m, hardware="B")

    def test_custom_cluster_object(self):
        res = plan_and_run("gnmt16", hardware=config_b(4), global_batch_size=256)
        assert res.cluster.num_devices == 4


class TestPlannerExecutorAgreement:
    @pytest.mark.parametrize("name", ["gnmt16", "bert48", "vgg19"])
    def test_planned_latency_close_to_simulated(self, name):
        """The analytical objective tracks the simulator on planner output
        (the paper: the approximation 'works practically very well')."""
        prof = profile_model(get_model(name))
        clu = config_a(2)
        gbs = PAPER_FIGURES[name].global_batch_size
        result = Planner(prof, clu, gbs).search()
        sim = execute_plan(prof, clu, result.plan, warmup_policy="PB")
        ratio = sim.iteration_time / result.estimate.latency
        assert 0.7 < ratio < 1.6, f"{name}: sim/analytic = {ratio:.2f}"

    @pytest.mark.parametrize("cfg", [config_a(2), config_b(16), config_c(16)])
    def test_every_benchmark_plans_and_runs(self, cfg):
        for name in BENCHMARK_MODELS:
            prof = profile_model(get_model(name))
            gbs = PAPER_FIGURES[name].global_batch_size
            plan = Planner(prof, cfg, gbs).search().plan
            res = execute_plan(prof, cfg, plan, warmup_policy="PB")
            assert math.isfinite(res.iteration_time) and res.iteration_time > 0
            # Simulated peak never exceeds device memory (the planner's
            # feasibility filter is sound wrt the executor's accounting).
            for stage in plan.stages:
                for d in stage.devices:
                    assert res.memory.peak(d.resource_key) <= d.spec.memory_bytes


class TestSerializationThroughPlanner:
    def test_search_save_load_execute(self, tmp_path):
        prof = profile_model(get_model("gnmt16"))
        clu = config_a(2)
        plan = Planner(prof, clu, 1024).search().plan
        path = save_plan(plan, tmp_path / "p.json")
        restored = load_plan(path, get_model("gnmt16"), config_a(2))
        a = execute_plan(prof, clu, plan).iteration_time
        b = execute_plan(prof, clu, restored).iteration_time
        assert a == pytest.approx(b)


class TestScheduleInvariantsOnRealModels:
    def test_dapple_memory_bound_holds_in_simulation(self):
        """Simulated peak equals the memory model's closed-form prediction."""
        from repro.runtime.executor import PipelineExecutor
        from repro.schedules import max_resident_micro_batches

        prof = profile_model(get_model("bert48"))
        clu = config_b(2)
        plan = Planner(prof, clu, 32).search().plan
        if plan.num_stages < 2:
            pytest.skip("planner chose DP here")
        ex = PipelineExecutor(prof, clu, plan)
        res = ex.run()
        for i, stage in enumerate(plan.stages):
            k = max_resident_micro_batches(ex.schedule.stage_tasks(i))
            predicted = ex.stage_mem[i].peak_bytes(k)
            for d in stage.devices:
                assert res.memory.peak(d.resource_key) <= predicted * 1.001

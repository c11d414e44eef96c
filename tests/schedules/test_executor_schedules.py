"""The executor × schedule registry seam: bit-identity with explicit
task streams, spec routing, per-schedule execution semantics."""

import pytest

from repro.check.generators import ExplicitSchedule, generate_cases
from repro.cluster.configs import config_by_name
from repro.core.plan import interleaved_straight_plan
from repro.core.profiler import profile_model
from repro.models.graph import uniform_model
from repro.runtime.executor import PipelineExecutor
from repro.schedules import (
    Dapple1F1BSchedule,
    PipeSchedule,
    schedule_names,
)
from tests.schedules.test_differential import reference_1f1b


@pytest.fixture(scope="module")
def small():
    model = uniform_model(
        name="exec-probe",
        num_layers=8,
        flops_per_layer=2e9,
        params_per_layer=100_000,
        activation_bytes=1e6,
    )
    cluster = config_by_name("B", num_devices=4)
    prof = profile_model(model)
    from repro.core.plan import ParallelPlan, Stage

    devs = cluster.devices
    plan = ParallelPlan(
        model=model,
        stages=[Stage(2 * i, 2 * i + 2, (devs[i],)) for i in range(4)],
        global_batch_size=8,
        num_micro_batches=8,
    )
    return prof, cluster, plan


def _rows(res):
    return sorted(
        (name, round(start, 12), round(end, 12))
        for name, start, end, _res, _tags in res.trace.iter_rows()
    )


class TestBitIdentity:
    def test_spec_equals_legacy_list(self, small):
        """'dapple' spec vs the closed-form task lists wrapped in an
        explicit-stream schedule: same graph, same trace, same makespan."""
        prof, cluster, plan = small
        by_spec = PipelineExecutor(prof, cluster, plan, schedule="dapple").run()
        m = plan.num_micro_batches
        lists = ExplicitSchedule(reference_1f1b(plan.num_stages, m), m)
        by_list = PipelineExecutor(prof, cluster, plan, schedule=lists).run()
        assert by_spec.iteration_time == by_list.iteration_time
        assert _rows(by_spec) == _rows(by_list)

    def test_alias_is_identical(self, small):
        prof, cluster, plan = small
        a = PipelineExecutor(prof, cluster, plan, schedule="dapple").run()
        b = PipelineExecutor(prof, cluster, plan, schedule="1f1b").run()
        assert _rows(a) == _rows(b)

    def test_instance_is_identical(self, small):
        prof, cluster, plan = small
        sched = Dapple1F1BSchedule(plan.num_stages, plan.num_micro_batches)
        a = PipelineExecutor(prof, cluster, plan, schedule="dapple").run()
        b = PipelineExecutor(prof, cluster, plan, schedule=sched).run()
        assert _rows(a) == _rows(b)

    def test_generated_cases_identity(self):
        for case in generate_cases(8, base_seed=42):
            plan = case.plan
            cap = min(
                PipelineExecutor(
                    case.profile, case.cluster, plan, schedule="gpipe",
                    enforce_memory=False,
                ).memory_model.max_in_flight()
            )
            spec = PipelineExecutor(
                case.profile, case.cluster, plan,
                schedule="dapple", warmup_policy=case.warmup_policy,
            ).run()
            m = plan.num_micro_batches
            lists = reference_1f1b(plan.num_stages, m, case.warmup_policy, cap)
            raw = PipelineExecutor(
                case.profile, case.cluster, plan,
                schedule=ExplicitSchedule(lists, m),
            ).run()
            assert spec.iteration_time == raw.iteration_time, case
            assert _rows(spec) == _rows(raw), case


class TestScheduleSemantics:
    def test_zb2bp_no_slower_than_dapple(self, small):
        prof, cluster, plan = small
        da = PipelineExecutor(prof, cluster, plan, schedule="dapple").run()
        zb = PipelineExecutor(prof, cluster, plan, schedule="zb2bp").run()
        assert zb.iteration_time <= da.iteration_time

    def test_zb2bp_trace_has_split_kinds(self, small):
        prof, cluster, plan = small
        res = PipelineExecutor(prof, cluster, plan, schedule="zb2bp").run()
        names = [row[0] for row in res.trace.iter_rows()]
        m = plan.num_micro_batches
        assert sum(n.startswith("BI/") for n in names) == plan.num_stages * m
        assert sum(n.startswith("BW/") for n in names) == plan.num_stages * m
        assert not any(n.startswith("B/") for n in names)

    def test_result_carries_pipe_schedule(self, small):
        prof, cluster, plan = small
        res = PipelineExecutor(prof, cluster, plan, schedule="zb2bp:w=0.4").run()
        assert isinstance(res.schedule, PipeSchedule)
        assert res.schedule.name == "zb2bp"
        assert res.schedule.backward_weight_fraction == 0.4

    def test_interleaved_runs_on_interleaved_plan(self):
        model = uniform_model(
            name="exec-int", num_layers=8, flops_per_layer=2e9,
            params_per_layer=100_000, activation_bytes=1e6,
        )
        cluster = config_by_name("B", num_devices=2)
        prof = profile_model(model)
        plan = interleaved_straight_plan(
            model, cluster.devices, 4, 4, virtual_per_device=2
        )
        res = PipelineExecutor(
            prof, cluster, plan, schedule="interleaved:v=2"
        ).run()
        assert res.iteration_time > 0
        assert res.schedule.num_virtual_stages() == 4

    def test_interleaved_rejects_straight_plan(self, small):
        prof, cluster, plan = small
        with pytest.raises(ValueError, match="round-robin|interleaved"):
            PipelineExecutor(prof, cluster, plan, schedule="interleaved:v=2")


class TestErrorRouting:
    def test_unknown_schedule_lists_registry_names(self, small):
        prof, cluster, plan = small
        with pytest.raises(ValueError) as exc:
            PipelineExecutor(prof, cluster, plan, schedule="zigzag")
        msg = str(exc.value)
        assert "zigzag" in msg
        for name in schedule_names():
            assert name in msg, f"error message should list {name!r}: {msg}"

    def test_bad_param_value_rejected(self, small):
        prof, cluster, plan = small
        with pytest.raises(ValueError):
            PipelineExecutor(prof, cluster, plan, schedule="zb2bp:w=1.5")

    def test_mismatched_instance_rejected(self, small):
        prof, cluster, plan = small
        wrong = Dapple1F1BSchedule(plan.num_stages + 1, plan.num_micro_batches)
        with pytest.raises(ValueError):
            PipelineExecutor(prof, cluster, plan, schedule=wrong)

"""``memory_high_water()`` must predict the simulated memory peak.

The IR declares, per stage, the maximum number of concurrently resident
micro-batch activations.  The executor turns that into bytes via
``StageMemory.peak_bytes`` — and the simulated ``MemoryTimeline`` must
agree, or the OOM gate admits plans that blow device memory (or rejects
ones that fit).  Straight one-device-per-stage plans make the mapping
exact; interleaved plans co-locate virtual stages on a device, so there
the declared waters bound the device peak from both sides.
"""

import pytest

from repro.cluster.configs import config_by_name
from repro.core.plan import ParallelPlan, Stage, interleaved_straight_plan
from repro.core.profiler import profile_model
from repro.models.graph import uniform_model
from repro.runtime.executor import PipelineExecutor
from repro.runtime.memory import MemoryModel


def _straight(num_stages=4, m=8):
    model = uniform_model(
        name="hw-probe",
        num_layers=num_stages * 2,
        flops_per_layer=1e9,
        params_per_layer=50_000,
        activation_bytes=2e6,
    )
    cluster = config_by_name("B", num_devices=num_stages)
    prof = profile_model(model)
    devs = cluster.devices
    plan = ParallelPlan(
        model=model,
        stages=[Stage(2 * i, 2 * i + 2, (devs[i],)) for i in range(num_stages)],
        global_batch_size=m,
        num_micro_batches=m,
    )
    return prof, cluster, plan


SPECS = ["dapple", "dapple:policy=PB", "gpipe", "zb2bp", "zb2bp:w=0.3"]


class TestHighWaterMatchesSimulation:
    @pytest.mark.parametrize("spec", SPECS)
    def test_straight_plan_exact(self, spec):
        prof, cluster, plan = _straight()
        ex = PipelineExecutor(prof, cluster, plan, schedule=spec)
        res = ex.run()
        waters = ex.schedule.memory_high_water()
        mm = MemoryModel(prof, plan)
        for i, stage in enumerate(plan.stages):
            sm = mm.stage_memory(i)
            predicted = sm.peak_bytes(waters[i])
            simulated = res.memory.peak(stage.devices[0].resource_key)
            assert simulated == pytest.approx(predicted, rel=1e-9), (
                f"{spec} stage {i}: declared high water {waters[i]} "
                f"predicts {predicted:.0f}B, simulation peaked at "
                f"{simulated:.0f}B"
            )

    def test_zb2bp_matches_dapple_waters(self):
        # ZB-2BP is the memory-neutral flavour: releasing activations at
        # BW (not BI) keeps the declared waters equal to 1F1B's.
        prof, cluster, plan = _straight()
        da = PipelineExecutor(prof, cluster, plan, schedule="dapple")
        zb = PipelineExecutor(prof, cluster, plan, schedule="zb2bp")
        assert zb.schedule.memory_high_water() == \
            da.schedule.memory_high_water()

    def test_gpipe_water_is_m(self):
        prof, cluster, plan = _straight(m=6)
        ex = PipelineExecutor(prof, cluster, plan, schedule="gpipe")
        assert ex.schedule.memory_high_water() == [6, 6, 6, 6]

    def test_interleaved_device_peak_bounded(self):
        model = uniform_model(
            name="hw-int",
            num_layers=8,
            flops_per_layer=1e9,
            params_per_layer=50_000,
            activation_bytes=2e6,
        )
        cluster = config_by_name("B", num_devices=2)
        prof = profile_model(model)
        plan = interleaved_straight_plan(
            model, cluster.devices, 4, 4, virtual_per_device=2
        )
        ex = PipelineExecutor(prof, cluster, plan, schedule="interleaved:v=2")
        res = ex.run()
        waters = ex.schedule.memory_high_water()
        mm = MemoryModel(prof, plan)
        p = len(cluster.devices)
        for dev in range(p):
            stages = [i for i in range(plan.num_stages) if i % p == dev]
            sms = {i: mm.stage_memory(i) for i in stages}
            # Device peak can't exceed every co-located virtual stage at
            # its own high water simultaneously...
            upper = sum(
                sms[i].peak_bytes(waters[i]) - sms[i].persistent_bytes
                for i in stages
            ) + sum(sms[i].persistent_bytes for i in stages)
            # ...and must at least reach all persistent state plus the
            # largest single virtual stage's activation water.
            lower = sum(sms[i].persistent_bytes for i in stages) + max(
                waters[i] * sms[i].per_microbatch_bytes for i in stages
            )
            key = cluster.devices[dev].resource_key
            simulated = res.memory.peak(key)
            assert lower - 1 <= simulated <= upper + 1, (
                f"device {dev}: simulated peak {simulated:.0f}B outside "
                f"[{lower:.0f}, {upper:.0f}]"
            )

    @pytest.mark.parametrize("spec", ["dapple", "zb2bp"])
    def test_ir_high_water_checked_by_battery(self, spec):
        from repro.check import verify_execution

        prof, cluster, plan = _straight()
        report = verify_execution(prof, cluster, plan, schedule=spec)
        assert "ir-high-water" in report.checks
        assert report.ok, report.render()

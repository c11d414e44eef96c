"""Bubble ratios across the schedule library on the Table-III configs.

One balanced straight pipeline per hardware config, executed under every
registered schedule with the same micro-batch count: GPipe's flush, the
paper's early-backward 1F1B, Megatron-style interleaved 1F1B (v=2 virtual
stages per device), and zero-bubble 2BP.  The bubble ratio is the mean
idle fraction of the pipeline's devices over the iteration — the quantity
the paper's ``(S-1)/(M+S-1)`` analysis (§III-A) approximates for GPipe —
so lower is better and 0 is a perfectly dense pipeline.

The table is the deliverable behind the schedule IR: it shows interleaving
shrinking the fill/drain bubble at the cost of more cross-stage traffic,
and ZB-2BP strictly below 1F1B wherever the cooldown bubble has room for
the deferred grad-weight work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import config_by_name
from repro.core.plan import interleaved_straight_plan
from repro.core.profiler import profile_model
from repro.experiments.reporting import format_table
from repro.models import get_model, paper_gbs
from repro.runtime import execute_plan
from repro.runtime.memory import OutOfMemoryError

#: The schedule matrix, in presentation order.
SCHEDULES = ("gpipe", "dapple", "interleaved:v=2", "zb2bp")


@dataclass(frozen=True)
class BubblePoint:
    """One (config, schedule) cell of the bubble table."""

    config: str
    schedule: str
    num_micro_batches: int
    iteration_time: float | None  # None = OOM
    bubble_ratio: float | None
    peak_memory: float | None

    @property
    def oom(self) -> bool:
        return self.iteration_time is None


def _bubble_ratio(res) -> float:
    """Mean idle fraction of the plan's devices over the iteration."""
    keys = sorted({d.resource_key for s in res.plan.stages for d in s.devices})
    util = [res.trace.utilization(k) for k in keys]
    return 1.0 - sum(util) / len(util)


def point(
    model_name: str,
    config: str,
    schedule: str,
    devices: int = 8,
    gbs: int | None = None,
) -> BubblePoint:
    """Execute one schedule on a balanced ``devices``-stage straight pipeline.

    All schedules run with the same micro-batch count ``M`` (a multiple of
    the device count, as interleaved 1F1B requires) so the bubble ratios
    are directly comparable.
    """
    from repro.baselines import gpipe_plan

    model = get_model(model_name)
    cluster = config_by_name(config, devices)
    prof = profile_model(model)
    if gbs is None:
        gbs = paper_gbs(model_name)
    m = devices * max(1, gbs // (model.profile_batch * devices))
    if schedule.startswith("interleaved"):
        plan = interleaved_straight_plan(
            model, cluster.devices, gbs, m, virtual_per_device=2
        )
    else:
        plan = gpipe_plan(prof, cluster, gbs, num_stages=devices)
        plan = type(plan)(
            model=plan.model, stages=plan.stages,
            global_batch_size=gbs, num_micro_batches=m,
        )
    try:
        res = execute_plan(prof, cluster, plan, schedule=schedule)
    except OutOfMemoryError:
        return BubblePoint(config, schedule, m, None, None, None)
    return BubblePoint(
        config, schedule, m,
        res.iteration_time, _bubble_ratio(res), res.max_peak_memory(),
    )


def run(
    model_name: str = "bert48", devices: int = 8, gbs: int | None = None
) -> list[BubblePoint]:
    """The full grid: every Table-III config under every schedule."""
    return [
        point(model_name, config, schedule, devices=devices, gbs=gbs)
        for config in ("A", "B", "C")
        for schedule in SCHEDULES
    ]


def format_results(points: list[BubblePoint]) -> str:
    base = {
        p.config: p.bubble_ratio
        for p in points
        if p.schedule == "dapple" and not p.oom
    }
    rows = []
    for p in points:
        if p.oom:
            rows.append([p.config, p.schedule, p.num_micro_batches,
                         "OOM", "-", "-", "-"])
            continue
        ref = base.get(p.config)
        delta = (
            f"{p.bubble_ratio - ref:+.3f}" if ref is not None else "-"
        )
        rows.append([
            p.config,
            p.schedule,
            p.num_micro_batches,
            f"{p.iteration_time * 1e3:.1f}ms",
            f"{p.bubble_ratio:.3f}",
            delta,
            f"{p.peak_memory / 2**30:.1f}GiB",
        ])
    return format_table(
        ["config", "schedule", "M", "iteration", "bubble", "vs 1f1b", "peak mem"],
        rows,
        title="Bubble ratios: GPipe vs 1F1B vs interleaved vs ZB-2BP "
        "(straight pipeline, Table III configs)",
    )

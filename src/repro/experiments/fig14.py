"""Fig. 14 reproduction: strong scaling on Config-A, 2 → 16 GPUs, fixed GBS.

Expected shapes (paper §VI-G): DP scales well up to 8 GPUs (one NVLink
machine) then kinks when gradient sync starts crossing the 25 GbE link,
while DAPPLE's hybrid plans keep scaling because only small activations
cross machines.  AmoebaNet's DP arms are absent (model does not fit one
device).  For GNMT-16 the figure also charts the straight pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.configs import NVLINK, ETHERNET_25G
from repro.cluster.machine import Machine
from repro.cluster.topology import Cluster
from repro.core import Planner
from repro.experiments.common import best_simulated_plan, profile
from repro.experiments.reporting import format_table
from repro.perf import sweep
from repro.runtime import execute_plan
from repro.runtime.dataparallel import dp_iteration_time, single_device_time

#: Fig. 14 models and their fixed GBS.
FIG14_MODELS = {"gnmt16": 2048, "bert48": 128, "xlnet36": 128, "amoebanet36": 256}


def config_a_scaled(num_gpus: int) -> Cluster:
    """Config-A-style cluster with ``num_gpus`` total V100s.

    Machines hold up to 8 NVLink-connected GPUs; extra GPUs spill into a
    second machine across 25 GbE — exactly how the paper's strong-scaling
    sweep crosses the machine boundary at 8 GPUs.
    """
    if num_gpus < 1:
        raise ValueError(f"need >=1 GPU, got {num_gpus}")
    sizes = []
    left = num_gpus
    while left > 0:
        take = min(8, left)
        sizes.append(take)
        left -= take
    machines = [
        Machine(machine_id=i, num_gpus=s, intra_bw=NVLINK.bandwidth,
                intra_lat=NVLINK.latency)
        for i, s in enumerate(sizes)
    ]
    return Cluster(machines, inter=ETHERNET_25G, name=f"A-scaled({num_gpus})")


@dataclass(frozen=True)
class Fig14Point:
    model: str
    num_gpus: int
    dp_no_overlap: float
    dp_overlap: float
    best_hybrid: float
    straight: float | None
    hybrid_plan: str


def point(model: str, gbs: int, num_gpus: int) -> Fig14Point:
    """One Fig. 14 grid point — module-level so ``sweep`` can fork it."""
    prof = profile(model)
    t_single = single_device_time(prof, gbs)
    clu = config_a_scaled(num_gpus)
    planner = Planner(prof, clu, gbs)

    def dp_speedup(overlap: bool) -> float:
        if planner.dp_plan() is None:
            return float("nan")
        res = dp_iteration_time(prof, clu, clu.devices, gbs, overlap=overlap)
        return t_single / res.iteration_time

    best, ex = best_simulated_plan(model, clu, gbs)

    straight_speedup = None
    sp = planner.straight_plan()
    if sp is not None and planner.plan_fits_memory(sp):
        straight_speedup = t_single / execute_plan(prof, clu, sp).iteration_time

    return Fig14Point(
        model=model,
        num_gpus=num_gpus,
        dp_no_overlap=dp_speedup(False),
        dp_overlap=dp_speedup(True),
        best_hybrid=t_single / ex.iteration_time,
        straight=straight_speedup,
        hybrid_plan=best.plan.notation,
    )


def run(
    models: dict[str, int] | None = None,
    gpu_counts: tuple[int, ...] = (2, 4, 8, 12, 16),
    jobs: int | None = 1,
) -> list[Fig14Point]:
    grid = [
        (name, gbs, n)
        for name, gbs in (models or FIG14_MODELS).items()
        for n in gpu_counts
    ]
    return sweep(point, grid, jobs=jobs)


def format_results(points: list[Fig14Point]) -> str:
    def fmt(x):
        if x is None:
            return "-"
        return "OOM" if math.isnan(x) else f"{x:.1f}"

    return format_table(
        ["Model", "#GPUs", "DP no-ovl", "DP ovl", "Best hybrid", "Straight", "plan"],
        [
            [p.model, p.num_gpus, fmt(p.dp_no_overlap), fmt(p.dp_overlap),
             fmt(p.best_hybrid), fmt(p.straight), p.hybrid_plan]
            for p in points
        ],
        title="Fig. 14: strong scaling on Config-A (fixed GBS)",
    )

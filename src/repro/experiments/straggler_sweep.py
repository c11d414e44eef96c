"""Straggler-sensitivity sweep: DAPPLE vs GPipe vs DP under perturbation.

An experiment beyond the paper: how do the three system archetypes degrade
when one device persistently slows down (plus light compute jitter)?  For
each (model, config, straggler-factor) grid point the clean and p95-perturbed
makespans of

* **DAPPLE** — the planner's best hybrid plan, early-backward schedule;
* **GPipe**  — the balanced straight partition, synchronous flush schedule;
* **DP**    — pure data parallelism (one replicated stage),

are measured over a seeded Monte-Carlo ensemble
(:func:`repro.faults.analysis.run_ensemble`).  A second table re-scores the
planner's top-K plans by p95 makespan (:func:`repro.faults.robust.robust_plan`)
and flags the regimes where the *robust* selection differs from the
clean-optimal plan — the planner's on-paper winner is not always the plan
you want on noisy hardware.

Grid points are independent and fan out via :func:`repro.perf.sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines import gpipe_plan
from repro.core.planner import Planner
from repro.experiments.common import best_plan, cluster, profile
from repro.experiments.reporting import format_table
from repro.faults.analysis import run_ensemble
from repro.faults.models import ComputeJitter, SlowDevice
from repro.faults.robust import robust_plan
from repro.models import PAPER_FIGURES
from repro.perf import sweep
from repro.runtime.memory import OutOfMemoryError

#: Default sweep grid: two pipeline-friendly models, all three hardware
#: configs, straggler slowdown factors from mild to severe.
SWEEP_MODELS = ("bert48", "gnmt16")
SWEEP_CONFIGS = ("A", "B", "C")
SWEEP_FACTORS = (1.25, 2.0)

#: Light multiplicative compute noise layered under every straggler factor.
JITTER_SIGMA = 0.05

#: Robust selection: candidates re-scored and the makespan quantile used.
ROBUST_TOP_K = 4
ROBUST_QUANTILE = 0.95


@dataclass(frozen=True)
class SystemRobustness:
    """Clean vs perturbed makespan of one system at one grid point."""

    system: str
    plan: str
    clean_ms: float
    p95_ms: float

    @property
    def slowdown(self) -> float:
        return self.p95_ms / self.clean_ms if self.clean_ms > 0 else math.nan


@dataclass(frozen=True)
class StragglerPoint:
    """One grid point: per-system robustness plus the robust plan choice."""

    model: str
    config: str
    factor: float
    systems: tuple
    robust_plan: str
    clean_optimal_plan: str
    selection_changed: bool


def _fault_models(factor: float):
    return (SlowDevice(factor=factor), ComputeJitter(sigma=JITTER_SIGMA))


def point(
    model: str,
    config: str,
    factor: float,
    num_seeds: int = 8,
    base_seed: int = 0,
) -> StragglerPoint:
    """One grid point — module-level so ``sweep`` can fork it."""
    prof = profile(model)
    clu = cluster(config)
    gbs = PAPER_FIGURES[model].global_batch_size
    models = _fault_models(factor)
    seeds = range(base_seed, base_seed + num_seeds)

    systems: list[SystemRobustness] = []

    def measure(system: str, plan, schedule: str) -> None:
        try:
            rep = run_ensemble(
                prof, clu, plan, models, seeds, schedule=schedule
            )
        except OutOfMemoryError:
            systems.append(SystemRobustness(system, plan.notation, math.nan, math.nan))
            return
        systems.append(
            SystemRobustness(
                system,
                plan.notation,
                clean_ms=rep.clean_makespan * 1e3,
                p95_ms=rep.p95 * 1e3,
            )
        )

    measure("DAPPLE", best_plan(model, config, gbs).plan, "dapple")
    try:
        measure("GPipe", gpipe_plan(prof, clu, gbs), "gpipe")
    except ValueError:
        pass
    dp = Planner(prof, clu, gbs).dp_plan()
    if dp is not None:
        measure("DP", dp, "dapple")
    else:
        systems.append(SystemRobustness("DP", "DP", math.nan, math.nan))

    rob = robust_plan(
        prof, clu, gbs, models, seeds, q=ROBUST_QUANTILE, top_k=ROBUST_TOP_K
    )
    return StragglerPoint(
        model=model,
        config=config,
        factor=factor,
        systems=tuple(systems),
        robust_plan=rob.robust.notation,
        clean_optimal_plan=rob.clean_optimal.notation,
        selection_changed=rob.selection_changed,
    )


def run(
    models: tuple = SWEEP_MODELS,
    configs: tuple = SWEEP_CONFIGS,
    factors: tuple = SWEEP_FACTORS,
    num_seeds: int = 8,
    seed: int = 0,
    jobs: int | None = 1,
) -> list[StragglerPoint]:
    grid = [
        (name, cfg, factor, num_seeds, seed)
        for name in models
        for cfg in configs
        for factor in factors
    ]
    return sweep(point, grid, jobs=jobs)


def format_results(points: list[StragglerPoint]) -> str:
    def fmt(x: float) -> str:
        return "OOM" if math.isnan(x) else f"{x:.1f}"

    sys_rows = []
    for p in points:
        for s in p.systems:
            sys_rows.append([
                p.model, p.config, f"{p.factor:.2f}", s.system, s.plan,
                fmt(s.clean_ms), fmt(s.p95_ms),
                "-" if math.isnan(s.clean_ms) else f"{s.slowdown:.2f}x",
            ])
    table1 = format_table(
        ["Model", "cfg", "straggler", "system", "plan", "clean ms", "p95 ms",
         "p95/clean"],
        sys_rows,
        title="Straggler sweep: clean vs p95-perturbed iteration time "
        f"(1 slow device + {JITTER_SIGMA:.0%} jitter)",
    )

    rob_rows = [
        [
            p.model, p.config, f"{p.factor:.2f}",
            p.clean_optimal_plan, p.robust_plan,
            "*" if p.selection_changed else "",
        ]
        for p in points
    ]
    table2 = format_table(
        ["Model", "cfg", "straggler", "clean-optimal", "robust (p95)", "shift"],
        rob_rows,
        title=f"Robust plan selection over planner top-{ROBUST_TOP_K} "
        f"(q={ROBUST_QUANTILE}); '*' = robustness changes the chosen plan",
    )
    shifts = sum(p.selection_changed for p in points)
    return (
        table1 + "\n\n" + table2
        + f"\nselection shifted in {shifts}/{len(points)} regimes"
    )

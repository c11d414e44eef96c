"""Robust planning: pick plans by quantile makespan under perturbation.

The planner's objective is the *clean* analytical latency — the fastest plan
on paper.  Under compute jitter, stragglers, or degraded links, that ranking
can flip: a deeper pipeline with small stages on few replicas is more exposed
to a single slow device than a replication-heavy plan whose work is averaged
across devices.  :func:`robust_plan` quantifies this by re-scoring the
planner's top-K plans (``PlannerConfig.keep_top_k``) under a Monte-Carlo
perturbation ensemble and selecting by a makespan *quantile* (default p95)
instead of the clean score — the classic risk-averse objective.

The result reports every candidate's clean and quantile makespans, so
callers can see both the robust choice and whether it differs from the
clean-optimal plan (the interesting regime).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.planner import Planner, PlannerConfig
from repro.faults.analysis import EnsembleReport, run_ensembles

__all__ = ["CandidateRobustness", "RobustPlanResult", "robust_plan"]


@dataclass(frozen=True)
class CandidateRobustness:
    """One candidate plan's clean and perturbed scores."""

    plan: "ParallelPlan"
    #: Clean simulated makespan (no perturbation).
    clean: float
    #: Ensemble quantile makespan (the robust objective).
    quantile: float
    report: EnsembleReport

    @property
    def notation(self) -> str:
        return f"{self.plan.notation}|{self.plan.split_notation}"


@dataclass(frozen=True)
class RobustPlanResult:
    """Outcome of a robust plan selection."""

    #: Quantile used as the robust objective (e.g. 0.95).
    q: float
    #: Candidates ascending by quantile makespan (first = robust choice).
    candidates: tuple

    @property
    def robust(self) -> CandidateRobustness:
        """The quantile-optimal candidate."""
        return self.candidates[0]

    @property
    def clean_optimal(self) -> CandidateRobustness:
        """The candidate with the best clean simulated makespan."""
        return min(self.candidates, key=lambda c: c.clean)

    @property
    def selection_changed(self) -> bool:
        """True when robustness flips the winner away from clean-optimal."""
        return self.robust.notation != self.clean_optimal.notation


def robust_plan(
    profile,
    cluster,
    global_batch_size: int,
    models,
    seeds: Sequence[int],
    q: float = 0.95,
    top_k: int = 5,
    config: PlannerConfig | None = None,
    schedule="dapple",
    warmup_policy: str = "PA",
    recompute=False,
) -> RobustPlanResult:
    """Search top-K plans, re-score each under the ensemble, pick by ``q``.

    The whole S seeds × K plans re-scoring grid is one
    :func:`~repro.faults.analysis.run_ensembles` call — each candidate costs
    a single multi-scenario pass rather than S + 1 independent simulations.
    Ties on the quantile break toward the better clean makespan, then
    planner order, so the selection is deterministic.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    cfg = replace(config or PlannerConfig(), keep_top_k=top_k)
    result = Planner(profile, cluster, global_batch_size, cfg).search()
    plans = [plan for _, plan in result.top_plans]
    if not any(
        p.notation == result.plan.notation
        and p.split_notation == result.plan.split_notation
        for p in plans
    ):
        plans.insert(0, result.plan)

    reports = run_ensembles(
        profile,
        cluster,
        plans,
        models,
        seeds,
        schedule=schedule,
        warmup_policy=warmup_policy,
        recompute=recompute,
    )
    scored = [
        CandidateRobustness(
            plan=plan,
            clean=report.clean_makespan,
            quantile=report.quantile(q),
            report=report,
        )
        for plan, report in zip(plans, reports)
    ]
    order = sorted(
        range(len(scored)), key=lambda i: (scored[i].quantile, scored[i].clean, i)
    )
    return RobustPlanResult(q=q, candidates=tuple(scored[i] for i in order))

"""Shared plumbing for experiment modules: cached profiles and speedup arms."""

from __future__ import annotations

from functools import lru_cache

from repro.cluster import Cluster, config_by_name
from repro.core import Planner, PlannerConfig, profile_model
from repro.core.plancache import default_cache
from repro.core.planner import PlanResult, plan_best, plan_paper_family
from repro.core.profiler import ModelProfile
from repro.models import PAPER_FIGURES, get_model
from repro.runtime import execute_plan
from repro.runtime.dataparallel import dp_iteration_time, single_device_time


@lru_cache(maxsize=None)
def profile(model_name: str) -> ModelProfile:
    return profile_model(get_model(model_name))


@lru_cache(maxsize=None)
def cluster(config_letter: str, num_devices: int = 16) -> Cluster:
    return config_by_name(config_letter, num_devices)


@lru_cache(maxsize=None)
def best_plan(model_name: str, config_letter: str, gbs: int | None = None,
              num_devices: int = 16) -> PlanResult:
    """Unrestricted planner search (lru-cached per argument tuple, plus the
    process-wide content-addressed plan cache for cross-experiment reuse —
    fork-based sweep workers inherit both tiers warm)."""
    gbs = gbs or PAPER_FIGURES[model_name].global_batch_size
    return plan_best(
        profile(model_name),
        cluster(config_letter, num_devices),
        gbs,
        cache=default_cache(),
    )


@lru_cache(maxsize=None)
def paper_family_plan(model_name: str, config_letter: str, gbs: int | None = None,
                      num_devices: int = 16) -> PlanResult:
    """Search restricted to the paper's plan families (DP / P:Q / straight)."""
    gbs = gbs or PAPER_FIGURES[model_name].global_batch_size
    return plan_paper_family(
        profile(model_name), cluster(config_letter, num_devices), gbs
    )


_SIM_CACHE: dict = {}


def best_simulated_plan(model_name: str, clu: Cluster, gbs: int):
    """Plan candidates from the planner, winner picked by the *simulator*.

    The analytical objective occasionally mis-ranks plans whose boundaries
    share NICs; like the real system (plan offline, measure online), we
    simulate the unrestricted winner and the paper-family winner and keep
    the faster one.  Returns ``(PlanResult, ExecutionResult)``.
    """
    key = (model_name, clu.name, clu.num_devices, gbs)
    if key in _SIM_CACHE:
        return _SIM_CACHE[key]
    prof = profile(model_name)
    planner = Planner(prof, clu, gbs)
    candidates = [plan_best(prof, clu, gbs, cache=default_cache())]
    fam = plan_paper_family(prof, clu, gbs)
    if fam.plan.notation != candidates[0].plan.notation:
        candidates.append(fam)
    try:
        two_stage = plan_best(
            prof, clu, gbs, PlannerConfig(min_stages=2, max_stages=2),
            cache=default_cache(),
        )
        if all(two_stage.plan.notation != c.plan.notation for c in candidates):
            candidates.append(two_stage)
    except RuntimeError:
        pass
    straight = planner.straight_plan()
    if straight is not None and planner.plan_fits_memory(straight):
        est = __import__("repro.core.latency", fromlist=["evaluate_plan"]).evaluate_plan(
            prof, clu, straight
        )
        candidates.append(
            PlanResult(plan=straight, estimate=est, states_explored=0,
                       plans_evaluated=0, infeasible_plans=0)
        )
    best = None
    seen: set[str] = set()
    for cand in candidates:
        sig = f"{cand.plan.notation}|{cand.plan.split_notation}"
        if sig in seen:
            continue
        seen.add(sig)
        ex = execute_plan(prof, clu, cand.plan, warmup_policy="PB")
        if best is None or ex.iteration_time < best[1].iteration_time:
            best = (cand, ex)
    _SIM_CACHE[key] = best
    return best


def speedup_arms(model_name: str, clu: Cluster, gbs: int) -> dict[str, float]:
    """The three arms of Fig. 12/14: DP-no-overlap, DP-overlap, best hybrid.

    Speedup follows the paper's §VI-C definition: single-device sequential
    time over parallel time at the same global batch size.  Hybrid plans
    are measured on the discrete-event simulator; DP arms use the
    analytical DP model (with/without backward-AllReduce overlap).
    """
    prof = profile(model_name)
    t_single = single_device_time(prof, gbs)

    arms: dict[str, float] = {}
    for name, overlap in (("dp_no_overlap", False), ("dp_overlap", True)):
        try:
            res = dp_iteration_time(prof, clu, clu.devices, gbs, overlap=overlap)
            # DP is infeasible when one device cannot hold the whole model.
            from repro.core.planner import Planner as _P

            if _P(prof, clu, gbs).dp_plan() is None:
                arms[name] = float("nan")
            else:
                arms[name] = t_single / res.iteration_time
        except ValueError:
            arms[name] = float("nan")

    plan_result, execution = best_simulated_plan(model_name, clu, gbs)
    arms["best_hybrid"] = t_single / execution.iteration_time
    arms["_hybrid_notation"] = plan_result.plan.notation  # type: ignore[assignment]
    return arms

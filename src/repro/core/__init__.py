"""DAPPLE core: profiler, latency model, placement, planner."""

from repro.core.profiler import LayerProfile, ModelProfile, profile_model
from repro.core.plan import Stage, ParallelPlan, PlanKind
from repro.core.latency import PipelineCostModel, StageCosts, evaluate_plan
from repro.core.placement import (
    PlacementPolicy,
    allocate,
    fresh_first,
    append_first,
    scatter_first,
    POLICIES,
)
from repro.core.fast_scan import CompletionScanner
from repro.core.planner import Planner, PlannerConfig, plan_best

__all__ = [
    "LayerProfile",
    "ModelProfile",
    "profile_model",
    "Stage",
    "ParallelPlan",
    "PlanKind",
    "PipelineCostModel",
    "StageCosts",
    "evaluate_plan",
    "PlacementPolicy",
    "allocate",
    "fresh_first",
    "append_first",
    "scatter_first",
    "POLICIES",
    "Planner",
    "PlannerConfig",
    "plan_best",
    "CompletionScanner",
]

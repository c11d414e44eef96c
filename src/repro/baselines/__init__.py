"""Comparison baselines: PipeDream's planner and GPipe's partitioner."""

from repro.baselines.gpipe_partition import balanced_partition, gpipe_plan
from repro.baselines.pipedream import (
    PipeDreamResult,
    pipedream_plan,
    pipedream_plan_hierarchical,
)

__all__ = [
    "balanced_partition",
    "gpipe_plan",
    "PipeDreamResult",
    "pipedream_plan",
    "pipedream_plan_hierarchical",
]

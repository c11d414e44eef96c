"""DAPPLE reproduction: pipelined data-parallel training for large models.

A faithful, fully-simulated reproduction of *DAPPLE: A Pipelined Data
Parallel Approach for Training Large Models* (Fan et al., PPoPP 2021):

* :mod:`repro.core` — the paper's contribution: profiler, pipeline-latency
  model (eq. 1–3), topology-aware placement, and the DP planner;
* :mod:`repro.schedules` — the schedule IR: GPipe, the early-backward
  micro-batch schedule, and their extensions;
* :mod:`repro.cluster` — the hardware substrate (Table III configs,
  interconnects, collectives);
* :mod:`repro.sim` / :mod:`repro.runtime` — a deterministic discrete-event
  executor standing in for the paper's TF runtime;
* :mod:`repro.models` — the six benchmark models calibrated to Tables I–II;
* :mod:`repro.baselines` — PipeDream's planner and GPipe's partitioner;
* :mod:`repro.training` — numpy autograd + pipelined trainer proving the
  gradient-equivalence claim;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import plan_and_run
    result = plan_and_run("bert48", hardware="A", global_batch_size=64)
    print(result.plan.notation, result.execution.throughput)
"""

from dataclasses import dataclass

from repro.cluster import Cluster, config_by_name
from repro.core import (
    ParallelPlan,
    Planner,
    PlannerConfig,
    profile_model,
)
from repro.core.planner import PlanResult, plan_best, plan_paper_family
from repro.models import LayerGraph, get_model
from repro.runtime import ExecutionResult, execute_plan

__version__ = "1.0.0"


@dataclass
class PlanAndRunResult:
    """Bundled output of :func:`plan_and_run`."""

    model: LayerGraph
    cluster: Cluster
    plan: ParallelPlan
    planning: PlanResult
    execution: ExecutionResult


def plan_and_run(
    model: str | LayerGraph,
    hardware: str | Cluster = "A",
    global_batch_size: int | None = None,
    num_devices: int = 16,
    planner_config: PlannerConfig | None = None,
    schedule: str = "dapple",
    warmup_policy: str = "PA",
    recompute: bool = False,
) -> PlanAndRunResult:
    """Plan and simulate one training iteration end to end.

    Parameters
    ----------
    model:
        A registry name (``"bert48"``, ``"vgg19"``, …) or a custom
        :class:`~repro.models.LayerGraph`.
    hardware:
        Table III config letter (``"A"``/``"B"``/``"C"``) or a custom
        :class:`~repro.cluster.Cluster`.
    global_batch_size:
        Defaults to the paper's per-model GBS (Table V).
    """
    graph = get_model(model) if isinstance(model, str) else model
    cluster = (
        config_by_name(hardware, num_devices) if isinstance(hardware, str) else hardware
    )
    if global_batch_size is None:
        from repro.models import PAPER_FIGURES

        key = model if isinstance(model, str) else None
        if key is None or key not in PAPER_FIGURES:
            raise ValueError("global_batch_size required for custom models")
        global_batch_size = PAPER_FIGURES[key].global_batch_size

    profile = profile_model(graph)
    planning = Planner(profile, cluster, global_batch_size, planner_config).search()
    execution = execute_plan(
        profile,
        cluster,
        planning.plan,
        schedule=schedule,
        warmup_policy=warmup_policy,
        recompute=recompute,
    )
    return PlanAndRunResult(
        model=graph,
        cluster=cluster,
        plan=planning.plan,
        planning=planning,
        execution=execution,
    )


__all__ = [
    "plan_and_run",
    "PlanAndRunResult",
    "Planner",
    "PlannerConfig",
    "plan_best",
    "plan_paper_family",
    "profile_model",
    "execute_plan",
    "get_model",
    "config_by_name",
    "__version__",
]

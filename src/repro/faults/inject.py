"""Fault injection: compose perturbation models into simulated executions.

The clean path is untouched by design: :func:`perturb_graph` with no models
returns the input graph object itself, and :func:`execute_plan_faulted`
delegates to the exact unperturbed executor pipeline in that case — so every
existing experiment and trace stays byte-identical when injection is off.

With models, a fresh :class:`~repro.sim.engine.TaskGraph` is rebuilt with the
perturbed duration column (same ops, dependencies, resources, priorities,
tags, and memory effects, in the same submission order), then simulated
normally.  Because perturbation is a graph-to-graph transform keyed by one
explicit seed, both simulator engines replay the same perturbed graph and
produce bit-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.faults.models import PerturbationModel, require_slots
from repro.sim.engine import Simulator, TaskGraph

__all__ = ["perturb_graph", "rebuild_with_durations", "execute_plan_faulted", "FaultedExecution"]


def rebuild_with_durations(graph: TaskGraph, durations: Sequence[float]) -> TaskGraph:
    """Clone ``graph`` with a replaced duration column.

    Ops are re-added in submission order and each op's successor list is
    re-added in its original order, so the clone dispatches identically to
    the original under both engines (the simulators' tie-breaks depend only
    on submission order and per-op successor order).
    """
    if len(durations) != len(graph):
        raise ValueError(
            f"duration column has {len(durations)} entries for "
            f"{len(graph)} ops"
        )
    g = TaskGraph()
    names = []
    for op, dur in zip(graph.ops(), durations):
        if dur < 0:
            raise ValueError(
                f"perturbed duration for op {op.name!r} is negative ({dur})"
            )
        g.add(replace(op, duration=dur))
        names.append(op.name)
    for i, succs in enumerate(graph.succ_ids):
        for j in succs:
            g.add_dep(names[i], names[j])
    return g


def perturb_graph(
    graph: TaskGraph,
    models: Sequence[PerturbationModel],
    seed: int,
) -> TaskGraph:
    """Apply ``models`` in order to ``graph``'s durations, keyed by ``seed``.

    Each model receives its own child generator spawned from one
    :class:`numpy.random.SeedSequence`, so adding a model to the end of the
    list does not shift the draws of the models before it, and the whole
    transform is reproducible from ``(graph, models, seed)`` alone.

    With an empty model list the input graph is returned *unchanged and
    un-copied* — the clean path stays bit-identical.
    """
    models = list(models)
    if not models:
        return graph
    # The scalar models address ops by their own device keys.
    require_slots(graph, None)
    ops = graph.ops()
    durations = list(graph.duration_list)
    children = np.random.SeedSequence(seed).spawn(len(models))
    for model, child in zip(models, children):
        durations = model.perturb(ops, durations, np.random.default_rng(child))
        if len(durations) != len(ops):
            raise ValueError(
                f"{type(model).__name__}.perturb returned {len(durations)} "
                f"durations for {len(ops)} ops"
            )
    return rebuild_with_durations(graph, durations)


@dataclass
class FaultedExecution:
    """One perturbed simulated iteration plus its provenance."""

    seed: int
    result: "ExecutionResult"
    #: The graph actually simulated (perturbed unless no models were given);
    #: robustness analysis walks it for critical-path extraction.
    graph: TaskGraph

    @property
    def makespan(self) -> float:
        return self.result.iteration_time


def execute_plan_faulted(
    profile,
    cluster,
    plan,
    models: Sequence[PerturbationModel] = (),
    seed: int = 0,
    schedule="dapple",
    warmup_policy: str = "PA",
    recompute=False,
    enforce_memory: bool = True,
    device_slowdown: dict | None = None,
    sim_engine: str = "compiled",
) -> FaultedExecution:
    """Build one iteration's task graph, perturb it, and simulate.

    Mirrors :func:`repro.runtime.execute_plan` exactly, with
    :func:`perturb_graph` interposed between graph construction and
    simulation.  The graph is the per-replica one (models draw per op);
    ``models=()`` runs it untouched.
    """
    from repro.runtime.executor import ExecutionResult, PipelineExecutor

    executor = PipelineExecutor(
        profile,
        cluster,
        plan,
        schedule=schedule,
        warmup_policy=warmup_policy,
        recompute=recompute,
        enforce_memory=enforce_memory,
        device_slowdown=device_slowdown,
        sim_engine=sim_engine,
    )
    graph = perturb_graph(executor.build_graph(slots=None), models, seed)
    res = Simulator(graph, engine=sim_engine).run()
    result = ExecutionResult(
        plan=plan,
        iteration_time=res.makespan,
        trace=res.trace,
        memory=res.memory,
        schedule=executor.schedule,
        recompute=executor.recompute,
    )
    return FaultedExecution(seed=seed, result=result, graph=graph)

"""Reference oracles for the simulator and the fault-ensemble layer.

Each function here is a deliberately naive second implementation of a
production path, kept only to prove bit-identity with it:

* :func:`run_reference` — the drain-everything event loop that
  ``Simulator(graph, engine="reference")`` runs.  The production loop
  (:class:`repro.sim.batched._BatchRunner`, behind ``engine="compiled"``)
  reproduces its makespans, traces, and memory timelines exactly;
* :func:`per_seed_ensemble` — one independent :func:`evaluate_seed`
  simulation per seed, the oracle for the single batched pass of
  :func:`repro.faults.analysis.run_ensemble`;
* :func:`event_critical_path` and :func:`event_bubble_fractions` — the
  oracles for the columnar :func:`repro.faults.analysis.critical_path` and
  :func:`repro.faults.analysis.stage_bubble_fractions`, which derive
  resource order and busy sums from ``trace.events`` alone.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

import repro.obs as obs
from repro.sim.engine import SimulationResult
from repro.sim.trace import MemoryTimeline, Trace, TraceEvent, PHASE_END, PHASE_START

__all__ = [
    "ResourcePool", "run_reference", "event_critical_path",
    "event_bubble_fractions", "evaluate_seed", "per_seed_ensemble",
]


@dataclass
class ResourcePool:
    """Tracks which resources are currently occupied and by which op.

    Resources are registered lazily the first time they are referenced.
    ``owner`` maps a busy resource key to the integer id of the op holding
    it.
    """

    owner: dict = field(default_factory=dict)

    def try_acquire(self, keys: Iterable[Hashable], op_id: int) -> bool:
        """Claim ``keys`` for ``op_id`` iff all are free, in one pass.

        Returns True on success.  On failure the pool is left unchanged
        (keys claimed before the busy one are rolled back).
        """
        owner = self.owner
        claimed = []
        for k in keys:
            if k in owner:
                for c in claimed:
                    del owner[c]
                return False
            owner[k] = op_id
            claimed.append(k)
        return True

    def release(self, keys: Iterable[Hashable], op_id: int) -> None:
        """Free ``keys`` previously acquired by ``op_id``."""
        for k in keys:
            got = self.owner.pop(k, None)
            if got != op_id:
                raise RuntimeError(
                    f"resource {k!r} released by op {op_id} but owned by {got}"
                )


def run_reference(graph) -> SimulationResult:
    """Simulate ``graph`` with the reference list-scheduling loop.

    At every completion instant the loop drains the whole ready heap in
    (priority, submission-seq) order and starts each op whose resources are
    all free — O(ready set) per event, which is what the production loop's
    per-resource waiter heaps avoid.  It reads each op's own fields and the
    graph's dependency columns, not the interned resource, memory or
    duration columns the production loop runs on.  A folded op traces one
    event per replica, and a delta on a class key is recorded on each of
    the class's devices (``graph.members``).
    """
    members = graph.members
    pool = ResourcePool()
    trace = Trace()
    memory = MemoryTimeline()

    ops = graph.ops()
    succ_ids = graph.succ_ids
    pred_left = list(graph.indegree)
    seq = itertools.count()

    # Ready heap: (priority, submission-sequence, op id).
    ready: list[tuple[float, int, int]] = []
    for i, op in enumerate(ops):
        if pred_left[i] == 0:
            heapq.heappush(ready, (op.priority, next(seq), i))

    # Completion heap: (end-time, sequence, op id).
    running: list[tuple[float, int, int]] = []
    now = 0.0
    completed = 0

    def try_dispatch() -> None:
        """Start every ready op whose resources are free, priority order."""
        skipped: list[tuple[float, int, int]] = []
        while ready:
            prio, sq, i = heapq.heappop(ready)
            op = ops[i]
            if pool.try_acquire(op.resources, i):
                for eff in op.mem_effects:
                    if not eff.at_end:
                        for key in members.get(eff.device, (eff.device,)):
                            memory.record(key, now, eff.delta, PHASE_START)
                heapq.heappush(running, (now + op.duration, sq, i))
            else:
                skipped.append((prio, sq, i))
        for item in skipped:
            heapq.heappush(ready, item)

    def _complete(i: int, end: float) -> bool:
        """Retire one finished op: release resources, settle memory,
        trace it, and wake successors.  Returns True when the dispatch
        state may have changed (resources freed or new ops ready) —
        False means a rescan of the ready heap would be a no-op.
        """
        nonlocal completed
        op = ops[i]
        pool.release(op.resources, i)
        for eff in op.mem_effects:
            if eff.at_end:
                for key in members.get(eff.device, (eff.device,)):
                    memory.record(key, end, eff.delta, PHASE_END)
        rows = op.replicas.rows(op) if op.replicas else [(op.name, op.resources)]
        for name, resources in rows:
            trace.add(
                TraceEvent(
                    name=name,
                    start=end - op.duration,
                    end=end,
                    resources=resources,
                    tags=op.tags,
                )
            )
        completed += 1
        woke = False
        for j in succ_ids[i]:
            pred_left[j] -= 1
            if pred_left[j] == 0:
                heapq.heappush(ready, (ops[j].priority, next(seq), j))
                woke = True
        return woke or bool(op.resources)

    try_dispatch()
    total = len(graph)
    while running:
        end, _, i = heapq.heappop(running)
        now = end
        changed = _complete(i, now)
        # Also drain any other ops finishing at the same instant before
        # dispatching, so resources freed simultaneously are all visible.
        while running and running[0][0] == now:
            _, _, i2 = heapq.heappop(running)
            changed = _complete(i2, now) or changed
        if changed:
            try_dispatch()

    if completed != total:
        graph.validate_acyclic()  # a cycle raises the canonical ValueError
        stuck = [ops[i].name for i, c in enumerate(pred_left) if c > 0]
        raise RuntimeError(
            f"simulation deadlocked: {total - completed} ops never ran "
            f"(first few blocked: {stuck[:5]})"
        )
    return SimulationResult(makespan=trace.makespan(), trace=trace, memory=memory)


def event_critical_path(graph, trace) -> list:
    """:func:`repro.faults.analysis.critical_path` as an event-name walk.

    Walks backward from the last-finishing event.  At each step the binding
    constraint is the dependency predecessor or previous resource holder
    that ends latest (strict ``>``, dependency predecessors first), exactly
    the tie-breaks of the production walk.
    """
    events = list(trace.events)
    if not events:
        return []
    names = [op.name for op in graph.ops()]
    preds: dict[str, list[str]] = {}
    for i, succs in enumerate(graph.succ_ids):
        for j in succs:
            preds.setdefault(names[j], []).append(names[i])
    ev_by_name = {e.name: e for e in events}
    # Called unbound, so a columnar trace's own index is bypassed.
    by_resource = Trace._build_res_idx(trace)
    res_pos: dict = {}

    cur = events[0]
    for e in events:
        if e.end >= cur.end:
            cur = e
    path = [cur]
    while cur.start > 0:
        best = None
        for p in preds.get(cur.name, ()):
            pe = ev_by_name[p]
            if best is None or pe.end > best.end:
                best = pe
        for r in cur.resources:
            pos = res_pos.get(r)
            if pos is None:
                lst = by_resource[r]
                pos = res_pos[r] = ({e.name: k for k, e in enumerate(lst)}, lst)
            idx_of, lst = pos
            k = idx_of[cur.name]
            if k > 0:
                prev = lst[k - 1]
                if best is None or prev.end > best.end:
                    best = prev
        if best is None:
            break
        path.append(best)
        cur = best
    path.reverse()
    return path


def event_bubble_fractions(result) -> dict[int, float]:
    """:func:`repro.faults.analysis.stage_bubble_fractions` from busy sums
    over ``result.trace.events``."""
    makespan = result.iteration_time
    out: dict[int, float] = {}
    if makespan <= 0:
        return {i: 0.0 for i in range(result.plan.num_stages)}
    by_resource = Trace._build_res_idx(result.trace)
    for i, stage in enumerate(result.plan.stages):
        busy = [
            sum(e.duration for e in by_resource.get(d.resource_key, ()))
            for d in stage.devices
        ]
        out[i] = 1.0 - (sum(busy) / len(busy)) / makespan
    return out


def evaluate_seed(
    profile,
    cluster,
    plan,
    models,
    seed: int,
    schedule="dapple",
    warmup_policy: str = "PA",
    recompute=False,
    enforce_memory: bool = True,
    sim_engine: str = "compiled",
):
    """Simulate ``plan`` under ``models`` at ``seed`` and summarize it as a
    :class:`~repro.faults.analysis.SeedOutcome`, analyzing the trace event
    by event."""
    from repro.faults.analysis import SeedOutcome, critical_path_stages
    from repro.faults.inject import execute_plan_faulted

    models = tuple(models)
    with obs.span("faults.seed", seed=seed, models=len(models)) as sp:
        run = execute_plan_faulted(
            profile,
            cluster,
            plan,
            models=models,
            seed=seed,
            schedule=schedule,
            warmup_policy=warmup_policy,
            recompute=recompute,
            enforce_memory=enforce_memory,
            sim_engine=sim_engine,
        )
        sp.set(makespan=run.result.iteration_time)
    bubbles = event_bubble_fractions(run.result)
    sig = critical_path_stages(event_critical_path(run.graph, run.result.trace))
    return SeedOutcome(
        seed=seed,
        makespan=run.result.iteration_time,
        stage_bubbles=tuple(bubbles[i] for i in range(plan.num_stages)),
        critical_stages=sig,
    )


def per_seed_ensemble(
    profile,
    cluster,
    plan,
    models,
    seeds: Sequence[int],
    schedule="dapple",
    warmup_policy: str = "PA",
    recompute=False,
    enforce_memory: bool = True,
    sim_engine: str = "compiled",
):
    """:func:`~repro.faults.analysis.run_ensemble` as one simulation per seed.

    Rebuilds, perturbs, and simulates the plan's graph independently for the
    clean run and for every seed (:func:`evaluate_seed`), on ``sim_engine``,
    and returns the same :class:`~repro.faults.analysis.EnsembleReport` —
    the batched single pass must match it under
    :meth:`~repro.faults.analysis.EnsembleReport.identical`.
    """
    from repro.faults.analysis import EnsembleReport

    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("ensemble needs at least one seed")
    kwargs = dict(
        schedule=schedule, warmup_policy=warmup_policy, recompute=recompute,
        enforce_memory=enforce_memory, sim_engine=sim_engine,
    )
    clean = evaluate_seed(profile, cluster, plan, (), 0, **kwargs)
    models = tuple(models)
    outcomes = tuple(
        evaluate_seed(profile, cluster, plan, models, s, **kwargs)
        for s in seeds
    )
    return EnsembleReport(
        plan_notation=plan.notation,
        clean=clean,
        outcomes=outcomes,
        makespans=np.array([o.makespan for o in outcomes], dtype=np.float64),
    )

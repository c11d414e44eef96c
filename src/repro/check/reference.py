"""Reference oracles for the simulator and the fault-ensemble layer.

Each function here is a deliberately naive second implementation of a
production path, kept only to prove bit-identity with it:

* :func:`run_reference` — the name-keyed drain-everything event loop that
  ``Simulator(graph, engine="reference")`` runs.  The production loop
  (:class:`repro.sim.batched._BatchRunner`, behind ``engine="compiled"``)
  reproduces its makespans, traces, and memory timelines exactly;
* :func:`per_seed_ensemble` — one independent :func:`evaluate_seed`
  simulation per seed, the oracle for the single batched pass of
  :func:`repro.faults.analysis.run_ensemble`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.sim.engine import SimulationResult
from repro.sim.trace import MemoryTimeline, Trace, TraceEvent, PHASE_END, PHASE_START

__all__ = ["ResourcePool", "run_reference", "per_seed_ensemble"]


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
    per-resource waiter heaps avoid.
    """
    pool = ResourcePool()
    trace = Trace()
    memory = MemoryTimeline()

    pred_left = dict(graph._pred_count)
    seq = itertools.count()
    op_ids = {op.name: i for i, op in enumerate(graph.ops())}

    # Ready heap: (priority, submission-sequence, name).
    ready: list[tuple[float, int, str]] = []
    for op in graph.ops():
        if pred_left[op.name] == 0:
            heapq.heappush(ready, (op.priority, next(seq), op.name))

    # Completion heap: (end-time, sequence, name).
    running: list[tuple[float, int, str]] = []
    now = 0.0
    completed = 0

    def try_dispatch() -> None:
        """Start every ready op whose resources are free, priority order."""
        skipped: list[tuple[float, int, str]] = []
        while ready:
            prio, sq, name = heapq.heappop(ready)
            op = graph.op(name)
            if pool.try_acquire(op.resources, op_ids[name]):
                for eff in op.mem_effects:
                    if not eff.at_end:
                        memory.record(eff.device, now, eff.delta, PHASE_START)
                heapq.heappush(running, (now + op.duration, sq, name))
            else:
                skipped.append((prio, sq, name))
        for item in skipped:
            heapq.heappush(ready, item)

    def _complete(name: str, end: float) -> bool:
        """Retire one finished op: release resources, settle memory,
        trace it, and wake successors.  Returns True when the dispatch
        state may have changed (resources freed or new ops ready) —
        False means a rescan of the ready heap would be a no-op.
        """
        nonlocal completed
        op = graph.op(name)
        pool.release(op.resources, op_ids[name])
        for eff in op.mem_effects:
            if eff.at_end:
                memory.record(eff.device, end, eff.delta, PHASE_END)
        trace.add(
            TraceEvent(
                name=name,
                start=end - op.duration,
                end=end,
                resources=op.resources,
                tags=op.tags,
            )
        )
        completed += 1
        woke = False
        for succ in graph._succ[name]:
            pred_left[succ] -= 1
            if pred_left[succ] == 0:
                heapq.heappush(ready, (graph.op(succ).priority, next(seq), succ))
                woke = True
        return woke or bool(op.resources)

    try_dispatch()
    total = len(graph)
    while running:
        end, _, name = heapq.heappop(running)
        now = end
        changed = _complete(name, now)
        # Also drain any other ops finishing at the same instant before
        # dispatching, so resources freed simultaneously are all visible.
        while running and running[0][0] == now:
            _, _, name2 = heapq.heappop(running)
            changed = _complete(name2, now) or changed
        if changed:
            try_dispatch()

    if completed != total:
        graph.validate_acyclic()  # a cycle raises the canonical ValueError
        stuck = [n for n, c in pred_left.items() if c > 0]
        raise RuntimeError(
            f"simulation deadlocked: {total - completed} ops never ran "
            f"(first few blocked: {stuck[:5]})"
        )
    return SimulationResult(makespan=trace.makespan(), trace=trace, memory=memory)


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
    from repro.faults.analysis import EnsembleReport, evaluate_seed

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

"""Deterministic list-scheduling discrete-event simulator.

The DAPPLE runtime compiles a pipeline schedule into a static :class:`TaskGraph`
of :class:`Op` nodes — forward/backward computations bound to GPU resources,
activation transfers bound to link resources, AllReduce collectives bound to
virtual group channels — connected by data and control dependencies, exactly
mirroring how the paper's TF implementation chains micro-batch units with
control edges (paper Fig. 11).

The :class:`Simulator` then executes the graph with event-driven list
scheduling:

* an op becomes *ready* once all its predecessors completed;
* at every completion event the dispatcher scans ready ops in priority order
  and starts each op whose resource set is entirely free;
* ties are broken by submission order, making runs fully deterministic.

Memory effects attached to ops feed a :class:`~repro.sim.trace.MemoryTimeline`
so peak-memory comparisons (paper Table VI, Fig. 3c) fall out of the same run
that produces the makespan.

Two engines implement these semantics:

* ``"compiled"`` (default) — :mod:`repro.sim.compiled` presents the graph's
  indexed columns (integer op ids, int adjacency, interned resource slots)
  and the single event loop of :mod:`repro.sim.batched` runs them as a
  one-row batch, dispatching with per-resource waiter queues so a
  completion only re-examines ops actually blocked on the freed resources.
  Traces and memory deltas land in columnar buffers with lazy
  :class:`~repro.sim.trace.TraceEvent` materialization.
* ``"reference"`` — the name-keyed drain-everything loop of
  :func:`repro.check.reference.run_reference`, kept as the bit-identical
  oracle for debugging and equivalence testing
  (``tests/sim/test_compiled_equivalence.py``).

Select per run via ``Simulator(graph, engine=...)``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import repro.obs as obs
from repro.sim.trace import MemoryTimeline, Trace


@dataclass
class MemEffect:
    """A memory delta applied on ``device`` at op start or end."""

    device: object
    delta: float
    at_end: bool = False


@dataclass
class Op:
    """One schedulable operation.

    Attributes
    ----------
    name:
        Unique human-readable id (also used to express dependencies).
    duration:
        Finite, non-negative busy time in seconds; zero-duration ops are
        allowed (barriers).
    resources:
        Distinct resource keys held exclusively for ``duration``.
    priority:
        Lower runs first among simultaneously-ready ops.  The runtime uses
        this to keep the intended micro-batch interleaving when a device has
        several runnable ops.
    tags:
        Free-form metadata copied into the trace (stage id, micro-batch id,
        op kind) for post-run assertions and Gantt rendering.

    An op's duration, priority, resources, and memory effects are snapshot
    into the graph's indexed columns by :meth:`TaskGraph.add` — attach
    ``mem_effects`` *before* adding the op to a graph.  Mutations after
    ``add`` are seen only by the reference engine.
    """

    name: str
    duration: float
    resources: tuple = ()
    priority: float = 0.0
    tags: dict = field(default_factory=dict)
    mem_effects: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.duration < math.inf:
            kind = "negative" if self.duration < 0 else "non-finite"
            raise ValueError(f"op {self.name!r} has {kind} duration {self.duration}")
        resources = self.resources = tuple(self.resources)
        if len(resources) > 1 and len(set(resources)) != len(resources):
            raise ValueError(
                f"op {self.name!r} names a resource more than once: {resources}"
            )


class TaskGraph:
    """A static DAG of ops with data/control dependencies.

    Alongside the name-keyed maps (used by the reference engine and
    external callers), the graph incrementally maintains an *indexed form*:
    integer op ids in submission order, int-id adjacency, resource keys and
    memory-effect devices interned to dense slots, and duration/priority
    columns.  :func:`repro.sim.compiled.compile_graph` wraps these columns
    in O(1) instead of re-deriving them with a per-op pass.  Op metadata is
    snapshot at :meth:`add` time (see :class:`Op`).
    """

    def __init__(self) -> None:
        self._ops: dict[str, Op] = {}
        self._succ: dict[str, list[str]] = {}
        self._pred_count: dict[str, int] = {}
        self._order: list[str] = []
        # Indexed form, maintained incrementally by add()/add_dep().
        self._id_of: dict[str, int] = {}
        self._succ_ids: list[list[int]] = []
        self._pred_n: list[int] = []
        self._dur_col: list[float] = []
        self._prio_col: list[float] = []
        self._res_slot_of: dict = {}
        self._res_keys: list = []
        # Per-op resource slots, shape-specialized for the event loop:
        # ``None`` (no resources), a bare ``int`` (the overwhelmingly common
        # single-resource op), or a tuple of slots.
        self._res_col: list = []
        # Flat op×resource incidence (parallel op-id / slot columns,
        # op-major, slots in declaration order) — the expansion vectorized
        # analyses consume; maintained here so compile stays O(1).
        self._res_flat_ops: list[int] = []
        self._res_flat_slots: list[int] = []
        self._dev_slot_of: dict = {}
        self._dev_keys: list = []
        self._mem_start_col: list[tuple] = []
        self._mem_end_col: list[tuple] = []

    def add(self, op: Op) -> Op:
        name = op.name
        if name in self._ops:
            raise ValueError(f"duplicate op name {name!r}")
        self._ops[name] = op
        self._succ[name] = []
        self._pred_count[name] = 0
        self._order.append(name)

        self._id_of[name] = len(self._succ_ids)
        self._succ_ids.append([])
        self._pred_n.append(0)
        self._dur_col.append(op.duration)
        self._prio_col.append(op.priority)
        resources = op.resources
        if resources:
            op_id = self._id_of[name]
            slot_of = self._res_slot_of
            keys = self._res_keys
            flat_ops = self._res_flat_ops
            flat_slots = self._res_flat_slots
            slots = []
            for key in resources:
                s = slot_of.get(key)
                if s is None:
                    s = slot_of[key] = len(keys)
                    keys.append(key)
                slots.append(s)
                flat_ops.append(op_id)
                flat_slots.append(s)
            self._res_col.append(slots[0] if len(slots) == 1 else tuple(slots))
        else:
            self._res_col.append(None)
        effects = op.mem_effects
        if effects:
            dev_of = self._dev_slot_of
            dev_keys = self._dev_keys
            starts: list = []
            ends: list = []
            for eff in effects:
                d = dev_of.get(eff.device)
                if d is None:
                    d = dev_of[eff.device] = len(dev_keys)
                    dev_keys.append(eff.device)
                (ends if eff.at_end else starts).append((d, eff.delta))
            self._mem_start_col.append(tuple(starts))
            self._mem_end_col.append(tuple(ends))
        else:
            self._mem_start_col.append(())
            self._mem_end_col.append(())
        return op

    def add_dep(self, before: str, after: str) -> None:
        """Declare that ``after`` may only start once ``before`` completed."""
        id_of = self._id_of
        i = id_of.get(before)
        if i is None:
            raise KeyError(f"unknown op {before!r}")
        j = id_of.get(after)
        if j is None:
            raise KeyError(f"unknown op {after!r}")
        self._succ[before].append(after)
        self._pred_count[after] += 1
        self._succ_ids[i].append(j)
        self._pred_n[j] += 1

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def op(self, name: str) -> Op:
        return self._ops[name]

    def ops(self) -> list[Op]:
        return [self._ops[n] for n in self._order]

    def validate_acyclic(self) -> None:
        """Raise ``ValueError`` if the dependency graph has a cycle."""
        indeg = list(self._pred_n)
        queue = [i for i, d in enumerate(indeg) if not d]
        seen = 0
        succ = self._succ_ids
        while queue:
            n = queue.pop()
            seen += 1
            for m in succ[n]:
                c = indeg[m] - 1
                indeg[m] = c
                if not c:
                    queue.append(m)
        if seen != len(self._ops):
            raise ValueError("task graph contains a dependency cycle")


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    makespan: float
    trace: Trace
    memory: MemoryTimeline

    def peak_memory(self, device) -> float:
        return self.memory.peak(device)


#: Valid ``Simulator(engine=...)`` values.
ENGINES = ("compiled", "reference")


class Simulator:
    """Executes a :class:`TaskGraph` and returns a :class:`SimulationResult`.

    ``engine`` selects the event loop: ``"compiled"`` (indexed task graph +
    waiter-queue dispatch, the default) or ``"reference"`` (the oracle loop
    in :mod:`repro.check.reference`, bit-identical but slower).

    Graph validation is lazy: a dependency cycle surfaces as a
    ``ValueError`` from :meth:`run` (an acyclic graph can never deadlock in
    this model — every dispatched op completes and every freed resource
    promotes its best waiter — so the cycle check only runs on the failure
    path instead of taxing every successful simulation with an O(V+E)
    pre-pass).
    """

    def __init__(self, graph: TaskGraph, engine: str = "compiled") -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown sim engine {engine!r} (one of {ENGINES})")
        self._graph = graph
        self.engine = engine

    def run(self, validate: bool | None = None) -> SimulationResult:
        """Simulate the graph; optionally conformance-check the outcome.

        ``validate=True`` runs the engine-agnostic invariants of
        :func:`repro.check.invariants.check_simulation` (completeness,
        dependency order, resource exclusivity, duration fidelity, makespan
        lower bound) on the fresh result and raises
        :class:`~repro.check.invariants.ConformanceError` on any violation.
        ``validate=None`` defers to the ``REPRO_SIM_VALIDATE`` environment
        variable (off by default — the scan is a full trace pass).
        """
        if validate is None:
            validate = os.environ.get("REPRO_SIM_VALIDATE", "").lower() not in (
                "", "0", "false",
            )
        if not obs.enabled():
            result = self._run()
        else:
            with obs.span(
                "sim.run", engine=self.engine, ops=len(self._graph)
            ) as sp:
                result = self._run()
                sp.set(makespan=result.makespan)
            _record_sim_metrics(self._graph, result)
        if validate:
            from repro.check.invariants import check_simulation

            check_simulation(self._graph, result).raise_if_failed()
        return result

    def _run(self) -> SimulationResult:
        if self.engine == "reference":
            from repro.check.reference import run_reference

            return run_reference(self._graph)
        # Looked up at call time so the compile step can be wrapped.
        from repro.sim.compiled import compile_graph, run_compiled

        return run_compiled(compile_graph(self._graph))


def _record_sim_metrics(graph: TaskGraph, result: SimulationResult) -> None:
    """Publish post-run metrics (observability enabled only): event count,
    per-resource occupancy, per-device memory peaks.  Every op of ``graph``
    ran once, so its interned resource and device keys name the gauges;
    their values are collect-time providers (``Gauge.set_fn``) over
    ``trace.busy_time`` and one memoized ``memory.peak_all()``, computed at
    first read, off the simulation's critical path."""
    obs.counter("sim.events").inc(len(graph))
    trace = result.trace
    makespan = result.makespan
    if makespan > 0:
        for r in sorted(graph._res_keys, key=str):
            obs.gauge("sim.occupancy", resource=str(r)).set_fn(
                lambda r=r: trace.busy_time(r) / makespan
            )
    peaks = functools.cache(result.memory.peak_all)
    for dev in sorted(graph._dev_keys, key=str):
        obs.gauge("sim.memory_peak_bytes", device=str(dev)).set_fn(
            lambda d=dev: peaks().get(d, 0.0)
        )

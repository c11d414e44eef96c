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

* ``"compiled"`` (default) — the single event loop of
  :mod:`repro.sim.batched` runs the graph's indexed columns (integer op
  ids, int adjacency, interned resource slots) as a one-row batch,
  dispatching with per-resource waiter queues so a completion only
  re-examines ops actually blocked on the freed resources.  Traces and
  memory deltas land in columnar buffers with lazy
  :class:`~repro.sim.trace.TraceEvent` materialization.
* ``"reference"`` — the drain-everything loop of
  :func:`repro.check.reference.run_reference`, kept as the bit-identical
  oracle for debugging and equivalence testing
  (``tests/sim/test_compiled_equivalence.py``).

Select per run via ``Simulator(graph, engine=...)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.sim.trace import MemoryTimeline, Trace


@dataclass(frozen=True)
class MemEffect:
    """A memory delta applied on ``device`` at op start or end."""

    device: object
    delta: float
    at_end: bool = False


@dataclass(frozen=True)
class Replicas:
    """The lock-step replicas one folded op stands for.

    Replica ``r`` runs on device ``keys[r]`` and its trace row is named by
    replacing the op name's trailing ``labels[0]`` with ``labels[r]``.  The
    op itself is replica 0's row.  An op that holds a resource holds
    ``keys[0]`` and charges its memory to ``keys[0]``, which then names the
    whole class in the graph's columns (:attr:`TaskGraph.members`); an op
    without resources charges the class keys among its ``keys``.
    """

    labels: tuple
    keys: tuple

    def rows(self, op: "Op") -> list[tuple[str, tuple]]:
        """``(name, resources)`` of each replica's row of ``op``, in
        replica order."""
        stem = op.name[: len(op.name) - len(self.labels[0])]
        if op.resources:
            return [(stem + l, (k,)) for l, k in zip(self.labels, self.keys)]
        return [(stem + l, ()) for l in self.labels]


@dataclass(frozen=True)
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
    mem_effects:
        :class:`MemEffect` tuple applied when the op starts or ends (any
        iterable is accepted and stored as a tuple).
    replicas:
        For a *folded* op, the :class:`Replicas` it simulates at once;
        traces and memory timelines expand it into one row per replica.

    Ops are frozen, ``mem_effects`` included: :meth:`TaskGraph.add` reads
    an op once into the graph's columns, and nothing can change the op
    afterwards, so the op and its columns cannot disagree.
    """

    name: str
    duration: float
    resources: tuple = ()
    priority: float = 0.0
    tags: dict = field(default_factory=dict)
    mem_effects: tuple = ()
    replicas: Replicas | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.duration < math.inf:
            kind = "negative" if self.duration < 0 else "non-finite"
            raise ValueError(f"op {self.name!r} has {kind} duration {self.duration}")
        resources = self.resources
        if type(resources) is not tuple:
            resources = tuple(resources)
            object.__setattr__(self, "resources", resources)
        if len(resources) > 1 and len(set(resources)) != len(resources):
            raise ValueError(
                f"op {self.name!r} names a resource more than once: {resources}"
            )
        if type(self.mem_effects) is not tuple:
            object.__setattr__(self, "mem_effects", tuple(self.mem_effects))
        rep = self.replicas
        if rep is not None and not (
            len(rep.keys) == len(rep.labels) > 1
            and self.name.endswith(rep.labels[0])
            and resources in ((), rep.keys[:1])
            and all(
                e.device == rep.keys[0] if resources else e.device in rep.keys
                for e in self.mem_effects
            )
        ):
            raise ValueError(
                f"folded op {self.name!r} must end in {rep.labels[0]!r}, hold "
                f"nothing or {rep.keys[0]!r}, and charge only its replicas"
            )


class TaskGraph:
    """A static DAG of ops with data/control dependencies, stored as
    indexed columns.

    An op's id is its submission order.  :meth:`add` reads each op once
    into per-op columns; the event loop, the reference oracle, the trace
    analyses and the invariants all read these columns:

    * ``id_of`` — op name → id;
    * ``succ_ids`` / ``indegree`` — successor ids in :meth:`add_dep` order,
      and predecessor counts;
    * ``duration_list`` / ``priorities`` — plain float lists;
    * ``res_slots`` — resource slots shape-specialized for the event loop:
      ``None`` (no resources), a bare ``int`` (the common single-resource
      op) or a tuple of slots; ``resource_keys`` / ``slot_of`` intern the
      keys;
    * ``mem_start`` / ``mem_end`` — per-op ``(device slot, delta)`` tuples,
      with ``device_keys`` interning the devices;
    * ``members`` — class key → member device keys of every folded op
      that holds a resource; ``num_rows`` counts trace rows, one per
      replica of a folded op;
    * ``victim_slots`` — class key → the keys of the single-replica
      classes that run like that class, on which the fault layer places a
      seed's victims (filled by the executor; see
      :mod:`repro.faults.models`).

    :func:`repro.sim.compiled.compile_graph` seals the graph before it is
    simulated; so does the first read of a derived column (``durations``,
    ``res_incidence``, ``pred_lists``), which is a snapshot.  A sealed
    graph rejects :meth:`add` and :meth:`add_dep`.
    """

    def __init__(self) -> None:
        self._op_list: list[Op] = []
        self.id_of: dict[str, int] = {}
        self.succ_ids: list[list[int]] = []
        self.indegree: list[int] = []
        self.duration_list: list[float] = []
        self.priorities: list[float] = []
        self.res_slots: list = []
        self.resource_keys: list = []
        self.slot_of: dict = {}
        self.mem_start: list[tuple] = []
        self.mem_end: list[tuple] = []
        self.device_keys: list = []
        self._device_slot_of: dict = {}
        self.members: dict = {}
        self.victim_slots: dict = {}
        self.num_rows = 0
        self.sealed = False

    def add(self, op: Op) -> Op:
        name = op.name
        if self.sealed:
            raise RuntimeError(f"task graph is sealed; cannot add op {name!r}")
        id_of = self.id_of
        if name in id_of:
            raise ValueError(f"duplicate op name {name!r}")
        id_of[name] = len(self._op_list)
        self._op_list.append(op)
        self.succ_ids.append([])
        self.indegree.append(0)
        self.duration_list.append(op.duration)
        self.priorities.append(op.priority)
        resources = op.resources
        if resources:
            slot_of = self.slot_of
            slots = []
            for key in resources:
                s = slot_of.get(key)
                if s is None:
                    s = slot_of[key] = len(self.resource_keys)
                    self.resource_keys.append(key)
                slots.append(s)
            self.res_slots.append(slots[0] if len(slots) == 1 else tuple(slots))
        else:
            self.res_slots.append(None)
        effects = op.mem_effects
        if effects:
            dev_of = self._device_slot_of
            starts: list = []
            ends: list = []
            for eff in effects:
                d = dev_of.get(eff.device)
                if d is None:
                    d = dev_of[eff.device] = len(self.device_keys)
                    self.device_keys.append(eff.device)
                (ends if eff.at_end else starts).append((d, eff.delta))
            self.mem_start.append(tuple(starts))
            self.mem_end.append(tuple(ends))
        else:
            self.mem_start.append(())
            self.mem_end.append(())
        rep = op.replicas
        if rep is None:
            self.num_rows += 1
        elif not resources:
            self.num_rows += len(rep.keys)
        else:
            keys = self.members.setdefault(rep.keys[0], rep.keys)
            if keys != rep.keys:
                raise ValueError(
                    f"op {name!r} folds {rep.keys} but class {rep.keys[0]!r} "
                    f"already folds {keys}"
                )
            self.num_rows += len(keys)
        return op

    def add_dep(self, before: str, after: str) -> None:
        """Declare that ``after`` may only start once ``before`` completed."""
        if self.sealed:
            raise RuntimeError(
                f"task graph is sealed; cannot add dependency {before!r} -> {after!r}"
            )
        id_of = self.id_of
        i = id_of.get(before)
        if i is None:
            raise KeyError(f"unknown op {before!r}")
        j = id_of.get(after)
        if j is None:
            raise KeyError(f"unknown op {after!r}")
        self.succ_ids[i].append(j)
        self.indegree[j] += 1

    def __len__(self) -> int:
        return len(self._op_list)

    def __contains__(self, name: str) -> bool:
        return name in self.id_of

    def op(self, name: str) -> Op:
        return self._op_list[self.id_of[name]]

    def ops(self) -> list[Op]:
        """The ops in id (submission) order — the graph's own list; read
        it, don't modify it."""
        return self._op_list

    @property
    def num_ops(self) -> int:
        return len(self._op_list)

    @property
    def num_resources(self) -> int:
        return len(self.resource_keys)

    @functools.cached_property
    def durations(self) -> np.ndarray:
        """``duration_list`` as a float64 array (seals the graph)."""
        self.sealed = True
        return np.array(self.duration_list, dtype=np.float64)

    @functools.cached_property
    def res_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened op×resource incidence: parallel (op id, resource slot)
        arrays, op-major with each op's slots in declaration order — the
        expansion batched analyses sort per scenario (seals the graph)."""
        self.sealed = True
        ops: list[int] = []
        slots: list[int] = []
        for i, rs in enumerate(self.res_slots):
            if rs is None:
                continue
            if type(rs) is int:
                ops.append(i)
                slots.append(rs)
            else:
                ops.extend([i] * len(rs))
                slots.extend(rs)
        return (
            np.array(ops, dtype=np.int64),
            np.array(slots, dtype=np.int64),
        )

    @functools.cached_property
    def pred_lists(self) -> list[list[int]]:
        """Predecessors of each op, in predecessor-submission order (the
        iteration order the critical-path walk in :mod:`repro.faults`
        tie-breaks on; seals the graph)."""
        self.sealed = True
        preds: list[list[int]] = [[] for _ in range(len(self._op_list))]
        for i, succs in enumerate(self.succ_ids):
            for j in succs:
                preds[j].append(i)
        return preds

    @functools.cached_property
    def row_ids(self) -> dict[str, int]:
        """Trace row name → id of the op that simulates it: ``id_of`` plus
        every replica row of the folded ops (seals the graph)."""
        self.sealed = True
        if not self.members:
            return self.id_of
        out: dict[str, int] = {}
        for i, op in enumerate(self._op_list):
            if op.replicas is None:
                out[op.name] = i
            else:
                for name, _res in op.replicas.rows(op):
                    out[name] = i
        return out

    @functools.cached_property
    def key_class(self) -> dict:
        """Member device key → (class key, replica index) for every member
        of a folded class (seals the graph)."""
        self.sealed = True
        return {
            k: (keys[0], r)
            for keys in self.members.values()
            for r, k in enumerate(keys)
        }

    def expand_keys(self, keys) -> list:
        """``keys`` with each class key replaced by its member keys."""
        members = self.members
        return [m for k in keys for m in members.get(k, (k,))]

    def validate_acyclic(self) -> None:
        """Raise ``ValueError`` if the dependency graph has a cycle."""
        indeg = list(self.indegree)
        queue = [i for i, d in enumerate(indeg) if not d]
        seen = 0
        succ = self.succ_ids
        while queue:
            n = queue.pop()
            seen += 1
            for m in succ[n]:
                c = indeg[m] - 1
                indeg[m] = c
                if not c:
                    queue.append(m)
        if seen != len(self._op_list):
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

    def run(self, validate: bool = False) -> SimulationResult:
        """Simulate the graph; optionally conformance-check the outcome.

        ``validate=True`` runs the engine-agnostic invariants of
        :func:`repro.check.invariants.check_simulation` (completeness,
        dependency order, resource exclusivity, duration fidelity, makespan
        lower bound) on the fresh result and raises
        :class:`~repro.check.invariants.ConformanceError` on any violation.
        """
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
    """Publish post-run metrics (observability enabled only): event count
    (trace rows, one per replica of a folded op), per-resource occupancy,
    per-device memory peaks.  Every op of ``graph`` ran once, so its
    interned resource and device keys — each folded class key expanded to
    its members — name the gauges; their values are collect-time providers
    (``Gauge.set_fn``) over ``trace.busy_time`` and one memoized
    ``memory.peak_all()``, computed at first read, off the simulation's
    critical path."""
    obs.counter("sim.events").inc(graph.num_rows)
    trace = result.trace
    makespan = result.makespan
    if makespan > 0:
        for r in sorted(graph.expand_keys(graph.resource_keys), key=str):
            obs.gauge("sim.occupancy", resource=str(r)).set_fn(
                lambda r=r: trace.busy_time(r) / makespan
            )
    peaks = functools.cache(result.memory.peak_all)
    for dev in sorted(graph.expand_keys(graph.device_keys), key=str):
        obs.gauge("sim.memory_peak_bytes", device=str(dev)).set_fn(
            lambda d=dev: peaks().get(d, 0.0)
        )

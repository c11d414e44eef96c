"""Compiling a task graph, and the columnar trace/memory types.

:func:`compile_graph` seals a :class:`~repro.sim.engine.TaskGraph` — whose
indexed columns are the only representation the simulator needs — and
:func:`run_compiled` executes it on the simulator's event loop
(:mod:`repro.sim.batched`) as a one-row run.

Traces and memory deltas are recorded into columnar buffers.
:class:`ColumnarTrace`, the trace of every production run and ensemble
scenario, answers analysis queries from per-op numpy columns;
:class:`ColumnarMemoryTimeline` thaws per-device delta lists lazily.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property

import numpy as np

import repro.obs as obs
from repro.sim.trace import (
    MemoryTimeline,
    Trace,
    TraceEvent,
    PHASE_START,
)


def compile_graph(graph):
    """Seal ``graph`` for simulation and return it.

    The graph already is its indexed form — :meth:`TaskGraph.add
    <repro.sim.engine.TaskGraph.add>` and ``add_dep`` maintain the columns
    the event loop runs on — so compiling is O(1).  Sealing makes the graph
    reject further ops and dependencies, so the columns a run reads cannot
    change under it or under the trace it returns.
    """
    graph.sealed = True
    return graph


class ColumnarTrace(Trace):
    """A read-only :class:`~repro.sim.trace.Trace` over columnar buffers.

    Event rows arrive as two parallel columns — op id and end time, in
    completion order, one plain append each in the hot loop (``durations``
    is the row a batched scenario simulated).  Queries answer from per-op
    numpy columns derived on first use, bit-identical to what the
    event-list trace derives event by event:

    * ``start_by_op`` is ``end - duration`` elementwise — exactly the
      expression the reference engine evaluates per event;
    * :attr:`busy_by_slot` accumulates event widths with ``np.add.at`` in
      ``by_resource`` order ((start, end)-sorted, stable over completion
      order), which applies additions sequentially and therefore reproduces
      ``Trace.busy_time``'s left-to-right sum (``reduceat``-style pairwise
      reduction would not);
    * :meth:`resource_sequence` is ``by_resource`` as op ids, backing the
      critical-path walk in :mod:`repro.faults.analysis`.

    A folded op (``op.replicas``, see :class:`~repro.sim.engine.Replicas`)
    is one row of the columns and one row per replica of every
    row-level view — ``iter_rows``, ``events``, ``find`` — in replica
    order at the op's place in completion order.  A member device key
    answers ``by_resource`` and ``busy_time`` from its class key's slot.
    """

    def __init__(self, graph, order, ends, durations=None) -> None:
        # Deliberately does not call Trace.__init__: ``events`` is lazy here.
        #: The sealed :class:`~repro.sim.engine.TaskGraph` that ran.
        self.graph = graph
        #: Op ids in completion order.
        self.order = order
        self._ends = ends
        self._durations = graph.durations if durations is None else durations
        self._event_cache: dict[int, TraceEvent] = {}
        # Completion times are emitted in non-decreasing order, so the
        # makespan is simply the last row's end.
        self._makespan = ends[-1] if ends else 0.0
        self._seq_pos: dict = {}

    def _cols(self) -> tuple[list[int], list[float]]:
        return self.order, self._ends

    @cached_property
    def end_by_op(self) -> np.ndarray:
        end = np.empty(self.graph.num_ops, dtype=np.float64)
        end[self.order] = self._ends
        return end

    @cached_property
    def start_by_op(self) -> np.ndarray:
        return self.end_by_op - np.asarray(self._durations, dtype=np.float64)

    @cached_property
    def _sorted_incidence(self) -> tuple:
        """(op ids, resource slots) of every event×resource entry, sorted by
        (resource, start, end, completion order) — by_resource order, all
        resources concatenated."""
        ops_e, res_e = self.graph.res_incidence
        pos = np.empty(self.graph.num_ops, dtype=np.int64)
        pos[self.order] = np.arange(len(self.order), dtype=np.int64)
        idx = np.lexsort((
            pos[ops_e], self.end_by_op[ops_e], self.start_by_op[ops_e], res_e,
        ))
        return ops_e[idx], res_e[idx]

    @cached_property
    def busy_by_slot(self) -> np.ndarray:
        """Per-resource-slot total busy time (see class docstring)."""
        busy = np.zeros(self.graph.num_resources, dtype=np.float64)
        ops_s, res_s = self._sorted_incidence
        widths = self.end_by_op - self.start_by_op
        np.add.at(busy, res_s, widths[ops_s])
        return busy

    def resource_sequence(self, slot: int) -> np.ndarray:
        """Op ids that occupied resource ``slot``, in ``by_resource`` order."""
        ops_s, res_s = self._sorted_incidence
        lo, hi = np.searchsorted(res_s, (slot, slot + 1))
        return ops_s[lo:hi]

    def resource_index(self, slot: int) -> dict:
        """op id → position within :meth:`resource_sequence`."""
        m = self._seq_pos.get(slot)
        if m is None:
            seq = self.resource_sequence(slot).tolist()
            m = self._seq_pos[slot] = {o: k for k, o in enumerate(seq)}
        return m

    def event(self, op_id: int, replica: int = 0) -> TraceEvent:
        """The trace row of op ``op_id`` (of its ``replica``-th replica
        when folded), materialized once."""
        ev = self._event_cache.get((op_id, replica))
        if ev is None:
            op = self.graph.ops()[op_id]
            name, res = op.name, op.resources
            if replica:
                name, res = op.replicas.rows(op)[replica]
            ev = self._event_cache[(op_id, replica)] = TraceEvent(
                name, float(self.start_by_op[op_id]),
                float(self.end_by_op[op_id]), res, op.tags,
            )
        return ev

    @cached_property
    def events(self) -> list[TraceEvent]:
        ops = self.graph.ops()
        return [
            self.event(i, r) for i in self.order
            for r in range(len(ops[i].replicas.keys) if ops[i].replicas else 1)
        ]

    def add(self, event: TraceEvent) -> None:
        raise TypeError("a ColumnarTrace is read-only")

    def iter_rows(self):
        ops = self.graph.ops()
        starts = self.start_by_op.tolist()
        for i, end in zip(self.order, self._ends):
            op = ops[i]
            if op.replicas is None:
                yield op.name, starts[i], end, op.resources, op.tags
            else:
                for name, res in op.replicas.rows(op):
                    yield name, starts[i], end, res, op.tags

    def find(self, name: str) -> TraceEvent:
        op_id = self.graph.row_ids.get(name)
        if op_id is None:
            raise KeyError(f"expected exactly one event named {name!r}, got 0")
        op = self.graph.ops()[op_id]
        if op.name == name:
            return self.event(op_id)
        names = [n for n, _res in op.replicas.rows(op)]
        return self.event(op_id, names.index(name))

    def _slot(self, key) -> tuple:
        """(resource slot or None, replica index) that answers for ``key``."""
        key, replica = self.graph.key_class.get(key, (key, 0))
        return self.graph.slot_of.get(key), replica

    def by_resource(self, key) -> list[TraceEvent]:
        slot, replica = self._slot(key)
        if slot is None:
            return []
        return [
            self.event(int(i), replica) for i in self.resource_sequence(slot)
        ]

    def busy_time(self, key) -> float:
        """``Trace.busy_time(key)``, bit-identical (0.0 for unknown keys)."""
        slot, _replica = self._slot(key)
        if slot is None:
            return 0.0
        return float(self.busy_by_slot[slot])


class ColumnarMemoryTimeline(MemoryTimeline):
    """A :class:`~repro.sim.trace.MemoryTimeline` fed from a packed buffer.

    The simulator appends one ``(time, phase, effects)`` row per op side
    with memory effects — ``effects`` is the op's interned
    ``(device slot, delta)`` tuple straight from the compiled graph, so the
    hot loop pays a single append per op rather than one per record.  The
    per-device delta lists of the base class are populated lazily, on the
    first query, preserving record order (and therefore the base class's
    bit-exact sorted materialization).

    ``members`` (a graph's :attr:`~repro.sim.engine.TaskGraph.members`)
    maps each folded class key to its member devices: every member reports
    its class key's timeline.
    """

    def __init__(self, device_keys, mem_rows, members=None):
        super().__init__()
        self._pending = (device_keys, mem_rows)
        self._members = members or {}
        self._class_of = {
            k: keys[0] for keys in self._members.values() for k in keys[1:]
        }

    def _thaw(self) -> None:
        if self._pending is None:
            return
        device_keys, mem_rows = self._pending
        self._pending = None
        deltas = self._deltas
        for t, p, effects in mem_rows:
            for d, v in effects:
                rows = deltas.get(device_keys[d])
                if rows is None:
                    rows = deltas[device_keys[d]] = []
                rows.append((t, p, v))

    def record(self, device, time, delta, phase=PHASE_START) -> None:
        self._thaw()
        super().record(device, time, delta, phase)

    def devices(self) -> list:
        self._thaw()
        members = self._members
        return sorted(
            (m for d in self._deltas for m in members.get(d, (d,))), key=str
        )

    def _materialize(self, device):
        self._thaw()
        return super()._materialize(self._class_of.get(device, device))

    def peak_all(self) -> dict:
        """Peak live bytes per device, vectorized over the packed buffer.

        Bit-identical to the base class's per-device materialization:
        ``np.lexsort`` keyed ``(delta, phase, time, device)`` reproduces,
        within each device segment, exactly the ascending ``(time, phase,
        delta)`` tuple order of ``sorted(rows)`` (ties stay in record order
        — both sorts are stable), and the running sum is taken per segment
        with ``np.cumsum`` — the same left-to-right addition sequence the
        base class performs on that device's delta column.  Answering from
        the packed rows directly skips the python thaw loop entirely.
        """
        if self._pending is None:
            return super().peak_all()
        device_keys, mem_rows = self._pending
        if not mem_rows:
            return {}
        # Column extraction stays at C speed: map(itemgetter)/chain feed
        # fromiter directly, with no python-level loop over the rows.
        n = len(mem_rows)
        get0, get1, get2 = (
            operator.itemgetter(0), operator.itemgetter(1),
            operator.itemgetter(2),
        )
        effs = list(map(get2, mem_rows))
        counts = np.fromiter(map(len, effs), dtype=np.int64, count=n)
        pairs = list(itertools.chain.from_iterable(effs))
        if not pairs:
            return {}
        m = len(pairs)
        dev_a = np.fromiter(map(get0, pairs), dtype=np.int64, count=m)
        val_a = np.fromiter(map(get1, pairs), dtype=np.float64, count=m)
        t_a = np.repeat(
            np.fromiter(map(get0, mem_rows), dtype=np.float64, count=n),
            counts,
        )
        p_a = np.repeat(
            np.fromiter(map(get1, mem_rows), dtype=np.int64, count=n),
            counts,
        )
        order = np.lexsort((val_a, p_a, t_a, dev_a))
        dev_s = dev_a[order]
        val_s = val_a[order]
        cuts = np.flatnonzero(dev_s[1:] != dev_s[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        stops = np.concatenate((cuts, [dev_s.size]))
        out = {}
        members = self._members
        for a, b in zip(starts.tolist(), stops.tolist()):
            key = device_keys[int(dev_s[a])]
            peak = float(np.cumsum(val_s[a:b]).max(initial=0.0))
            for m in members.get(key, (key,)):
                out[m] = peak
        return dict(sorted(out.items(), key=lambda kv: str(kv[0])))


def run_compiled(graph):
    """Execute a compiled graph on its own durations; returns a
    SimulationResult.

    A one-row run of the simulator's single event loop
    (:class:`repro.sim.batched._BatchRunner`), bit-identical to
    :func:`repro.check.reference.run_reference` by construction: same
    (priority, submission-seq) dispatch order, same completion drain at
    simultaneous timestamps, same memory-record multiset per device.
    """
    from repro.sim.batched import _BatchRunner, _gc_paused, _record_loop_histograms
    from repro.sim.engine import SimulationResult

    track = obs.enabled()
    with _gc_paused():
        runner = _BatchRunner(graph, True, track)
        order, ends, mem_rows, _ = runner.run(graph.durations.tolist())
        trace = ColumnarTrace(graph, order, ends)
        memory = ColumnarMemoryTimeline(graph.device_keys, mem_rows, graph.members)
        result = SimulationResult(
            makespan=trace.makespan(), trace=trace, memory=memory
        )
    if track:
        _record_loop_histograms(runner)
    return result

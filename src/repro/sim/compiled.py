"""Compiled task graphs and the columnar trace/memory types.

:func:`compile_graph` presents a :class:`~repro.sim.engine.TaskGraph` as a
:class:`CompiledTaskGraph`: integer op ids in submission order, int-id
successor lists, resource keys and memory-effect devices
interned to dense slots, and durations/priorities/memory deltas as numpy
columns (materialized lazily — the event loop itself runs on plain-python
views, which are several times faster to index one element at a time).
The underlying columns are maintained incrementally by ``TaskGraph.add`` /
``add_dep``, so compilation is an O(1) wrap, not a per-op pass.
:func:`run_compiled` executes the lowered graph on the simulator's event
loop (:mod:`repro.sim.batched`) as a one-row run.

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

class CompiledTaskGraph:
    """A :class:`~repro.sim.engine.TaskGraph` lowered to dense indices.

    The canonical storage is plain-python columns (lists indexed by op id,
    adjacency as lists of int ids) because the event loop interprets them
    element-wise; the numpy views (``durations``, ``priorities``, and the
    resource incidence) are cached properties materialized on first access
    for vectorized analyses and the columnar trace.
    """

    def __init__(self, ops, succ_lists, res_lists, pred_count, resource_keys,
                 device_keys, mem_start, mem_end, id_of,
                 durations, priorities, res_flat):
        #: Original Op objects in id order (id = submission order); names,
        #: tags, and resource-key tuples are read from here when trace rows
        #: are lazily materialized.
        self.ops = ops
        self.id_of = id_of
        self.resource_keys = resource_keys
        self.device_keys = device_keys
        #: Per-op start/end memory effects as tuples of (device_slot, delta).
        self.mem_start = mem_start
        self.mem_end = mem_end
        self._dur_list = durations
        self._prio_list = priorities
        self._succ_lists = succ_lists
        self._res_lists = res_lists
        self._pred_list = pred_count
        #: Pre-flattened (op ids, resource slots) incidence columns
        #: maintained incrementally by the graph.
        self._res_flat = res_flat

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def num_resources(self) -> int:
        return len(self.resource_keys)

    @cached_property
    def durations(self) -> np.ndarray:
        return np.array(self._dur_list, dtype=np.float64)

    @cached_property
    def priorities(self) -> np.ndarray:
        return np.array(self._prio_list, dtype=np.float64)

    @cached_property
    def res_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened op×resource incidence: parallel (op id, resource slot)
        arrays, op-major with each op's slots in declaration order — the
        expansion batched analyses sort per scenario."""
        ops_l, slots_l = self._res_flat
        return (
            np.array(ops_l, dtype=np.int64),
            np.array(slots_l, dtype=np.int64),
        )

    @cached_property
    def slot_of(self) -> dict:
        """Resource key → dense slot (inverse of :attr:`resource_keys`)."""
        return {k: i for i, k in enumerate(self.resource_keys)}

    @cached_property
    def pred_lists(self) -> list[list[int]]:
        """Predecessors of each op, in predecessor-submission order (the
        iteration order the critical-path walk in :mod:`repro.faults`
        tie-breaks on)."""
        preds: list[list[int]] = [[] for _ in range(self.num_ops)]
        for i, succs in enumerate(self._succ_lists):
            for j in succs:
                preds[j].append(i)
        return preds


def compile_graph(graph) -> CompiledTaskGraph:
    """Wrap ``graph``'s indexed columns as a :class:`CompiledTaskGraph`.

    The columns themselves (op ids, int adjacency, interned resource and
    device slots, duration/priority/memory-effect columns) are maintained
    *incrementally* by :meth:`~repro.sim.engine.TaskGraph.add` and
    ``add_dep``, so this is an O(1) view construction rather than a per-op
    lowering pass.  The view aliases the live graph: compile after the
    graph is fully built, and don't mutate the graph between compiling and
    running.
    """
    return CompiledTaskGraph(
        list(graph._ops.values()),
        graph._succ_ids,
        graph._res_col,
        graph._pred_n,
        graph._res_keys,
        graph._dev_keys,
        graph._mem_start_col,
        graph._mem_end_col,
        graph._id_of,
        graph._dur_col,
        graph._prio_col,
        (graph._res_flat_ops, graph._res_flat_slots),
    )


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
    """

    def __init__(self, compiled: CompiledTaskGraph, order, ends,
                 durations=None) -> None:
        # Deliberately does not call Trace.__init__: ``events`` is lazy here.
        self.compiled = compiled
        #: Op ids in completion order.
        self.order = order
        self._ends = ends
        self._durations = compiled.durations if durations is None else durations
        self._event_cache: dict[int, TraceEvent] = {}
        # Completion times are emitted in non-decreasing order, so the
        # makespan is simply the last row's end.
        self._makespan = ends[-1] if ends else 0.0
        self._seq_pos: dict = {}

    def _cols(self) -> tuple[list[int], list[float]]:
        return self.order, self._ends

    @cached_property
    def end_by_op(self) -> np.ndarray:
        end = np.empty(self.compiled.num_ops, dtype=np.float64)
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
        ops_e, res_e = self.compiled.res_incidence
        pos = np.empty(self.compiled.num_ops, dtype=np.int64)
        pos[self.order] = np.arange(len(self.order), dtype=np.int64)
        idx = np.lexsort((
            pos[ops_e], self.end_by_op[ops_e], self.start_by_op[ops_e], res_e,
        ))
        return ops_e[idx], res_e[idx]

    @cached_property
    def busy_by_slot(self) -> np.ndarray:
        """Per-resource-slot total busy time (see class docstring)."""
        busy = np.zeros(self.compiled.num_resources, dtype=np.float64)
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

    def event(self, op_id: int) -> TraceEvent:
        """The trace row of op ``op_id``, materialized once."""
        ev = self._event_cache.get(op_id)
        if ev is None:
            op = self.compiled.ops[op_id]
            ev = self._event_cache[op_id] = TraceEvent(
                op.name, float(self.start_by_op[op_id]),
                float(self.end_by_op[op_id]), op.resources, op.tags,
            )
        return ev

    @cached_property
    def events(self) -> list[TraceEvent]:
        return [self.event(i) for i in self.order]

    def add(self, event: TraceEvent) -> None:
        raise TypeError("a ColumnarTrace is read-only")

    def iter_rows(self):
        ops = self.compiled.ops
        starts = self.start_by_op.tolist()
        for i, end in zip(self.order, self._ends):
            op = ops[i]
            yield op.name, starts[i], end, op.resources, op.tags

    def find(self, name: str) -> TraceEvent:
        op_id = self.compiled.id_of.get(name)
        if op_id is None:
            raise KeyError(f"expected exactly one event named {name!r}, got 0")
        return self.event(op_id)

    def by_resource(self, key) -> list[TraceEvent]:
        slot = self.compiled.slot_of.get(key)
        if slot is None:
            return []
        return [self.event(int(i)) for i in self.resource_sequence(slot)]

    def busy_time(self, key) -> float:
        """``Trace.busy_time(key)``, bit-identical (0.0 for unknown keys)."""
        slot = self.compiled.slot_of.get(key)
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
    """

    def __init__(self, device_keys, mem_rows):
        super().__init__()
        self._pending = (device_keys, mem_rows)

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
        return super().devices()

    def _materialize(self, device):
        self._thaw()
        return super()._materialize(device)

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
        for a, b in zip(starts.tolist(), stops.tolist()):
            key = device_keys[int(dev_s[a])]
            out[key] = float(np.cumsum(val_s[a:b]).max(initial=0.0))
        return dict(sorted(out.items(), key=lambda kv: str(kv[0])))


def run_compiled(cg: CompiledTaskGraph):
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
        runner = _BatchRunner(cg, True, track)
        order, ends, mem_rows, _ = runner.run(cg.durations.tolist())
        trace = ColumnarTrace(cg, order, ends)
        memory = ColumnarMemoryTimeline(cg.device_keys, mem_rows)
        result = SimulationResult(
            makespan=trace.makespan(), trace=trace, memory=memory
        )
    if track:
        _record_loop_histograms(runner)
    return result

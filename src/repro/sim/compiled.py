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

Traces and memory deltas are recorded into columnar buffers;
:class:`ColumnarTrace` / :class:`ColumnarMemoryTimeline` materialize the
classic :class:`~repro.sim.trace.TraceEvent` objects and per-device delta
lists lazily, on first access.
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
    """A :class:`~repro.sim.trace.Trace` backed by columnar buffers.

    Event rows arrive as two parallel columns — op id and end time, in
    completion order, one plain append each in the hot loop; the ``starts``
    column is derived as ``end - duration`` (numpy, elementwise) — exactly
    the expression the reference engine evaluates per event.
    :class:`~repro.sim.trace.TraceEvent` objects are materialized lazily,
    on first access of :attr:`events` or per row from :meth:`find`, which
    answers from the compiled name index in O(1) instead of scanning.
    :meth:`by_resource` reuses the base class's lazily-built per-resource
    index.
    """

    def __init__(self, compiled: CompiledTaskGraph, order, ends,
                 durations=None) -> None:
        # Deliberately does not call Trace.__init__: ``events`` is a lazy
        # property here, not an eagerly-filled list.
        self._compiled = compiled
        self._order = order
        self._ends_list = ends
        # Per-scenario duration override (batched runs): the compiled
        # graph's column describes the clean graph, not the row simulated.
        self._durations = durations
        self._events: list[TraceEvent] | None = None
        self._event_cache: dict[int, TraceEvent] = {}
        self._op_to_event: dict[int, int] | None = None
        self._starts: list[float] | None = None
        # Completion times are emitted in non-decreasing order, so the
        # makespan is simply the last row's end.
        self._makespan = ends[-1] if ends else 0.0
        self._name_idx = None
        self._res_idx = None
        self._mutated = False

    def _cols(self) -> tuple[list[int], list[float]]:
        return self._order, self._ends_list

    def _starts_col(self) -> list[float]:
        if self._starts is None:
            order, ends = self._cols()
            dur = self._durations
            if dur is None:
                dur = self._compiled.durations
            starts = np.asarray(ends, dtype=np.float64)
            starts = starts - np.asarray(dur, dtype=np.float64)[
                np.asarray(order, dtype=np.int64)
            ]
            self._starts = starts.tolist()
        return self._starts

    def _event(self, k: int) -> TraceEvent:
        ev = self._event_cache.get(k)
        if ev is None:
            order, ends = self._cols()
            op = self._compiled.ops[order[k]]
            ev = TraceEvent(
                name=op.name,
                start=self._starts_col()[k],
                end=ends[k],
                resources=op.resources,
                tags=op.tags,
            )
            self._event_cache[k] = ev
        return ev

    @property
    def events(self) -> list[TraceEvent]:
        if self._events is None:
            self._events = [self._event(k) for k in range(len(self._order))]
        return self._events

    def add(self, event: TraceEvent) -> None:
        # Rare post-run mutation: materialize, then behave like a plain
        # Trace (columnar fast paths disable themselves via ``_mutated``).
        self.events
        self._mutated = True
        super().add(event)

    def iter_rows(self):
        if self._mutated:
            yield from super().iter_rows()
            return
        ops = self._compiled.ops
        starts = self._starts_col()
        order, ends = self._cols()
        for k, end in enumerate(ends):
            op = ops[order[k]]
            yield op.name, starts[k], end, op.resources, op.tags

    def find(self, name: str) -> TraceEvent:
        if self._mutated:
            return super().find(name)
        op_id = self._compiled.id_of.get(name)
        if op_id is None:
            raise KeyError(f"expected exactly one event named {name!r}, got 0")
        if self._op_to_event is None:
            order, _ = self._cols()
            self._op_to_event = {i: k for k, i in enumerate(order)}
        return self._event(self._op_to_event[op_id])

    def busy_totals(self) -> dict | None:
        """Per-resource busy time, vectorized; ``None`` once mutated.

        Bit-identical to summing event widths in ``iter_rows`` order (the
        accumulation :func:`repro.sim.engine._record_sim_metrics` performs):
        ``np.add.at`` applies additions sequentially, and the incidence
        entries are expanded op-major in completion order — the same
        left-to-right sum per resource.
        """
        if self._mutated:
            return None
        cg = self._compiled
        order, ends = self._cols()
        if not order:
            return {}
        ops_e, res_e = cg.res_incidence
        # Event index (completion position) of each incidence entry; numpy
        # argsort(stable) over it reproduces the python loop's visit order.
        order_a = np.asarray(order, dtype=np.int64)
        pos = np.empty(cg.num_ops, dtype=np.int64)
        pos[order_a] = np.arange(len(order), dtype=np.int64)
        entry_pos = pos[ops_e]
        sort_idx = np.argsort(entry_pos, kind="stable")
        # Width of each event, ``end - start``.  ``start`` is defined as
        # ``end - duration`` (see ``_starts_col``), so the width must be
        # computed as the round-trip ``end - (end - duration)`` — NOT as
        # ``duration`` directly — to stay bit-equal to the per-event
        # subtraction the scalar accumulation performs.
        dur = self._durations
        if dur is None:
            dur = cg.durations
        ends_a = np.asarray(ends, dtype=np.float64)
        widths = ends_a - (
            ends_a - np.asarray(dur, dtype=np.float64)[order_a]
        )
        busy = np.zeros(cg.num_resources, dtype=np.float64)
        np.add.at(busy, res_e[sort_idx], widths[entry_pos[sort_idx]])
        keys = cg.resource_keys
        # Resources actually touched: bincount+flatnonzero gives the same
        # set as np.unique(res_e) (sorted ascending) at a fraction of the
        # cost on this scale of incidence column.
        seen = np.flatnonzero(np.bincount(res_e, minlength=cg.num_resources))
        return {keys[int(r)]: float(busy[int(r)]) for r in seen}


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

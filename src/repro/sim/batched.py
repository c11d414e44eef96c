"""The simulator's event loop, run over one or many duration rows.

:class:`_BatchRunner` is the only production event loop.  It executes the
indexed columns of a :class:`~repro.sim.engine.TaskGraph` with a *waiter
heap per resource slot*: an op found blocked at dispatch time parks on the first
busy resource it needs, and a completion event only promotes the best
waiter of each resource it just freed (plus newly-woken successors) —
unlike the reference loop in :mod:`repro.check.reference`, which drains
and re-pushes its entire ready heap on every completion (O(ready set) per
event, quadratic under contention).

The dispatch invariant that makes the waiter heaps *exact* (not merely a
heuristic) is:

* within one dispatch pass resources are only acquired, never released, so
  an op blocked before the pass on a resource that was not freed by this
  event cannot possibly start during it;
* a parked op's registered resource is busy at registration time, so the op
  cannot become runnable before that resource is freed;
* at most one waiter per *free* resource sits in the candidate heap at a
  time, and it is always that queue's (priority, seq) minimum: when a
  resource is freed its best waiter is promoted, and whenever a promoted
  candidate parks on a *different* resource while its source is still free,
  the source's next-best waiter is promoted in its place.  A queue stops
  being drained only when its resource is re-acquired (nobody else parked
  there could start anyway) or the queue empties — so every op the
  reference greedy pass would start is considered, in the same order.

Candidates are ordered by the same ``(priority, submission-seq)`` key as the
reference ready heap, and the submission sequence is assigned at the same
points (graph order for roots, wake order for successors), so event order,
makespans, and memory timelines are **bit-identical** to the reference
loop — enforced by ``tests/sim/test_compiled_equivalence.py``.

A single run (:func:`repro.sim.compiled.run_compiled`) is one row.
Monte-Carlo fault ensembles (:mod:`repro.faults`) simulate the *same* graph
many times, varying only the duration column; :func:`run_batched` advances
every scenario through shared loop state:

* **Scenario-major layout** — durations arrive as one ``(S, ops)`` float64
  matrix; row ``s`` is scenario ``s``'s duration column.  All structural
  columns (adjacency, resource slots, priorities, memory effects, the
  pre-sorted root set) are read once from the graph and reused
  by every row, as are the per-resource waiter heaps and busy flags (both
  drain back to empty when a scenario completes, so reuse is free).
* **Row dedup** — scenarios whose duration rows are bytewise identical share
  one simulation (common when a fault model's draw misses the graph).
* **Incremental re-simulation** — while simulating the baseline row the
  runner snapshots its full dispatch state at a few op-count milestones
  (snapshots are only taken at dispatch-pass boundaries, where the fresh
  list and candidate heap are both empty, so the saved state is complete).
  A later scenario that differs from the baseline only in ops that start
  *after* a snapshot's clock replays from that snapshot instead of t=0:
  durations only influence the simulation from the moment a changed op is
  dispatched, so every event up to the snapshot is bit-identical to the
  baseline's and its trace prefix can be sliced instead of recomputed.
  Scenarios that perturb early ops fall back to a full per-scenario run —
  same results, no savings.

Every scenario's makespan, trace, and memory timeline is bit-identical to
:func:`repro.sim.compiled.run_compiled` on a graph rebuilt with that row —
enforced by ``tests/sim/test_batched_equivalence.py`` and the
``repro check`` oracles.

Observability is pre-aggregated: the loop appends per-timestamp completion
batch sizes and waiter depths (an O(1) incremental counter, not an O(R)
scan) to plain lists, and records them with one bulk
:meth:`~repro.obs.metrics.Histogram.observe_many` call per run or batch —
this is what brings obs-enabled simulation overhead under 20%.
"""

from __future__ import annotations

import contextlib
import gc
import heapq

import numpy as np

import repro.obs as obs
from repro.sim.compiled import ColumnarMemoryTimeline, ColumnarTrace
from repro.sim.trace import PHASE_END, PHASE_START

__all__ = [
    "run_batched",
    "BatchedSimulation",
    "DEFAULT_SNAPSHOTS",
]

#: Dispatch-state snapshots taken along the baseline scenario for the
#: incremental fast path.
DEFAULT_SNAPSHOTS = 8

#: Below this op count a full re-run is cheaper than snapshot bookkeeping.
_INCREMENTAL_MIN_OPS = 512

#: Histogram buckets of the loop's per-timestamp samples.
_WAITER_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128)
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


class _Snapshot:
    """Complete dispatch state at one pass boundary of the baseline run.

    Captured only where the fresh list and candidate heap are both empty, so
    (busy, waiters, pred_left, completion calendar, clock, seq counter) plus
    the trace/memory prefix lengths fully determine the rest of the run.
    """

    __slots__ = (
        "now", "busy", "waiters", "pred_left", "bucket", "times",
        "seq", "olen", "mlen", "parked",
    )

    def __init__(self, now, busy, waiters, pred_left, bucket, times,
                 seq, olen, mlen, parked):
        self.now = now
        self.busy = busy
        self.waiters = waiters
        self.pred_left = pred_left
        self.bucket = bucket
        self.times = times
        self.seq = seq
        self.olen = olen
        self.mlen = mlen
        self.parked = parked


class _BatchRunner:
    """Shared per-graph loop state, reused across scenario rows.

    Busy flags and waiter heaps are owned by the runner: both are empty
    again after every successful run (every op completes, every parked op is
    eventually promoted), so consecutive scenarios pay zero re-allocation.
    A failed run (cycle/deadlock) leaves them dirty — the exception aborts
    the whole batch, so the runner is never reused after one.
    """

    def __init__(self, graph, record_memory: bool, track: bool):
        self.graph = graph
        n = graph.num_ops
        prio = self.prio = graph.priorities
        self.succ = graph.succ_ids
        self.res = graph.res_slots
        self.record_memory = record_memory
        if record_memory:
            self.mem_start = graph.mem_start
            self.mem_end = graph.mem_end
        else:
            # All-empty effect columns: the loop's ``if ms:`` guards never
            # fire, so skipping memory costs nothing extra per op.
            self.mem_start = self.mem_end = [()] * n
        pred0 = self.pred0 = list(graph.indegree)
        self.busy = [False] * graph.num_resources
        self.waiters: list[list] = [[] for _ in range(graph.num_resources)]
        # Roots as (priority, seq, id) tuples — seq assigned in graph
        # order, the reference's submission order — pre-sorted once.
        roots = []
        seq = 0
        for i in range(n):
            if not pred0[i]:
                roots.append((prio[i], seq, i))
                seq += 1
        roots.sort()
        self.roots = roots
        self.root_seq = seq
        # Obs pre-aggregation, bulk-recorded by _record_loop_histograms.
        self.batch_sizes: list | None = [] if track else None
        self.depths: list | None = [] if track else None

    def run(self, dur, thresholds=None, resume=None, base=None):
        """Simulate one duration row; returns (order, ends, mem, snapshots).

        ``thresholds`` (op-count milestones) requests snapshots along this
        run; ``resume`` replays from a prior run's snapshot, with ``base``
        supplying the (order, ends, mem) columns to slice the prefix from.
        """
        n = self.graph.num_ops
        prio = self.prio
        succ = self.succ
        res = self.res
        mem_start = self.mem_start
        mem_end = self.mem_end
        busy = self.busy
        waiters = self.waiters
        heappush = heapq.heappush
        heappop = heapq.heappop
        P_START = PHASE_START
        P_END = PHASE_END
        batch_sizes = self.batch_sizes
        depths = self.depths
        track = depths is not None

        if resume is None:
            pred_left = self.pred0[:]
            order_col: list[int] = []
            ends_col: list[float] = []
            mem_rows: list[tuple] = []
            fresh = self.roots[:]
            seq = self.root_seq
            run_bucket: dict = {}
            run_times: list[float] = []
            now = 0.0
            parked = 0
        else:
            base_order, base_ends, base_mem = base
            pred_left = resume.pred_left[:]
            order_col = base_order[:resume.olen]
            ends_col = base_ends[:resume.olen]
            mem_rows = base_mem[:resume.mlen] if self.record_memory else []
            busy[:] = resume.busy
            for r, w in enumerate(resume.waiters):
                if w:
                    waiters[r][:] = w
            fresh = []
            seq = resume.seq
            run_bucket = {t: b[:] for t, b in resume.bucket.items()}
            run_times = resume.times[:]
            now = resume.now
            parked = resume.parked

        add_ord = order_col.append
        add_end = ends_col.append
        add_mem = mem_rows.append
        add_fresh = fresh.append
        cand: list = []
        get_bucket = run_bucket.get
        snaps: list[_Snapshot] = []
        ti = 0

        # Freshly-woken ops go to the plain ``fresh`` list — (priority,
        # seq, op id), seq assigned at wake time.  Each dispatch pass sorts
        # it once and merge-walks it against the candidate heap ``cand``,
        # which holds only *promoted waiters* as (priority, seq, op id,
        # source slot): ``source`` is the resource slot whose waiter queue
        # produced the candidate — if it parks elsewhere while its source is
        # still free, the source's next waiter is promoted so the queue's
        # minimum stays represented.  The completion calendar is a heap of
        # *distinct* end times plus a bucket of (seq, op id) pairs per time:
        # ops complete in large batches at shared timestamps, so one heap
        # operation is amortized over a whole batch.
        while True:
            # Dispatch pass: start candidates in (priority, seq) order; park
            # blocked ones on the first busy resource they need.
            fn = len(fresh)
            if fn > 1:
                fresh.sort()
            fi = 0
            while True:
                if fi < fn:
                    f = fresh[fi]
                    if cand:
                        c0 = cand[0]
                        fp = f[0]
                        if c0[0] < fp or (c0[0] == fp and c0[1] < f[1]):
                            pr, sq, i, src = heappop(cand)
                        else:
                            pr, sq, i = f
                            src = -1
                            fi += 1
                    else:
                        pr, sq, i = f
                        src = -1
                        fi += 1
                elif cand:
                    pr, sq, i, src = heappop(cand)
                else:
                    break
                # The resource column is shape-specialized: a bare int (the
                # common single-resource op) skips tuple iteration; None
                # means no resources at all.
                rs = res[i]
                if type(rs) is int:
                    if busy[rs]:
                        heappush(waiters[rs], (pr, sq, i))
                        parked += 1
                        # The candidate left its source queue without
                        # acquiring it: promote that queue's next waiter.
                        if src >= 0 and not busy[src]:
                            w = waiters[src]
                            if w:
                                wp, ws, wi = heappop(w)
                                parked -= 1
                                heappush(cand, (wp, ws, wi, src))
                        continue
                    busy[rs] = True
                elif rs is not None:
                    r_blocked = -1
                    for r in rs:
                        if busy[r]:
                            r_blocked = r
                            break
                    if r_blocked >= 0:
                        heappush(waiters[r_blocked], (pr, sq, i))
                        parked += 1
                        if src >= 0 and not busy[src]:
                            w = waiters[src]
                            if w:
                                wp, ws, wi = heappop(w)
                                parked -= 1
                                heappush(cand, (wp, ws, wi, src))
                        continue
                    for r in rs:
                        busy[r] = True
                ms = mem_start[i]
                if ms:
                    add_mem((now, P_START, ms))
                end = now + dur[i]
                b = get_bucket(end)
                if b is None:
                    run_bucket[end] = [(sq, i)]
                    heappush(run_times, end)
                else:
                    b.append((sq, i))
            del fresh[:]

            if thresholds is not None and ti < len(thresholds):
                oc = len(order_col)
                if oc >= thresholds[ti]:
                    if oc < n:
                        snaps.append(_Snapshot(
                            now, busy[:], [w[:] for w in waiters],
                            pred_left[:],
                            {t: b[:] for t, b in run_bucket.items()},
                            run_times[:], seq, oc, len(mem_rows), parked,
                        ))
                    while ti < len(thresholds) and thresholds[ti] <= oc:
                        ti += 1

            if not run_times:
                break
            now = heappop(run_times)
            # Drain every completion at this instant before dispatching, so
            # resources freed simultaneously are all visible; seq order
            # restores the reference's tie-break.
            batch = run_bucket.pop(now)
            if track:
                # Pre-aggregate per distinct timestamp: the waiter depth is
                # an incrementally-maintained counter, not an O(R) scan, and
                # both series are histogram-recorded in bulk after the batch.
                batch_sizes.append(len(batch))
                depths.append(parked)
            batch.sort()
            for sq, i in batch:
                rs = res[i]
                if type(rs) is int:
                    busy[rs] = False
                    w = waiters[rs]
                    if w:
                        wp, ws, wi = heappop(w)
                        parked -= 1
                        heappush(cand, (wp, ws, wi, rs))
                elif rs is not None:
                    for r in rs:
                        busy[r] = False
                        w = waiters[r]
                        if w:
                            wp, ws, wi = heappop(w)
                            parked -= 1
                            heappush(cand, (wp, ws, wi, r))
                me = mem_end[i]
                if me:
                    add_mem((now, P_END, me))
                add_ord(i)
                add_end(now)
                for s in succ[i]:
                    c = pred_left[s] - 1
                    pred_left[s] = c
                    if not c:
                        add_fresh((prio[s], seq, s))
                        seq += 1

        if len(order_col) != n:
            # Cold path: tell a structural dependency cycle (the canonical
            # ValueError) from a genuine resource deadlock.
            indeg = list(self.pred0)
            queue = [i for i, d in enumerate(indeg) if not d]
            seen = 0
            while queue:
                u = queue.pop()
                seen += 1
                for v in succ[u]:
                    c = indeg[v] - 1
                    indeg[v] = c
                    if not c:
                        queue.append(v)
            if seen != n:
                raise ValueError("task graph contains a dependency cycle")
            ops = self.graph.ops()
            stuck = [ops[i].name for i in range(n) if pred_left[i] > 0]
            raise RuntimeError(
                f"simulation deadlocked: {n - len(order_col)} ops never ran "
                f"(first few blocked: {stuck[:5]})"
            )
        return order_col, ends_col, mem_rows, snaps


class BatchedSimulation:
    """Results of one :func:`run_batched` call over S scenarios.

    Holds the shared graph, the duration matrix, and per-scenario
    columnar (order, ends, memory) buffers — deduplicated scenarios alias
    the same buffers.  Per-scenario :class:`~repro.sim.compiled.ColumnarTrace`
    objects and the :class:`~repro.sim.engine.SimulationResult` wrapping
    them materialize lazily.
    """

    def __init__(self, graph, durations, orders, ends, mems, kinds):
        self.graph = graph
        #: The (S, ops) duration matrix actually simulated.
        self.durations = durations
        self._orders = orders
        self._ends = ends
        self._mems = mems
        #: Per-scenario provenance: "full", "reused", or "incremental".
        self.scenario_kinds = kinds
        #: Scenario makespans, index-aligned with the input rows.
        self.makespans = np.array(
            [e[-1] if e else 0.0 for e in ends], dtype=np.float64
        )
        self._views: dict[int, ColumnarTrace] = {}

    @property
    def num_scenarios(self) -> int:
        return len(self._orders)

    def makespan(self, s: int) -> float:
        """Scenario ``s``'s makespan as the native python float the per-seed
        path would report."""
        ends = self._ends[s]
        return ends[-1] if ends else 0.0

    def result(self, s: int):
        """Scenario ``s`` as a full SimulationResult over :meth:`view`."""
        from repro.sim.engine import SimulationResult

        if self._mems is None:
            raise RuntimeError(
                "run_batched(record_memory=False) keeps no memory timelines; "
                "use view()/makespan() or re-run with record_memory=True"
            )
        trace = self.view(s)
        memory = ColumnarMemoryTimeline(
            self.graph.device_keys, self._mems[s], self.graph.members
        )
        return SimulationResult(
            makespan=trace.makespan(), trace=trace, memory=memory
        )

    def view(self, s: int) -> ColumnarTrace:
        """Scenario ``s``'s trace; deduplicated scenarios share one trace
        (and therefore its lazily-computed derived arrays)."""
        key = id(self._ends[s])
        v = self._views.get(key)
        if v is None:
            v = self._views[key] = ColumnarTrace(
                self.graph, self._orders[s], self._ends[s],
                durations=self.durations[s],
            )
        return v


def run_batched(
    graph,
    durations,
    *,
    record_memory: bool = True,
    snapshots: int = DEFAULT_SNAPSHOTS,
) -> BatchedSimulation:
    """Simulate every row of a ``(S, ops)`` duration matrix over one graph.

    Row 0 is the *baseline*: it always runs in full and anchors both the
    dedup table and the incremental fast path (callers stacking perturbed
    rows under the clean duration column get maximal prefix sharing for
    free).  ``snapshots`` bounds how many dispatch-state snapshots the
    baseline records (0 disables the incremental path); ``record_memory=False``
    skips memory-timeline collection for analysis-only ensembles.

    Every scenario's (order, ends, memory) output is bit-identical to
    :func:`~repro.sim.compiled.run_compiled` on a graph rebuilt with that
    row's durations.
    """
    rows = np.asarray(durations, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(
            f"durations must be a (scenarios, ops) matrix, got shape {rows.shape}"
        )
    S, n = rows.shape
    if n != graph.num_ops:
        raise ValueError(
            f"duration matrix has {n} columns for {graph.num_ops} ops"
        )
    if S == 0:
        raise ValueError("need at least one scenario row")
    # min/max propagate NaN, so one pass each screens NaN, inf and < 0.
    if n and not (rows.min() >= 0.0 and rows.max() < np.inf):
        s, i = np.argwhere(~((rows >= 0.0) & (rows < np.inf)))[0]
        kind = "negative" if rows[s, i] < 0 else "non-finite"
        raise ValueError(
            f"perturbed duration for op {graph.ops()[int(i)].name!r} is {kind} "
            f"({rows[s, i]}) in scenario {s}"
        )
    track = obs.enabled()
    with _gc_paused(), obs.span("sim.run_batched", scenarios=S, ops=n):
        sim = _run_batch(graph, rows, record_memory, snapshots, track)
    if track:
        _record_batch_metrics(sim)
    return sim


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector (restored on exit): the event
    loop allocates millions of small tuples that can never form cycles, and
    generational scans over them cost ~30% of the run time on large graphs.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _record_loop_histograms(runner: "_BatchRunner") -> None:
    """One bulk histogram call per series for everything ``runner`` ran —
    the loop itself only did list appends."""
    obs.histogram(
        "sim.waiter_depth", buckets=_WAITER_BUCKETS
    ).observe_many(runner.depths)
    obs.histogram(
        "sim.completion_batch", buckets=_BATCH_BUCKETS
    ).observe_many(runner.batch_sizes)


def _run_batch(graph, rows, record_memory, snapshots, track) -> BatchedSimulation:
    n = graph.num_ops
    S = rows.shape[0]
    runner = _BatchRunner(graph, record_memory, track)

    thresholds = None
    if snapshots and S > 1 and n >= _INCREMENTAL_MIN_OPS:
        step = n // (snapshots + 1)
        if step > 0:
            thresholds = [step * k for k in range(1, snapshots + 1)]

    base_row = rows[0]
    order0, ends0, mem0, snaps = runner.run(
        base_row.tolist(), thresholds=thresholds
    )
    orders = [order0]
    ends = [ends0]
    mems = [mem0]
    kinds = ["full"]
    seen = {base_row.tobytes(): 0}

    start0 = None
    if S > 1 and snaps:
        # Baseline per-op start times gate snapshot validity: a snapshot at
        # clock t is replayable for a scenario iff every changed op starts
        # strictly after t in the baseline (so nothing divergent was
        # dispatched at or before the snapshot).
        order_arr = np.asarray(order0, dtype=np.int64)
        start0 = np.empty(n, dtype=np.float64)
        start0[order_arr] = np.asarray(ends0) - base_row[order_arr]

    for s in range(1, S):
        row = rows[s]
        key = row.tobytes()
        hit = seen.get(key)
        if hit is not None:
            orders.append(orders[hit])
            ends.append(ends[hit])
            mems.append(mems[hit])
            kinds.append("reused")
            continue
        snap = None
        if start0 is not None:
            changed = np.flatnonzero(row != base_row)
            if changed.size:
                t_star = float(start0[changed].min())
                for cs in reversed(snaps):
                    if cs.now < t_star:
                        snap = cs
                        break
        if snap is not None:
            o, e, m, _ = runner.run(
                row.tolist(), resume=snap, base=(order0, ends0, mem0)
            )
            kinds.append("incremental")
        else:
            o, e, m, _ = runner.run(row.tolist())
            kinds.append("full")
        seen[key] = s
        orders.append(o)
        ends.append(e)
        mems.append(m)

    if track:
        _record_loop_histograms(runner)

    return BatchedSimulation(
        graph, rows, orders, ends, mems if record_memory else None, tuple(kinds),
    )


def _record_batch_metrics(sim: BatchedSimulation) -> None:
    """Publish per-batch scenario provenance counters (obs enabled only)."""
    kinds = sim.scenario_kinds
    obs.counter("sim.batched_scenarios").inc(len(kinds))
    obs.counter("sim.batched_reused").inc(kinds.count("reused"))
    obs.counter("sim.batched_incremental").inc(kinds.count("incremental"))

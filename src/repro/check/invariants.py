"""Static conformance checks: does an execution obey DAPPLE's semantics?

Every claim the experiments rest on is restated here as a machine-checkable
invariant over a built :class:`~repro.sim.engine.TaskGraph` and the
:class:`~repro.sim.trace.Trace` / :class:`~repro.sim.trace.MemoryTimeline`
an engine produced from it:

* **Graph/trace soundness** (engine-agnostic, any DAG):
  every op executes exactly once with its declared duration, no successor
  starts before a predecessor ends, no two ops overlap on a resource, and
  the makespan is at least the analytical lower bound
  ``max(critical path, per-resource total work)``.
* **Pipeline semantics** (needs the plan/schedule context):
  the required data/control edges of the paper's graph construction
  (Fig. 10/11) are actually present, each stage's executed F/B order is a
  strict 1F1B interleave after exactly ``Ki`` warm-up forwards
  (``Ki = min(S−i, D)`` for PA, ``min(2(S−i)−1, D)`` for PB), peak device
  memory stays within the ``Ki``-derived bound (independent of ``M``), all
  activations are freed by the end (conservation), and every replicated
  stage's weight update is a synchronous barrier behind all its backwards.

Violations are collected — never raised mid-scan — into a
:class:`ConformanceReport` that names the offending op, stage, and
invariant, so one run reports every problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.obs as obs
from repro.schedules import (
    max_resident_micro_batches,
    validate_schedule,
    warmup_counts,
    warmup_prefix_length,
)

__all__ = [
    "Violation",
    "ConformanceReport",
    "ConformanceError",
    "check_simulation",
    "check_execution",
    "verify_execution",
]

#: Absolute slack for floating-point time/byte comparisons.
EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant, pinned to the op/stage/resource that broke it."""

    invariant: str
    message: str
    op: str | None = None
    stage: int | None = None
    resource: object = None

    def __str__(self) -> str:
        where = []
        if self.op is not None:
            where.append(f"op={self.op}")
        if self.stage is not None:
            where.append(f"stage={self.stage}")
        if self.resource is not None:
            where.append(f"resource={self.resource}")
        loc = f" [{', '.join(where)}]" if where else ""
        return f"{self.invariant}: {self.message}{loc}"


@dataclass
class ConformanceReport:
    """Outcome of one conformance scan: which invariants ran, what broke."""

    subject: str
    checks: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def ran(self, invariant: str) -> None:
        if invariant not in self.checks:
            self.checks.append(invariant)

    def merge(self, other: "ConformanceReport") -> "ConformanceReport":
        for c in other.checks:
            self.ran(c)
        self.violations.extend(other.violations)
        return self

    def render(self) -> str:
        head = (
            f"{self.subject}: {len(self.checks)} invariants checked, "
            f"{len(self.violations)} violation(s)"
        )
        if self.ok:
            return head
        return head + "\n" + "\n".join(f"  - {v}" for v in self.violations)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ConformanceError(self)


class ConformanceError(RuntimeError):
    """A conformance scan found violations; ``.report`` holds the details."""

    def __init__(self, report: ConformanceReport):
        super().__init__(report.render())
        self.report = report


# --------------------------------------------------------------------- #
# Engine-agnostic graph/trace checks
# --------------------------------------------------------------------- #
def _check_completeness(graph, rows, report: ConformanceReport) -> None:
    report.ran("completeness")
    seen: dict[str, int] = {}
    for name, _s, _e, _r, _t in rows:
        seen[name] = seen.get(name, 0) + 1
    for name in graph._order:
        n = seen.pop(name, 0)
        if n != 1:
            report.add(Violation(
                "completeness", f"op executed {n} times (expected once)", op=name
            ))
    for name, n in seen.items():
        report.add(Violation(
            "completeness", f"trace has {n} event(s) for an op not in the graph",
            op=name,
        ))


def _check_durations(graph, rows, report: ConformanceReport) -> None:
    report.ran("duration-fidelity")
    for name, start, end, _r, _t in rows:
        op = graph._ops.get(name)
        if op is None:
            continue  # flagged by completeness
        if abs((end - start) - op.duration) > EPS * max(1.0, op.duration):
            report.add(Violation(
                "duration-fidelity",
                f"traced duration {end - start!r} != declared {op.duration!r}",
                op=name,
            ))


def _check_dependencies(graph, trace, rows, report: ConformanceReport) -> None:
    report.ran("dependency-order")
    ends = {name: end for name, _s, end, _r, _t in rows}
    starts = {name: start for name, start, _e, _r, _t in rows}
    for before in graph._order:
        e = ends.get(before)
        if e is None:
            continue
        for after in graph._succ[before]:
            s = starts.get(after)
            if s is None:
                continue
            if s < e - EPS:
                report.add(Violation(
                    "dependency-order",
                    f"starts at {s} before predecessor {before!r} ends at {e}",
                    op=after,
                ))


def _check_resource_exclusivity(trace, report: ConformanceReport) -> None:
    report.ran("resource-exclusivity")
    busy: dict = {}
    for name, start, end, resources, _t in trace.iter_rows():
        for r in resources:
            busy.setdefault(r, []).append((start, end, name))
    for r, events in busy.items():
        events.sort()
        for (s1, e1, n1), (s2, _e2, n2) in zip(events, events[1:]):
            if s2 < e1 - EPS:
                report.add(Violation(
                    "resource-exclusivity",
                    f"overlaps {n1!r} (which runs [{s1}, {e1}))",
                    op=n2,
                    resource=r,
                ))
                break  # one violation per resource keeps the report readable


def _check_lower_bound(graph, makespan: float, report: ConformanceReport) -> None:
    report.ran("makespan-lower-bound")
    n = len(graph)
    if n == 0:
        return
    dur = graph._dur_col
    succ = graph._succ_ids
    indeg = list(graph._pred_n)
    order = [i for i, d in enumerate(indeg) if not d]
    finish = [0.0] * n
    for i in order:
        finish[i] = dur[i]
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        fi = finish[i]
        for j in succ[i]:
            cand = fi + dur[j]
            if cand > finish[j]:
                finish[j] = cand
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) != n:
        report.add(Violation(
            "makespan-lower-bound", "dependency graph contains a cycle"
        ))
        return
    critical = max(finish)
    work: dict = {}
    res_col = graph._res_col
    keys = graph._res_keys
    for i in range(n):
        slots = res_col[i]
        if slots is None:
            continue
        for s in (slots,) if isinstance(slots, int) else slots:
            work[s] = work.get(s, 0.0) + dur[i]
    bound = max(critical, max(work.values()) if work else 0.0)
    slack = EPS * max(1.0, makespan)
    if makespan < bound - slack:
        which = "critical path" if bound == critical else "per-resource work"
        report.add(Violation(
            "makespan-lower-bound",
            f"makespan {makespan} < analytical lower bound {bound} ({which})",
            resource=None if bound == critical else keys[max(work, key=work.get)],
        ))


def check_simulation(graph, result, subject: str = "simulation") -> ConformanceReport:
    """Engine-agnostic soundness checks on one simulated run.

    Verifies completeness, duration fidelity, dependency order, resource
    exclusivity, and the analytical makespan lower bound — everything that
    can be checked without knowing the graph came from a pipeline.  This is
    the scan ``Simulator.run(validate=True)`` performs.
    """
    report = ConformanceReport(subject=subject)
    rows = list(result.trace.iter_rows())
    _check_completeness(graph, rows, report)
    _check_durations(graph, rows, report)
    _check_dependencies(graph, result.trace, rows, report)
    _check_resource_exclusivity(result.trace, report)
    _check_lower_bound(graph, result.makespan, report)
    return report


# --------------------------------------------------------------------- #
# Pipeline-semantics checks (plan/schedule context required)
# --------------------------------------------------------------------- #
def _edge_set(graph) -> set:
    return {
        (before, after)
        for before in graph._order
        for after in graph._succ[before]
    }


def _require(edges: set, before: str, after: str, stage: int,
             report: ConformanceReport) -> None:
    if (before, after) not in edges:
        report.add(Violation(
            "structure",
            f"required dependency edge {before!r} -> {after!r} is missing",
            op=after,
            stage=stage,
        ))


def _split_sets(schedule) -> list[set[int]]:
    """Per stage: micro-batches whose backward is split into BI/BW."""
    return [
        {t.micro_batch for t in tasks if t.kind == "BI"} for tasks in schedule
    ]


def _check_structure(graph, plan, schedule, report: ConformanceReport,
                     prefix: str = "") -> None:
    """The executor's graph construction (paper Fig. 10/11) edge-by-edge.

    Schedule-generic: for split backwards the gradient chain runs through
    ``BI`` (F→BI, BI→BW, sendback wired to BI) and the AllReduce barrier
    through the releasing ``BW``.
    """
    report.ran("structure")
    edges = _edge_set(graph)
    m = plan.num_micro_batches
    split = _split_sets(schedule)

    def grad(i: int, mb: int) -> str:
        return "BI" if mb in split[i] else "B"

    def release(i: int, mb: int) -> str:
        return "BW" if mb in split[i] else "B"

    for i, stage in enumerate(plan.stages):
        # Control chains: consecutive schedule entries per replica.
        for r in range(stage.replicas):
            names = [
                f"{prefix}{t.kind}/s{i}/m{t.micro_batch}/r{r}" for t in schedule[i]
            ]
            for a, b in zip(names, names[1:]):
                _require(edges, a, b, i, report)
        # Stored activations: F -> backward of the same micro-batch
        # (F -> BI plus BI -> BW when the backward is split).
        for mb in range(m):
            gk = grad(i, mb)
            for r in range(stage.replicas):
                _require(
                    edges,
                    f"{prefix}F/s{i}/m{mb}/r{r}",
                    f"{prefix}{gk}/s{i}/m{mb}/r{r}",
                    i,
                    report,
                )
                if gk == "BI":
                    _require(
                        edges,
                        f"{prefix}BI/s{i}/m{mb}/r{r}",
                        f"{prefix}BW/s{i}/m{mb}/r{r}",
                        i,
                        report,
                    )
    # Cross-stage transfers: F -> send -> F_next and the mirrored gradient
    # chain grad_next -> sendback -> grad.
    for i in range(plan.num_stages - 1):
        src, dst = plan.stages[i], plan.stages[i + 1]
        for mb in range(m):
            send = f"{prefix}send/s{i}/m{mb}"
            back = f"{prefix}sendback/s{i}/m{mb}"
            for r in range(src.replicas):
                _require(edges, f"{prefix}F/s{i}/m{mb}/r{r}", send, i, report)
                _require(
                    edges, back, f"{prefix}{grad(i, mb)}/s{i}/m{mb}/r{r}", i, report
                )
            for r in range(dst.replicas):
                _require(edges, send, f"{prefix}F/s{i+1}/m{mb}/r{r}", i + 1, report)
                _require(
                    edges,
                    f"{prefix}{grad(i + 1, mb)}/s{i+1}/m{mb}/r{r}",
                    back,
                    i + 1,
                    report,
                )
    # Gradient AllReduce barrier inputs (weight gradients exist once the
    # releasing backward — B, or BW when split — has run).
    for i, stage in enumerate(plan.stages):
        if stage.replicas < 2:
            continue
        ar = f"{prefix}allreduce/s{i}"
        if ar not in graph:
            report.add(Violation(
                "weight-sync",
                f"replicated stage has no AllReduce op {ar!r}",
                stage=i,
            ))
            continue
        for mb in range(m):
            for r in range(stage.replicas):
                _require(
                    edges, f"{prefix}{release(i, mb)}/s{i}/m{mb}/r{r}", ar, i, report
                )


def _schedule_kind_name(kind: str) -> str:
    """Canonical registry name of a schedule-kind spec ("1f1b" -> "dapple")."""
    from repro.schedules.registry import parse_schedule_spec

    try:
        name, _params = parse_schedule_spec(kind)
    except ValueError:
        return kind
    return name


def _check_schedule_shape(schedule, plan, kind: str, warmup_policy: str,
                          max_in_memory: int, report: ConformanceReport) -> None:
    """Schedule-level semantics: completeness, warm-up counts, stream shape.

    ``kind`` may be any registry spec ("dapple", "gpipe", "interleaved:v=2",
    "zb2bp:w=0.4", ...); shape checks dispatch on the canonical name.
    """
    m = plan.num_micro_batches
    s_count = plan.num_stages
    report.ran("schedule-valid")
    try:
        validate_schedule(schedule, m)
    except ValueError as e:
        report.add(Violation("schedule-valid", str(e)))
        return

    name = _schedule_kind_name(kind)

    if name == "gpipe":
        report.ran("gpipe-shape")
        for i, tasks in enumerate(schedule):
            kinds = [t.kind for t in tasks]
            if kinds != ["F"] * m + ["B"] * m:
                report.add(Violation(
                    "gpipe-shape",
                    "schedule is not all-forwards-then-all-backwards",
                    stage=i,
                ))
        return

    if name == "interleaved":
        # Per-virtual-stage streams have no fixed local template (their
        # shape is induced by the device-level interleave); require FIFO
        # issue order per stream — the per-virtual-stage legality the IR
        # guarantees beyond validate_schedule.
        report.ran("interleave-fifo")
        for i, tasks in enumerate(schedule):
            fs = [t.micro_batch for t in tasks if t.kind == "F"]
            bs = [t.micro_batch for t in tasks if t.kind in ("B", "BI")]
            if fs != sorted(fs) or bs != sorted(bs):
                report.add(Violation(
                    "interleave-fifo",
                    "micro-batches are not issued in FIFO order",
                    stage=i,
                ))
        return

    if name == "zb2bp":
        report.ran("warmup-count")
        report.ran("zb2bp-shape")
        expected = warmup_counts(s_count, m, policy=warmup_policy,
                                 max_in_memory=max_in_memory)
        for i, tasks in enumerate(schedule):
            k = warmup_prefix_length(tasks)
            if k != expected[i]:
                report.add(Violation(
                    "warmup-count",
                    f"warm-up prefix has {k} forwards, policy "
                    f"{warmup_policy} expects Ki={expected[i]} "
                    f"(S={s_count}, M={m}, D={max_in_memory})",
                    stage=i,
                ))
            # Steady state runs BI,BW,F triples (inline BW keeps residency
            # at Ki); the cooldown drains all remaining BI first — they
            # alone gate the upstream gradient chain — then the deferred
            # BW fill the tail bubble.
            body = [t.kind for t in tasks[k:]]
            n_f_left = m - k
            want = (
                ["BI", "BW", "F"] * n_f_left
                + ["BI"] * (m - n_f_left)
                + ["BW"] * (m - n_f_left)
            )
            if body != want:
                report.add(Violation(
                    "zb2bp-shape",
                    f"tail after {k} warm-up forwards is not the "
                    "BI/BW/F steady state with a BI-first cooldown",
                    stage=i,
                ))
            if max_resident_micro_batches(tasks) > expected[i]:
                report.add(Violation(
                    "zb2bp-shape",
                    f"{max_resident_micro_batches(tasks)} micro-batches live "
                    f"at once exceeds the warm-up bound Ki={expected[i]}",
                    stage=i,
                ))
        return

    report.ran("warmup-count")
    report.ran("1f1b-interleave")
    expected = warmup_counts(s_count, m, policy=warmup_policy,
                             max_in_memory=max_in_memory)
    for i, tasks in enumerate(schedule):
        k = warmup_prefix_length(tasks)
        if k != expected[i]:
            report.add(Violation(
                "warmup-count",
                f"warm-up prefix has {k} forwards, policy "
                f"{warmup_policy} expects Ki={expected[i]} "
                f"(S={s_count}, M={m}, D={max_in_memory})",
                stage=i,
            ))
        # Strict 1F1B after warm-up: alternate B,F while forwards remain,
        # then drain with backwards only; F and B each issue in FIFO order.
        fs = [t.micro_batch for t in tasks if t.kind == "F"]
        bs = [t.micro_batch for t in tasks if t.kind == "B"]
        if fs != sorted(fs) or bs != sorted(bs):
            report.add(Violation(
                "1f1b-interleave",
                "micro-batches are not issued in FIFO order",
                stage=i,
            ))
        body = [t.kind for t in tasks[k:]]
        n_f_left = m - k
        want = ["B", "F"] * n_f_left + ["B"] * (m - n_f_left)
        if body != want:
            report.add(Violation(
                "1f1b-interleave",
                f"tail after {k} warm-up forwards is not a strict "
                "one-backward-one-forward interleave",
                stage=i,
            ))
        if max_resident_micro_batches(tasks) > expected[i]:
            report.add(Violation(
                "1f1b-interleave",
                f"{max_resident_micro_batches(tasks)} micro-batches live at "
                f"once exceeds the warm-up bound Ki={expected[i]}",
                stage=i,
            ))


def _replica_of(name: str) -> int:
    return int(name.rsplit("/r", 1)[1])


def _check_trace_order(trace, plan, schedule, report: ConformanceReport) -> None:
    """The executed compute-task order per stage replica equals the schedule."""
    report.ran("trace-schedule-order")
    per_replica: dict[tuple[int, int], list] = {}
    for name, start, end, _res, tags in trace.iter_rows():
        kind = tags.get("kind")
        if kind not in ("F", "B", "BI", "BW"):
            continue
        key = (tags["stage"], _replica_of(name))
        per_replica.setdefault(key, []).append((start, end, kind, tags["mb"]))
    for i, tasks in enumerate(schedule):
        want = [(t.kind, t.micro_batch) for t in tasks]
        replicas = plan.stages[i].replicas
        for r in range(replicas):
            got = sorted(per_replica.get((i, r), []))
            got_seq = [(kind, mb) for _s, _e, kind, mb in got]
            if got_seq != want:
                first_bad = next(
                    (pos for pos, (a, b) in enumerate(zip(got_seq, want)) if a != b),
                    min(len(got_seq), len(want)),
                )
                bad = got_seq[first_bad] if first_bad < len(got_seq) else None
                report.add(Violation(
                    "trace-schedule-order",
                    f"replica {r} executed {got_seq[:first_bad + 1][-3:]} "
                    f"diverging from the schedule at position {first_bad} "
                    f"(expected {want[first_bad] if first_bad < len(want) else None})",
                    op=(f"{bad[0]}/s{i}/m{bad[1]}/r{r}" if bad else None),
                    stage=i,
                ))


def _check_bw_order(trace, report: ConformanceReport) -> None:
    """Split backwards execute grad-input before grad-weight per micro-batch.

    A no-op for schedules without BI/BW tasks; for 2BP streams it pins the
    B-before-W ordering at the *trace* level (the graph-level BI→BW edge is
    checked by ``structure``).
    """
    report.ran("bw-order")
    bi_end: dict[tuple, float] = {}
    bw_start: dict[tuple, float] = {}
    for name, start, end, _res, tags in trace.iter_rows():
        kind = tags.get("kind")
        if kind not in ("BI", "BW"):
            continue
        key = (tags["stage"], tags["mb"], _replica_of(name))
        if kind == "BI":
            bi_end[key] = end
        else:
            bw_start[key] = start
    for key, start in bw_start.items():
        stage, mb, r = key
        if key not in bi_end:
            report.add(Violation(
                "bw-order",
                "grad-weight phase ran without a grad-input phase",
                op=f"BW/s{stage}/m{mb}/r{r}",
                stage=stage,
            ))
        elif start < bi_end[key] - EPS:
            report.add(Violation(
                "bw-order",
                f"BW starts at {start} before BI ends at {bi_end[key]}",
                op=f"BW/s{stage}/m{mb}/r{r}",
                stage=stage,
            ))
    for key in bi_end:
        if key not in bw_start:
            stage, mb, r = key
            report.add(Violation(
                "bw-order",
                "grad-input phase has no matching grad-weight phase",
                op=f"BI/s{stage}/m{mb}/r{r}",
                stage=stage,
            ))


def _check_ir_high_water(pipe_schedule, report: ConformanceReport) -> None:
    """The IR's declared residency high-water matches its task streams.

    ``memory-bound`` then ties the same number to the simulated memory
    timeline, so the IR's :meth:`memory_high_water` declaration, the task
    streams, and the runtime cannot drift apart silently.
    """
    report.ran("ir-high-water")
    declared = pipe_schedule.memory_high_water()
    for i, tasks in enumerate(pipe_schedule.streams()):
        actual = max_resident_micro_batches(tasks)
        if declared[i] != actual:
            report.add(Violation(
                "ir-high-water",
                f"IR declares {declared[i]} resident micro-batches but the "
                f"stream peaks at {actual}",
                stage=i,
            ))


def _check_memory(memory, plan, stage_mem, schedule,
                  report: ConformanceReport) -> None:
    """Peak ≤ Ki-derived bound per device; all activations freed at the end.

    The bound — ``persistent + Ki·per_microbatch + transient`` summed over
    the stages a device hosts — depends only on the warm-up depth, never on
    ``M``: that is DAPPLE's §III-B memory claim, restated per device.
    """
    report.ran("memory-bound")
    report.ran("memory-conservation")
    bound: dict = {}
    persistent: dict = {}
    for i, stage in enumerate(plan.stages):
        sm = stage_mem[i]
        k = max_resident_micro_batches(schedule[i])
        contrib = sm.persistent_bytes + k * sm.per_microbatch_bytes \
            + sm.transient_backward_bytes
        for d in stage.devices:
            bound[d.resource_key] = bound.get(d.resource_key, 0.0) + contrib
            persistent[d.resource_key] = (
                persistent.get(d.resource_key, 0.0) + sm.persistent_bytes
            )
    for dev in memory.devices():
        if dev not in bound:
            report.add(Violation(
                "memory-bound",
                "memory recorded on a device no stage is placed on",
                resource=dev,
            ))
            continue
        peak = memory.peak(dev)
        limit = bound[dev]
        if peak > limit + EPS * max(1.0, limit):
            report.add(Violation(
                "memory-bound",
                f"peak {peak:.3e} B exceeds the Ki-derived bound {limit:.3e} B",
                resource=dev,
            ))
        final = memory.final(dev)
        keep = persistent[dev]
        if abs(final - keep) > EPS * max(1.0, keep):
            report.add(Violation(
                "memory-conservation",
                f"final live bytes {final:.3e} != persistent state {keep:.3e} "
                "(activations leaked or over-freed)",
                resource=dev,
            ))


def _check_weight_sync(graph, trace, plan, report: ConformanceReport,
                       prefix: str = "") -> None:
    """AllReduce of a replicated stage is a barrier behind all its backwards."""
    report.ran("weight-sync")
    b_end: dict[int, float] = {}
    ar_start: dict[int, float] = {}
    for _name, start, end, _res, tags in trace.iter_rows():
        stage = tags.get("stage")
        if stage is None:
            continue
        kind = tags.get("kind")
        if kind in ("B", "BW"):
            # BW carries the weight gradients when the backward is split.
            b_end[stage] = max(b_end.get(stage, 0.0), end)
        elif kind == "AR":
            ar_start[stage] = start
    for i, stage in enumerate(plan.stages):
        name = f"{prefix}allreduce/s{i}"
        if stage.replicas < 2:
            if name in graph:
                report.add(Violation(
                    "weight-sync",
                    "unreplicated stage has an AllReduce op",
                    op=name,
                    stage=i,
                ))
            continue
        if i not in ar_start:
            report.add(Violation(
                "weight-sync",
                "replicated stage never ran its gradient AllReduce",
                op=name,
                stage=i,
            ))
            continue
        if ar_start[i] < b_end.get(i, 0.0) - EPS:
            report.add(Violation(
                "weight-sync",
                f"AllReduce starts at {ar_start[i]} before the last backward "
                f"ends at {b_end[i]} — weight update is not synchronous",
                op=name,
                stage=i,
            ))


def check_execution(
    executor,
    graph,
    result,
    schedule_kind: str | None = "dapple",
    warmup_policy: str = "PA",
    max_in_memory: int | None = None,
    subject: str | None = None,
) -> ConformanceReport:
    """Full conformance scan of one executed pipeline iteration.

    Parameters
    ----------
    executor:
        The :class:`~repro.runtime.executor.PipelineExecutor` that built the
        iteration (provides plan, schedule, and per-stage memory model).
    graph, result:
        The task graph actually simulated and its
        :class:`~repro.runtime.executor.ExecutionResult` /
        :class:`~repro.sim.engine.SimulationResult`.
    schedule_kind:
        Any registry spec: ``"dapple"`` checks warm-up counts + 1F1B shape,
        ``"gpipe"`` the flush shape, ``"zb2bp"`` the BI/BW steady state and
        BI-first cooldown, ``"interleaved"`` per-virtual-stage FIFO order;
        ``None`` skips schedule-shape checks (e.g. an explicit-stream
        schedule).
    max_in_memory:
        The memory cap ``D`` the schedule was built with; derived from the
        executor's memory model when omitted.
    """
    plan = executor.plan
    schedule = executor.schedule.streams()
    trace = result.trace
    memory = result.memory
    makespan = getattr(result, "makespan", None)
    if makespan is None:
        makespan = result.iteration_time

    report = ConformanceReport(subject=subject or f"plan {plan.notation}")
    with obs.span("check.execution", plan=plan.notation):
        rows = list(trace.iter_rows())
        _check_completeness(graph, rows, report)
        _check_durations(graph, rows, report)
        _check_dependencies(graph, trace, rows, report)
        _check_resource_exclusivity(trace, report)
        _check_lower_bound(graph, makespan, report)
        _check_structure(graph, plan, schedule, report)
        if schedule_kind is not None:
            if max_in_memory is None:
                if _schedule_kind_name(schedule_kind) in ("gpipe", "interleaved"):
                    max_in_memory = plan.num_micro_batches
                else:
                    try:
                        max_in_memory = min(executor.memory_model.max_in_flight())
                    except Exception:
                        max_in_memory = plan.num_micro_batches
            _check_schedule_shape(
                schedule, plan, schedule_kind, warmup_policy, max_in_memory, report
            )
        _check_trace_order(trace, plan, schedule, report)
        _check_bw_order(trace, report)
        _check_ir_high_water(executor.schedule, report)
        _check_memory(memory, plan, executor.stage_mem, schedule, report)
        _check_weight_sync(graph, trace, plan, report)
    if obs.enabled():
        obs.counter("check.invariants_run").inc(len(report.checks))
        obs.counter("check.violations").inc(len(report.violations))
    return report


def verify_execution(
    profile,
    cluster,
    plan,
    schedule: str = "dapple",
    warmup_policy: str = "PA",
    recompute=False,
    enforce_memory: bool = True,
    engine: str | None = None,
) -> ConformanceReport:
    """Build one iteration, simulate it on ``engine``, and scan it.

    One-call façade over :func:`check_execution` — the unit the ``repro
    check`` CLI and the zoo conformance suite iterate.  Raises
    :class:`~repro.runtime.memory.OutOfMemoryError` like the executor does
    when the combination does not fit device memory.
    """
    from repro.runtime.executor import PipelineExecutor
    from repro.sim.engine import Simulator

    executor = PipelineExecutor(
        profile,
        cluster,
        plan,
        schedule=schedule,
        warmup_policy=warmup_policy,
        recompute=recompute,
        enforce_memory=enforce_memory,
        sim_engine=engine,
    )
    graph = executor.build_graph()
    result = Simulator(graph, engine=engine).run()
    kind = schedule if isinstance(schedule, str) else None
    if (
        enforce_memory
        and kind is not None
        and _schedule_kind_name(kind) in ("dapple", "zb2bp")
    ):
        # These schedules clamp their warm-up depths to the cap D.
        cap = min(executor.memory_model.max_in_flight())
    else:
        cap = plan.num_micro_batches
    return check_execution(
        executor,
        graph,
        result,
        schedule_kind=kind,
        warmup_policy=warmup_policy,
        max_in_memory=cap,
        subject=f"{plan.model.name} {plan.notation} "
        f"({schedule if isinstance(schedule, str) else 'custom'}, "
        f"{engine or 'default'})",
    )

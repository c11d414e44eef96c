"""Robustness analysis: Monte-Carlo ensembles over perturbation seeds.

Answers three questions about a plan under a perturbation model set:

* **How much slower does it get?** — :func:`run_ensemble` simulates the plan
  under ``N`` seeds and summarizes the makespan distribution (p50/p95/p99,
  slowdown vs. the clean run).
* **Where does the lost time go?** — per-stage *bubble inflation*: how much
  each stage's idle fraction grows under perturbation, attributing the
  slowdown to the stage that absorbs it.
* **Does the bottleneck move?** — *critical-path shift*: the chain of ops
  whose completion times gate the makespan is extracted from each perturbed
  trace and compared (as a stage signature) against the clean run's.

:func:`run_ensemble` builds and compiles the plan's graph **once**, with
as many single-replica *victim slots* per stage as its model set can
touch (:func:`repro.faults.models.required_slots`; every other replica
stays folded into its lock-step class), turns the model set into an
``(S, ops)`` duration matrix (:func:`repro.faults.models.perturb_durations`,
which places each seed's victims on their stage's slots), and hands the
whole ensemble — clean row included — to the simulator's event loop
(:func:`repro.sim.batched.run_batched`) in a single pass.  A model that
draws per op (compute jitter, a third-party ``perturb``) gets the
per-replica graph, the all-slots case of the same path.  A clean run and
every scenario are analyzed by the same functions over the same
:class:`~repro.sim.compiled.ColumnarTrace` columns; each seed's stage
bubbles read every device's busy time from the chain that ran it, in
device order.  The result is bit-identical to one simulation per seed on
the per-replica graph, analyzed event by event (the oracle
:func:`repro.check.reference.per_seed_ensemble`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

import repro.obs as obs
from repro.faults.models import perturb_durations, required_slots
from repro.sim.batched import run_batched
from repro.sim.compiled import compile_graph

__all__ = [
    "SeedOutcome",
    "EnsembleReport",
    "BubbleRow",
    "run_ensemble",
    "run_ensembles",
    "critical_path",
    "critical_path_stages",
    "stage_bubble_fractions",
]


# --------------------------------------------------------------------- #
# Critical path and stage bubbles
# --------------------------------------------------------------------- #
def critical_path(graph, trace) -> list:
    """The chain of trace events that gates the makespan, in time order.

    Walks backward from the last-finishing op.  At each step the *binding
    constraint* of the current op is the event that ends exactly when it
    starts: either one of its dependency predecessors or the previous holder
    of one of its resources (the simulator only dispatches at completion
    instants, so except at time zero such an event always exists).  Ties are
    broken toward the latest-ending candidate, then dependency predecessors
    over resource predecessors, so the walk is deterministic.

    ``trace`` is the :class:`~repro.sim.compiled.ColumnarTrace` of a run of
    ``graph``: the walk runs over the graph's and the trace's op-id columns,
    anchored at the last completion, and materializes only the path's
    events.
    """
    if not graph.num_ops:
        return []
    ops = graph.ops()
    start = trace.start_by_op
    cur = trace.order[-1]
    path = [cur]
    while start[cur] > 0:
        # Dependency predecessors, then previous resource holders; max()
        # keeps the first of equally late candidates.
        cands = list(graph.pred_lists[cur])
        for r in ops[cur].resources:
            slot = graph.slot_of[r]
            k = trace.resource_index(slot)[cur]
            if k > 0:
                cands.append(int(trace.resource_sequence(slot)[k - 1]))
        if not cands:
            break
        cur = max(cands, key=trace.end_by_op.__getitem__)
        path.append(cur)
    return [trace.event(i) for i in reversed(path)]


def critical_path_stages(path) -> tuple:
    """Collapse a critical path to its stage signature.

    ``path`` holds trace events or ops — anything with ``tags``.
    Consecutive ops of the same stage merge into one entry; ops without a
    ``stage`` tag (init barriers) are dropped.  Two runs whose makespan is
    gated by different stages produce different signatures — the shift
    detector's comparison key.
    """
    sig: list[int] = []
    for e in path:
        stage = e.tags.get("stage")
        if stage is None:
            continue
        if not sig or sig[-1] != stage:
            sig.append(stage)
    return tuple(sig)


def stage_bubble_fractions(result) -> dict[int, float]:
    """Per-stage idle fraction: 1 − mean device busy time / makespan."""
    return dict(enumerate(_bubble_fractions(result.trace, result.plan)))


def _bubble_fractions(trace, plan, placement=None) -> tuple:
    """:func:`stage_bubble_fractions` as a tuple in stage order.

    ``placement`` maps a device key to the key whose chain ran it (a
    victim placed on a slot, :meth:`repro.faults.models._GraphIndex.placement`),
    so the busy times are summed in device order as on the per-replica
    graph.
    """
    makespan = trace.makespan()
    if makespan <= 0:
        return tuple(0.0 for _ in range(plan.num_stages))
    placement = placement or {}
    out = []
    for stage in plan.stages:
        busy = [
            trace.busy_time(placement.get(d.resource_key, d.resource_key))
            for d in stage.devices
        ]
        out.append(1.0 - (sum(busy) / len(busy)) / makespan)
    return tuple(out)


# --------------------------------------------------------------------- #
# Per-seed outcome
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SeedOutcome:
    """Small summary of one (possibly perturbed) simulated iteration."""

    seed: int
    makespan: float
    #: Per-stage idle fraction of the makespan (mean over replicas).
    stage_bubbles: tuple
    #: Stage signature of the makespan-gating op chain.
    critical_stages: tuple


# --------------------------------------------------------------------- #
# Ensemble report
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BubbleRow:
    """Bubble attribution for one stage: clean vs. perturbed idle fraction."""

    stage: int
    clean_fraction: float
    perturbed_fraction: float

    @property
    def inflation(self) -> float:
        """Absolute idle-fraction growth under perturbation."""
        return self.perturbed_fraction - self.clean_fraction


@dataclass(frozen=True)
class EnsembleReport:
    """Makespan distribution of a plan under a perturbation ensemble."""

    plan_notation: str
    clean: SeedOutcome
    outcomes: tuple
    makespans: np.ndarray = field(repr=False)
    #: Memo for derived statistics (quantiles, convergence curves, bubble
    #: rows) — computed on first access, excluded from equality/repr.
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def clean_makespan(self) -> float:
        return self.clean.makespan

    def quantile(self, q: float) -> float:
        got = self._cache.get(("quantile", q))
        if got is None:
            got = self._cache[("quantile", q)] = float(
                np.quantile(self.makespans, q)
            )
        return got

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return float(self.makespans.mean())

    @property
    def worst(self) -> float:
        return float(self.makespans.max())

    def slowdown(self, q: float = 0.95) -> float:
        """Quantile makespan over the clean makespan (≥ 1 in practice)."""
        return self.quantile(q) / self.clean_makespan

    def quantile_convergence(self, q: float = 0.95) -> np.ndarray:
        """Running ``quantile(q)`` estimate over the first ``k`` seeds.

        Entry ``k-1`` is the quantile of the first ``k`` makespans in seed
        submission order; the final entry equals :meth:`quantile`.  The gap
        between the last two entries says whether the ensemble was large
        enough for the tail estimate to settle (exported as the
        ``faults.quantile_convergence_delta`` gauge when observability is
        on).

        The curve is computed once per ``q`` and cached; treat the returned
        array as read-only.
        """
        got = self._cache.get(("convergence", q))
        if got is None:
            ms = self.makespans
            got = self._cache[("convergence", q)] = np.array(
                [np.quantile(ms[: k + 1], q) for k in range(len(ms))],
                dtype=np.float64,
            )
        return got

    def bubble_attribution(self) -> list[BubbleRow]:
        """Per-stage idle-fraction inflation, mean over the ensemble.

        Rows are computed once and cached (:class:`BubbleRow` is frozen);
        each call returns a fresh list over the shared rows.
        """
        rows = self._cache.get("bubbles")
        if rows is None:
            num_stages = len(self.clean.stage_bubbles)
            rows = []
            for i in range(num_stages):
                perturbed = float(
                    np.mean([o.stage_bubbles[i] for o in self.outcomes])
                )
                rows.append(
                    BubbleRow(
                        stage=i,
                        clean_fraction=self.clean.stage_bubbles[i],
                        perturbed_fraction=perturbed,
                    )
                )
            rows = self._cache["bubbles"] = tuple(rows)
        return list(rows)

    def identical(self, other: "EnsembleReport") -> bool:
        """Bit-exact equality with another report.

        The dataclass-generated ``__eq__`` is unusable here (the
        ``makespans`` ndarray compares elementwise), so determinism tests —
        same ``(plan, models, seeds)`` must yield the same report on every
        rerun and under the per-seed oracle — use this instead.
        """
        return (
            self.plan_notation == other.plan_notation
            and self.clean == other.clean
            and self.outcomes == other.outcomes
            and self.makespans.shape == other.makespans.shape
            and bool((self.makespans == other.makespans).all())
        )

    def critical_path_shift(self) -> float:
        """Fraction of seeds whose makespan-gating stage chain differs from
        the clean run's."""
        if not self.outcomes:
            return 0.0
        shifted = sum(
            1 for o in self.outcomes if o.critical_stages != self.clean.critical_stages
        )
        return shifted / len(self.outcomes)


def run_ensemble(
    profile,
    cluster,
    plan,
    models,
    seeds: Sequence[int],
    schedule="dapple",
    warmup_policy: str = "PA",
    recompute=False,
    enforce_memory: bool = True,
    clean: SeedOutcome | None = None,
) -> EnsembleReport:
    """Monte-Carlo ensemble of ``plan`` under ``models`` over ``seeds``.

    One batched pass: builds and compiles the plan's graph once, with the
    victim slots ``models`` need, stacks the clean duration column (skipped
    when the caller supplied ``clean``) on top of the ``(S, ops)``
    perturbation matrix, and summarizes each scenario from its columnar
    trace.  Deduplicated scenarios (identical duration rows — on a slot
    graph, every straggler seed whose victim sits in the same stage) share
    one trace; the critical path is memoized per trace and the bubbles per
    trace and victim placement, so repeated rows cost a dict hit.  The
    ``faults.run_ensemble`` span records the graph's ``ops``, its trace
    ``rows`` and the single-replica classes (``slots``) of each stage.

    ``clean`` short-circuits the clean baseline: callers re-scoring the same
    plan under different model sets (straggler sweeps, robust selection)
    pass a previous report's ``.clean`` so the baseline row and its
    critical-path walk are not recomputed per call.
    """
    from repro.runtime.executor import PipelineExecutor

    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("ensemble needs at least one seed")
    models = tuple(models)
    track = obs.enabled()
    t_start = time.perf_counter() if track else 0.0
    with obs.span(
        "faults.run_ensemble", plan=plan.notation, seeds=len(seeds),
    ) as sp:
        executor = PipelineExecutor(
            profile,
            cluster,
            plan,
            schedule=schedule,
            warmup_policy=warmup_policy,
            recompute=recompute,
            enforce_memory=enforce_memory,
        )
        slots = required_slots(models)
        graph = compile_graph(executor.build_graph(slots=slots))
        sp.set(
            ops=len(graph), rows=graph.num_rows,
            slots=[
                sum(len(c) == 1 for c in executor.replica_classes(st, slots))
                for st in plan.stages
            ],
        )
        placements: list[dict] = []
        matrix = perturb_durations(graph, models, seeds, placements)
        if clean is None:
            rows = np.vstack([graph.durations[None, :], matrix])
            offset = 1
        else:
            rows = matrix
            offset = 0
        batch = run_batched(graph, rows, record_memory=False)
        paths: dict[int, tuple] = {}
        bubbles: dict[tuple, tuple] = {}

        def outcome(s: int, seed: int, placement: dict) -> SeedOutcome:
            trace = batch.view(s)
            path = paths.get(id(trace))
            if path is None:
                path = paths[id(trace)] = critical_path_stages(
                    critical_path(graph, trace)
                )
            key = (id(trace), tuple(placement.items()))
            fractions = bubbles.get(key)
            if fractions is None:
                fractions = bubbles[key] = _bubble_fractions(
                    trace, plan, placement
                )
            return SeedOutcome(
                seed=seed,
                makespan=batch.makespan(s),
                stage_bubbles=fractions,
                critical_stages=path,
            )

        if clean is None:
            clean = outcome(0, 0, {})
        outcomes = [
            outcome(offset + j, seed, placements[j])
            for j, seed in enumerate(seeds)
        ]
    report = EnsembleReport(
        plan_notation=plan.notation,
        clean=clean,
        outcomes=tuple(outcomes),
        makespans=np.array([o.makespan for o in outcomes], dtype=np.float64),
    )
    if track:
        _record_ensemble_metrics(report, time.perf_counter() - t_start)
    return report


def run_ensembles(
    profile,
    cluster,
    plans: Sequence,
    models,
    seeds: Sequence[int],
    schedule="dapple",
    warmup_policy: str = "PA",
    recompute=False,
    enforce_memory: bool = True,
) -> list:
    """Ensemble every plan in ``plans`` over the same ``models`` × ``seeds``.

    The S seeds × K plans grid behind robust top-K re-scoring
    (:func:`repro.faults.robust.robust_plan`): each plan's graph is compiled
    once and its whole seed ensemble runs as a single batched pass, so the
    grid costs K batched calls instead of K × (S + 1) independent
    simulations.  Reports are index-aligned with ``plans``.
    """
    plans = list(plans)
    with obs.span(
        "faults.run_ensembles", plans=len(plans), seeds=len(seeds)
    ):
        return [
            run_ensemble(
                profile, cluster, plan, models, seeds,
                schedule=schedule, warmup_policy=warmup_policy,
                recompute=recompute, enforce_memory=enforce_memory,
            )
            for plan in plans
        ]


def _record_ensemble_metrics(report: EnsembleReport, elapsed: float) -> None:
    """Publish ensemble timing, slowdown spread, and tail convergence."""
    plan = report.plan_notation
    obs.gauge("faults.ensemble_seconds", plan=plan).set(elapsed)
    obs.counter("faults.seeds_evaluated").inc(len(report.outcomes))
    hist = obs.histogram(
        "faults.seed_slowdown",
        buckets=(1.0, 1.02, 1.05, 1.1, 1.25, 1.5, 2.0, 4.0),
    )
    clean_ms = report.clean_makespan
    if clean_ms > 0:
        for o in report.outcomes:
            hist.observe(o.makespan / clean_ms)
    conv = report.quantile_convergence(0.95)
    delta = abs(float(conv[-1]) - float(conv[-2])) if len(conv) >= 2 else 0.0
    obs.gauge("faults.quantile_convergence_delta", plan=plan).set(delta)

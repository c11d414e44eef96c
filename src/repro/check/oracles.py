"""Differential oracles: two independent implementations must agree.

The repo carries several redundant computations kept deliberately
bit-identical — a compiled and a reference simulator engine, the
level-batched planner search and its scalar oracle (:class:`ScalarPlanner`,
defined here), a closed-form latency estimate and its
per-stage decomposition, a fault-injection path whose empty-model case is
the clean path itself.  Each pair is a free correctness oracle: when the
cheap/fast side drifts from its slow/simple twin, something broke.  This
module runs those comparisons as first-class conformance checks producing
the same :class:`~repro.check.invariants.ConformanceReport` the static
invariants do, so ``repro check`` surfaces divergence with the same exit
code and report format as a semantic violation.
"""

from __future__ import annotations

import math

from repro.check.invariants import ConformanceReport, Violation
from repro.core.placement import allocate
from repro.core.plan import Stage
from repro.core.planner import Planner, PlannerConfig, _State, plan_best
from repro.schedules import warmup_counts

__all__ = [
    "ScalarPlanner",
    "planner_diffs",
    "oracle_engines",
    "oracle_planner",
    "oracle_plan_cache",
    "oracle_served_plan",
    "oracle_explain",
    "oracle_clean_faults",
    "oracle_batched_ensemble",
    "oracle_memory_m_independence",
    "run_oracles",
]


def _trace_rows(result) -> list:
    return sorted(
        (name, start, end, tuple(res)) for name, start, end, res, _t
        in result.trace.iter_rows()
    )


def _memory_rows(result) -> dict:
    out = {}
    for dev in result.memory.devices():
        out[dev] = (result.memory.peak(dev), result.memory.final(dev))
    return out


def oracle_engines(graph, subject: str = "engines") -> ConformanceReport:
    """All simulator engines (compiled, reference, batched) agree bit-for-bit.

    The compiled engine anchors the comparison; the reference oracle and the
    multi-scenario batched engine (run with a single scenario row) must each
    reproduce its makespan, trace rows, and memory peaks/finals exactly.
    """
    from repro.sim.engine import Simulator

    report = ConformanceReport(subject=subject)
    report.ran("oracle-engines")
    compiled = Simulator(graph, engine="compiled").run()
    rows_c = _trace_rows(compiled)
    mem_c = _memory_rows(compiled)
    for engine in ("reference", "batched"):
        other = Simulator(graph, engine=engine).run()
        if compiled.makespan != other.makespan:
            report.add(Violation(
                "oracle-engines",
                f"makespan diverges: compiled={compiled.makespan!r} "
                f"{engine}={other.makespan!r}",
            ))
        rows_o = _trace_rows(other)
        if rows_c != rows_o:
            bad = next(
                (c for c, r in zip(rows_c, rows_o) if c != r),
                rows_c[len(rows_o):][:1] or rows_o[len(rows_c):][:1],
            )
            op = bad[0] if isinstance(bad, tuple) else (bad[0][0] if bad else None)
            report.add(Violation(
                "oracle-engines",
                f"trace rows diverge vs {engine} "
                f"({len(rows_c)} vs {len(rows_o)} events)",
                op=op,
            ))
        mem_o = _memory_rows(other)
        if mem_c != mem_o:
            dev = next((d for d in mem_c if mem_c[d] != mem_o.get(d)), None)
            report.add(Violation(
                "oracle-engines",
                f"memory peaks/finals diverge between compiled and {engine}",
                resource=dev,
            ))
    return report


def oracle_batched_ensemble(
    profile, cluster, plan, seeds=(0, 1, 2, 3),
    subject: str = "batched-ensemble", **kwargs,
) -> ConformanceReport:
    """Batched and per-seed-compiled fault ensembles are bit-identical.

    Runs the same (plan, models, seeds) ensemble through one batched
    multi-scenario pass and through the per-seed compiled path, then demands
    :meth:`~repro.faults.analysis.EnsembleReport.identical` — bit-equal
    makespans, stage bubbles, and critical-path signatures for the clean row
    and every seed.
    """
    from repro.faults.analysis import run_ensemble
    from repro.faults.models import ComputeJitter, SlowDevice, TransientFailure

    report = ConformanceReport(subject=subject)
    report.ran("oracle-batched-ensemble")
    models = (
        ComputeJitter(sigma=0.05),
        SlowDevice(factor=1.5, num_devices=1),
        TransientFailure(stall=0.2),
    )
    batched = run_ensemble(
        profile, cluster, plan, models, seeds,
        sim_engine="batched", **kwargs,
    )
    per_seed = run_ensemble(
        profile, cluster, plan, models, seeds,
        sim_engine="compiled", **kwargs,
    )
    if not batched.identical(per_seed):
        detail = "report"
        if not bool((batched.makespans == per_seed.makespans).all()):
            detail = (
                f"makespans {batched.makespans!r} vs {per_seed.makespans!r}"
            )
        elif batched.clean != per_seed.clean:
            detail = "clean outcome"
        elif batched.outcomes != per_seed.outcomes:
            detail = "seed outcomes"
        report.add(Violation(
            "oracle-batched-ensemble",
            f"batched ensemble diverges from per-seed compiled path: {detail}",
        ))
    return report


class ScalarPlanner(Planner):
    """The planner with every transition scored by scalar ``evaluate_plan``.

    The bit-identity oracle for the level-batched scan kernel: it walks
    candidates in (state, split, replication, policy) order, scores each
    completion through :meth:`Planner._consider`, and keeps the
    lowest-latency candidate per dedup key, first arrival winning ties —
    the loop :meth:`Planner._replay_level` reproduces vectorially.
    """

    def _expand_level(self, frontier: list, next_level: dict, track: bool) -> None:
        n = self.profile.num_layers
        max_stages = self.config.max_stages
        for state in frontier:
            free_total = self.cluster.num_devices - sum(state.used)
            for j2 in range(state.j + 1, n):
                for m2 in range(1, free_total):
                    for placed in allocate(
                        self.cluster, state.used, m2, self.config.policies
                    ):
                        stages = state.stages + (Stage(state.j, j2, placed.devices),)
                        if max_stages is not None and len(stages) + 1 > max_stages:
                            continue
                        lat = self._consider(self.complete(j2, placed.new_used, stages))
                        if track:
                            sc = self._score_counts
                            sc[(j2, m2)] = sc.get((j2, m2), 0) + 1
                        if lat == math.inf:
                            continue
                        key = (j2, tuple(sorted(placed.new_used)), sum(placed.new_used))
                        cur = next_level.get(key)
                        if cur is None or lat < cur.latency:
                            next_level[key] = _State(lat, j2, placed.new_used, stages)


def planner_diffs(a, b) -> list[tuple[str, object, object]]:
    """``(field, a, b)`` for every search output two plan results disagree on.

    Covers the winning plan (stage map, split, ``M``), its latency, the
    search counters, and the full top-K beam.
    """
    checks = [
        ("plan", a.plan.notation, b.plan.notation),
        ("split", a.plan.split_notation, b.plan.split_notation),
        ("stages", _stage_map(a.plan), _stage_map(b.plan)),
        ("M", a.plan.num_micro_batches, b.plan.num_micro_batches),
        ("latency", a.estimate.latency, b.estimate.latency),
        ("states_explored", a.states_explored, b.states_explored),
        ("plans_evaluated", a.plans_evaluated, b.plans_evaluated),
        ("infeasible_plans", a.infeasible_plans, b.infeasible_plans),
        ("top_plans", _beam(a), _beam(b)),
    ]
    return [c for c in checks if c[1] != c[2]]


def _stage_map(plan) -> tuple:
    return tuple(
        (s.layer_lo, s.layer_hi, tuple(d.global_id for d in s.devices))
        for s in plan.stages
    )


def _beam(result) -> tuple:
    return tuple(
        (lat, p.notation, p.split_notation, p.num_micro_batches)
        for lat, p in result.top_plans
    )


def oracle_planner(profile, cluster, gbs: int,
                   config=None, subject: str = "planner") -> ConformanceReport:
    """The level-batched search and the scalar oracle agree exactly."""
    report = ConformanceReport(subject=subject)
    report.ran("oracle-planner")
    cfg = config or PlannerConfig()
    level = Planner(profile, cluster, gbs, cfg).search()
    scalar = ScalarPlanner(profile, cluster, gbs, cfg).search()
    for field, a, b in planner_diffs(level, scalar):
        report.add(Violation(
            "oracle-planner",
            f"level-batched and scalar search disagree on {field}: "
            f"{a!r} vs {b!r}",
        ))
    return report


def oracle_plan_cache(profile, cluster, gbs: int,
                      config=None, subject: str = "plan-cache") -> ConformanceReport:
    """A round-tripped cache hit is byte-identical to a fresh search.

    Runs a fresh search, stores it through a disk-backed
    :class:`~repro.core.plancache.PlanCache`, drops the in-memory tier to
    force the serialization round-trip, and demands the disk hit reproduce
    the plan signature, latency, search counters, and the full top-K beam.
    """
    import tempfile

    from repro.core.plancache import PlanCache

    report = ConformanceReport(subject=subject)
    report.ran("oracle-plan-cache")
    cfg = config or PlannerConfig()
    fresh = Planner(profile, cluster, gbs, cfg).search()
    with tempfile.TemporaryDirectory(prefix="plancache-oracle-") as tmp:
        cache = PlanCache(tmp)
        cache.store(profile, cluster, gbs, cfg, fresh)
        cache.clear_memory()  # force the on-disk JSON round-trip
        hit = plan_best(profile, cluster, gbs, cfg, cache=cache)
    if cache.hits != 1 or cache.misses != 0:
        report.add(Violation(
            "oracle-plan-cache",
            f"stored entry did not hit: hits={cache.hits} misses={cache.misses}",
        ))
        return report
    for field, a, b in planner_diffs(fresh, hit):
        if a != b:
            report.add(Violation(
                "oracle-plan-cache",
                f"cached result diverges from fresh search on {field}: "
                f"{a!r} vs {b!r}",
            ))
    return report


def oracle_served_plan(profile, cluster, gbs: int,
                       config=None, subject: str = "served-plan") -> ConformanceReport:
    """A plan served over HTTP is bit-identical to a direct ``plan_best``.

    Starts an ephemeral in-process :class:`~repro.serve.PlanServer` (inline
    execution, fresh temp data dir), submits the problem as an inline
    graph + cluster request, and demands the served plan reproduce the
    direct search's stage map, latency, and search counters exactly.
    Environments that cannot bind a localhost socket report the oracle as
    skipped rather than failing.
    """
    from repro.core.serialization import (
        cluster_to_dict,
        graph_to_dict,
        plan_to_dict,
        planner_config_to_dict,
    )

    report = ConformanceReport(subject=subject)
    try:
        from repro.serve import PlanClient, PlanServer
    except ImportError:  # pragma: no cover - serve is part of the package
        return report
    report.ran("oracle-served-plan")

    cfg = config or PlannerConfig()
    direct = plan_best(profile, cluster, gbs, cfg)
    request = {
        "graph": graph_to_dict(profile.graph),
        "cluster": cluster_to_dict(cluster),
        "gbs": gbs,
        "planner": planner_config_to_dict(cfg),
    }
    try:
        server = PlanServer(workers=1, exec_mode="inline", queue_depth=4).start()
    except OSError:  # no sockets available (sandbox): cannot test
        return report
    try:
        client = PlanClient(server.url, timeout=30.0)
        job = client.wait(client.submit(request)["job_id"], timeout=120.0)
        served = client.result(job)
    except Exception as e:
        report.add(Violation(
            "oracle-served-plan", f"service round-trip failed: {e}"
        ))
        return report
    finally:
        server.close()

    checks = [
        ("plan", plan_to_dict(direct.plan), served["plan"]),
        ("notation", direct.plan.notation, served["notation"]),
        ("split", direct.plan.split_notation, served["split"]),
        ("M", direct.plan.num_micro_batches, served["num_micro_batches"]),
        ("latency", direct.estimate.latency, served["estimate"]["latency"]),
        ("warmup", direct.estimate.warmup, served["estimate"]["warmup"]),
        ("steady", direct.estimate.steady, served["estimate"]["steady"]),
        ("ending", direct.estimate.ending, served["estimate"]["ending"]),
        ("states_explored", direct.states_explored,
         served["counters"]["states_explored"]),
        ("plans_evaluated", direct.plans_evaluated,
         served["counters"]["plans_evaluated"]),
        ("infeasible_plans", direct.infeasible_plans,
         served["counters"]["infeasible_plans"]),
    ]
    for field, a, b in checks:
        if a != b:
            report.add(Violation(
                "oracle-served-plan",
                f"served plan diverges from direct plan_best on {field}: "
                f"{a!r} vs {b!r}",
            ))
    return report


def oracle_explain(profile, cluster, plan,
                   subject: str = "explain") -> ConformanceReport:
    """``breakdown_plan`` decomposition re-sums to ``evaluate_plan`` exactly."""
    from repro.obs.explain import breakdown_plan

    report = ConformanceReport(subject=subject)
    report.ran("oracle-explain")
    try:
        breakdown_plan(profile, cluster, plan).verify()
    except AssertionError as e:
        report.add(Violation(
            "oracle-explain",
            f"explain_plan decomposition does not reproduce evaluate_plan: {e}",
        ))
    return report


def oracle_clean_faults(profile, cluster, plan, seed: int = 0,
                        subject: str = "clean-faults", **kwargs) -> ConformanceReport:
    """``models=()`` fault injection is byte-identical to the clean path."""
    from repro.faults.inject import execute_plan_faulted, perturb_graph
    from repro.runtime.executor import PipelineExecutor, execute_plan

    report = ConformanceReport(subject=subject)
    report.ran("oracle-clean-faults")
    graph = PipelineExecutor(profile, cluster, plan, **kwargs).build_graph()
    if perturb_graph(graph, (), seed) is not graph:
        report.add(Violation(
            "oracle-clean-faults",
            "perturb_graph with no models copied the graph instead of "
            "returning it unchanged",
        ))
    clean = execute_plan(profile, cluster, plan, **kwargs)
    faulted = execute_plan_faulted(
        profile, cluster, plan, models=(), seed=seed, **kwargs
    ).result
    if clean.iteration_time != faulted.iteration_time:
        report.add(Violation(
            "oracle-clean-faults",
            f"iteration time diverges: clean={clean.iteration_time!r} "
            f"faulted(models=())={faulted.iteration_time!r}",
        ))
    if _trace_rows(clean) != _trace_rows(faulted):
        report.add(Violation(
            "oracle-clean-faults",
            "trace diverges between execute_plan and "
            "execute_plan_faulted(models=())",
        ))
    return report


def oracle_memory_m_independence(
    profile, cluster, plan,
    warmup_policy: str = "PA",
    subject: str = "memory-M-independence",
) -> ConformanceReport:
    """DAPPLE peak memory does not grow with ``M`` at fixed micro-batch size.

    Scales the global batch so ``M`` doubles while the micro-batch size (and
    hence every per-op memory delta) stays fixed, then demands identical
    per-device peaks.  Both runs use an ``M`` large enough that every
    warm-up count ``Ki`` has already saturated at ``min(policy, D)`` — below
    that point the peak legitimately still grows with ``M``.
    """
    from repro.core.plan import ParallelPlan
    from repro.runtime.executor import execute_plan

    report = ConformanceReport(subject=subject)
    report.ran("oracle-memory-m-independence")
    m = plan.num_micro_batches
    s = plan.num_stages
    # f*M >= 2S-1 >= any PA/PB warm-up depth, so Ki is M-independent
    # for both compared runs.
    f = max(1, math.ceil((2 * s - 1) / m))
    plans = []
    for scale in (f, 2 * f):
        plans.append(ParallelPlan(
            model=plan.model,
            stages=list(plan.stages),
            global_batch_size=plan.global_batch_size * scale,
            num_micro_batches=m * scale,
            meta=dict(plan.meta),
        ))
    ks = [
        warmup_counts(s, p.num_micro_batches, policy=warmup_policy)
        for p in plans
    ]
    if ks[0] != ks[1]:  # defensive; the f scaling above should prevent this
        report.add(Violation(
            "oracle-memory-m-independence",
            f"warm-up counts changed with M: {ks[0]} vs {ks[1]}",
        ))
        return report
    small = execute_plan(profile, cluster, plans[0], warmup_policy=warmup_policy)
    large = execute_plan(profile, cluster, plans[1], warmup_policy=warmup_policy)
    peaks_small = small.peak_memory_per_device()
    peaks_large = large.peak_memory_per_device()
    for dev in sorted(peaks_small, key=str):
        a, b = peaks_small[dev], peaks_large.get(dev)
        if b is None or a != b:
            report.add(Violation(
                "oracle-memory-m-independence",
                f"peak grew with M at fixed micro-batch size: "
                f"{a!r} B (M={plans[0].num_micro_batches}) vs "
                f"{b!r} B (M={plans[1].num_micro_batches})",
                resource=dev,
            ))
    return report


def run_oracles(profile, cluster, plan, gbs: int | None = None,
                subject: str = "oracles") -> ConformanceReport:
    """Run every differential oracle applicable to one (model, plan) case."""
    from repro.runtime.executor import PipelineExecutor

    report = ConformanceReport(subject=subject)
    graph = PipelineExecutor(profile, cluster, plan).build_graph()
    report.merge(oracle_engines(graph))
    if gbs is not None:
        report.merge(oracle_planner(profile, cluster, gbs))
        report.merge(oracle_plan_cache(profile, cluster, gbs))
        report.merge(oracle_served_plan(profile, cluster, gbs))
    report.merge(oracle_explain(profile, cluster, plan))
    report.merge(oracle_clean_faults(profile, cluster, plan))
    report.merge(oracle_batched_ensemble(profile, cluster, plan))
    report.merge(oracle_memory_m_independence(profile, cluster, plan))
    return report

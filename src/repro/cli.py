"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``models``
    List the benchmark zoo with calibration figures.
``plan``
    Run the DAPPLE planner for a model/config/GBS; optionally save the plan
    as JSON.
``run``
    Simulate one training iteration (optionally from a saved plan), with
    Gantt chart, memory report, and Chrome-trace export.
``compare``
    DAPPLE vs PipeDream vs GPipe vs DP on one model/config.
``experiment``
    Regenerate one (or all) of the paper's tables/figures into ``results/``.
``check``
    Schedule conformance: verify executed schedules against DAPPLE's
    invariants (1F1B interleave, warm-up counts, Ki memory bound, weight
    sync) and run the differential oracles; violations exit 2.
``faults``
    Deterministic fault injection: clean vs perturbed makespans for DAPPLE,
    GPipe, and DP under seeded stragglers/jitter/link faults, with optional
    robust (quantile-based) plan re-selection.
``serve``
    Long-running planner service (``repro.serve``): async job queue, worker
    pool, content-addressed artifact store, graceful SIGTERM drain.
``submit``
    Client for ``repro serve``: POST a plan request, poll the job, print
    the served plan (stdlib urllib, no extra deps).
``cache``
    Inspect (``stats``) or empty (``clear``) an on-disk plan-cache tier.
``obs``
    Operations console: ``tail`` pretty-prints a JSONL event/access log
    with trace-aware filtering, ``summarize`` aggregates logs into
    per-span latency tables, ``top`` polls a live server's ``/metrics``
    into a refreshing dashboard.

Observability: ``plan``/``run``/``experiment``/``check``/``faults`` accept
``--trace FILE`` (``.jsonl`` = schema-validated event log, anything else =
Chrome/Perfetto JSON; for ``run`` the Perfetto file unifies wall-clock
instrumentation spans with the simulated-time op slices) and ``--metrics``
(span/metric summary tables on stdout).  Bad arguments (unknown model,
invalid config) exit with code 2; OOM during a run exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import repro.obs as obs
from repro.cluster import config_by_name
from repro.core import Planner, PlannerConfig, profile_model
from repro.core.plancache import configure_default, default_cache
from repro.core.planner import plan_best
from repro.core.serialization import load_plan, save_plan
from repro.experiments import EXPERIMENTS, run_experiment
from repro.models import PAPER_FIGURES, get_model, model_names, paper_gbs
from repro.runtime import execute_plan
from repro.runtime.memory import OutOfMemoryError

#: Fixed default for every seeded CLI path, so runs are reproducible unless
#: the user explicitly varies ``--seed``.
DEFAULT_SEED = 0


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="bert48", help=f"one of {model_names()}")
    p.add_argument("--config", default="A", choices=["A", "B", "C"],
                   help="hardware config (paper Table III)")
    p.add_argument("--devices", type=int, default=16, help="total GPUs")
    p.add_argument("--gbs", type=int, default=None, help="global batch size")


def _add_plan_cache(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--plan-cache", metavar="DIR", default=None,
        help="directory for the content-addressed plan cache (adds an "
        "on-disk tier so repeated invocations skip the planner search)",
    )
    p.add_argument(
        "--no-plan-cache", action="store_true",
        help="disable plan caching entirely (always search)",
    )


def _add_schedule(p: argparse.ArgumentParser, default: str | None = "dapple") -> None:
    """``--schedule SPEC`` resolved through the schedule registry.

    The help text lists the registered names dynamically (same pattern as
    ``config_by_name`` for hardware configs), so new schedules show up here
    without touching the CLI.
    """
    from repro.schedules import schedule_help, schedule_names

    p.add_argument(
        "--schedule", default=default, metavar="SPEC",
        help=f"schedule spec, one of {', '.join(schedule_names())} with "
        f"optional 'name:key=value' parameters ({schedule_help()})",
    )


def _add_obs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="FILE",
        help="export an observability trace (.jsonl = event log, "
        "otherwise Chrome/Perfetto JSON)",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="print instrumentation span/metric summary tables",
    )


def _setup(args):
    model = get_model(args.model)
    cluster = config_by_name(args.config, args.devices)
    gbs = args.gbs if args.gbs is not None else paper_gbs(args.model)
    return model, cluster, gbs, profile_model(model)


def cmd_models(_args) -> int:
    """``repro models``: print the benchmark zoo with calibration figures."""
    from repro.experiments.reporting import format_table

    rows = []
    for name in model_names():
        g = get_model(name)
        ref = PAPER_FIGURES.get(name)
        rows.append([
            name, g.name, g.num_layers, f"{g.total_params / 1e6:.0f}M",
            g.profile_batch, g.optimizer,
            f"{ref.global_batch_size}" if ref else "-",
        ])
    print(format_table(
        ["name", "model", "layers", "params", "profile batch", "optimizer", "paper GBS"],
        rows, title="Benchmark model zoo",
    ))
    return 0


def cmd_plan(args) -> int:
    """``repro plan``: search for the best hybrid plan and describe it."""
    model, cluster, gbs, prof = _setup(args)
    cfg = PlannerConfig(
        beam_width=args.beam,
        max_stages=args.max_stages,
        min_stages=2 if args.pipeline_only else 1,
        keep_top_k=4 if args.explain else 0,
    )
    result = plan_best(prof, cluster, gbs, cfg, cache=default_cache())
    plan = result.plan
    est = result.estimate
    print(f"model   : {model.name} ({model.total_params / 1e6:.0f}M params)")
    print(f"cluster : {cluster!r}")
    print(f"plan    : {plan.notation} (layers {plan.split_notation}, "
          f"M={plan.num_micro_batches})")
    for i, stage in enumerate(plan.stages):
        devs = ",".join(str(d.global_id) for d in stage.devices)
        print(f"  stage {i}: layers [{stage.layer_lo},{stage.layer_hi}) on [{devs}]")
    print(f"latency : {est.latency * 1e3:.1f} ms estimated "
          f"(Tw={est.warmup * 1e3:.1f} Ts={est.steady * 1e3:.1f} "
          f"Te={est.ending * 1e3:.1f}, pivot stage {est.pivot})")
    print(f"ACR     : {est.acr:.3f}")
    print(f"searched: {result.plans_evaluated} plans "
          f"({result.infeasible_plans} memory-infeasible)")
    if args.explain:
        from repro.obs import explain_plan

        print()
        print(explain_plan(prof, cluster, result).report())
    if args.schedule:
        # Simulate the winner under the requested schedule so the analytic
        # estimate can be read against an executed iteration.
        from repro.runtime.executor import PipelineExecutor

        try:
            ex = PipelineExecutor(prof, cluster, plan, schedule=args.schedule)
            sim = ex.run()
        except OutOfMemoryError as e:
            print(f"simulated: OOM under {args.schedule}: {e}")
        else:
            print(f"simulated: {sim.iteration_time * 1e3:.1f} ms under "
                  f"{ex.schedule.describe()}")
    if args.save:
        path = save_plan(plan, args.save)
        print(f"saved   : {path}")
    return 0


def cmd_run(args) -> int:
    """``repro run``: simulate one training iteration of a (saved) plan."""
    model, cluster, gbs, prof = _setup(args)
    if args.plan:
        plan = load_plan(args.plan, model, cluster)
    else:
        from repro.schedules import parse_schedule_spec

        # An interleaved schedule needs a round-robin virtual-stage plan,
        # which the planner's stage search never emits — synthesize one
        # (same geometry repro check uses) unless the user saved a plan.
        if parse_schedule_spec(args.schedule)[0] == "interleaved":
            plan = _schedule_arm(prof, cluster, gbs, args.schedule)[0][1]
        else:
            plan = Planner(prof, cluster, gbs).search().plan
    try:
        res = execute_plan(
            prof, cluster, plan,
            schedule=args.schedule,
            warmup_policy=args.warmup,
            recompute=args.recompute,
            sim_engine=args.sim_engine,
        )
    except OutOfMemoryError as e:
        print(f"OOM: {e}", file=sys.stderr)
        return 1
    print(f"plan       : {plan.notation} (layers {plan.split_notation}, "
          f"M={plan.num_micro_batches}, schedule={args.schedule}/{args.warmup}, "
          f"recompute={args.recompute})")
    print(f"iteration  : {res.iteration_time * 1e3:.1f} ms "
          f"({res.throughput:.1f} samples/s)")
    peaks = res.peak_memory_per_device()
    print(f"peak memory: max {max(peaks.values()) / 2**30:.2f} GiB, "
          f"avg {sum(peaks.values()) / len(peaks) / 2**30:.2f} GiB")
    if args.gantt:
        from repro.viz import render_gantt

        keys = [s.devices[0].resource_key for s in plan.stages]
        print(render_gantt(res.trace, width=100, resources=keys))
    if args.trace:
        if str(args.trace).endswith(".jsonl"):
            path = obs.export_jsonl(args.trace)
            print(f"event log  : {path}")
        else:
            # Unified export: simulated-time op slices (pid 0) alongside
            # the wall-clock instrumentation spans (pid 1).
            path = obs.export_chrome(args.trace, sim_trace=res.trace)
            print(f"chrome trace: {path} (open in https://ui.perfetto.dev)")
    return 0


def cmd_compare(args) -> int:
    """``repro compare``: DAPPLE vs PipeDream vs GPipe vs DP on one model."""
    from repro.baselines import gpipe_plan
    from repro.baselines import pipedream_plan_hierarchical as pipedream_plan
    from repro.experiments.reporting import format_table
    from repro.runtime.dataparallel import dp_iteration_time, single_device_time

    model, cluster, gbs, prof = _setup(args)
    t_single = single_device_time(prof, gbs)
    rows = []

    dap = Planner(prof, cluster, gbs).search()
    candidates = [("DAPPLE", dap.plan)]
    try:
        pd = pipedream_plan(prof, cluster, gbs)
        candidates.append(("PipeDream plan", pd.plan))
    except RuntimeError:
        pass
    try:
        gp = gpipe_plan(prof, cluster, gbs)
        candidates.append(("GPipe straight", gp))
    except ValueError:
        pass
    for label, plan in candidates:
        sched = "gpipe" if label.startswith("GPipe") else "dapple"
        try:
            res = execute_plan(prof, cluster, plan, schedule=sched, warmup_policy="PB")
            rows.append([label, plan.notation, f"{res.iteration_time * 1e3:.1f}ms",
                         f"{t_single / res.iteration_time:.1f}x",
                         f"{res.max_peak_memory() / 2**30:.1f}GiB"])
        except OutOfMemoryError:
            rows.append([label, plan.notation, "OOM", "-", "-"])
    for overlap, label in ((False, "DP no overlap"), (True, "DP + overlap")):
        dp = dp_iteration_time(prof, cluster, cluster.devices, gbs, overlap=overlap)
        rows.append([label, "DP", f"{dp.iteration_time * 1e3:.1f}ms",
                     f"{t_single / dp.iteration_time:.1f}x", "-"])
    print(format_table(
        ["system", "plan", "iteration", "speedup", "peak mem"], rows,
        title=f"{model.name} on config {args.config}, GBS={gbs}",
    ))
    return 0


def cmd_experiment(args) -> int:
    """``repro experiment``: regenerate paper tables/figures into results/."""
    for name in EXPERIMENTS if args.name == "all" else [args.name]:
        print(f"running {name} ...", flush=True)
        # --jobs 0 → auto (all cores but one).
        run_experiment(name, jobs=args.jobs or None, seed=args.seed)
    return 0


def _fault_models_from_args(args):
    """Translate ``repro faults`` flags into perturbation models."""
    from repro.faults import (
        ComputeJitter,
        DegradedLink,
        SlowDevice,
        TransientFailure,
    )

    models = []
    if args.straggler > 1.0:
        models.append(
            SlowDevice(factor=args.straggler, num_devices=args.num_stragglers)
        )
    if args.jitter > 0.0:
        models.append(ComputeJitter(sigma=args.jitter))
    if args.link_factor > 1.0:
        models.append(
            DegradedLink(factor=args.link_factor, flaky_prob=args.flaky_prob)
        )
    if args.fail_stall > 0.0:
        models.append(TransientFailure(stall=args.fail_stall))
    return tuple(models)


def cmd_faults(args) -> int:
    """``repro faults``: robustness of DAPPLE vs GPipe vs DP on one model."""
    from repro.baselines import gpipe_plan
    from repro.experiments.reporting import format_table
    from repro.faults import run_ensemble, robust_plan

    model, cluster, gbs, prof = _setup(args)
    models = _fault_models_from_args(args)
    if not models:
        print("no perturbation selected (e.g. --straggler 1.5 or --jitter 0.1)",
              file=sys.stderr)
        return 1
    seeds = range(args.seed, args.seed + args.ensemble)

    rows = []

    def measure(label, plan, schedule) -> None:
        try:
            rep = run_ensemble(
                prof, cluster, plan, models, seeds, schedule=schedule
            )
        except OutOfMemoryError:
            rows.append([label, plan.notation, "OOM", "-", "-", "-", "-"])
            return
        rows.append([
            label,
            plan.notation,
            f"{rep.clean_makespan * 1e3:.1f}ms",
            f"{rep.p50 * 1e3:.1f}ms",
            f"{rep.p95 * 1e3:.1f}ms",
            f"{rep.slowdown(0.95):.2f}x",
            f"{rep.critical_path_shift():.0%}",
        ])

    # The planner arm runs under --schedule (any registry spec); the GPipe
    # and DP arms keep their fixed schedules for comparison.
    label = "DAPPLE" if args.schedule == "dapple" else args.schedule
    measure(
        label, plan_best(prof, cluster, gbs, cache=default_cache()).plan,
        args.schedule,
    )
    try:
        measure("GPipe", gpipe_plan(prof, cluster, gbs), "gpipe")
    except ValueError as e:
        rows.append(["GPipe", "-", f"n/a ({e})", "-", "-", "-", "-"])
    dp = Planner(prof, cluster, gbs).dp_plan()
    if dp is not None:
        measure("DP", dp, "dapple")
    else:
        rows.append(["DP", "DP", "OOM", "-", "-", "-", "-"])

    fault_desc = ", ".join(type(m).__name__ for m in models)
    print(format_table(
        ["system", "plan", "clean", "p50", "p95", "p95/clean", "crit-path shift"],
        rows,
        title=f"{model.name} on config {args.config}, GBS={gbs} — "
        f"{args.ensemble} seeds ({fault_desc}), seed base {args.seed}",
    ))

    if args.robust_k > 0:
        rob = robust_plan(
            prof, cluster, gbs, models, seeds,
            q=args.quantile, top_k=args.robust_k,
        )
        cand_rows = [
            [
                c.notation,
                f"{c.clean * 1e3:.1f}ms",
                f"{c.quantile * 1e3:.1f}ms",
                "+".join(
                    tag
                    for tag, hit in (
                        ("robust", c is rob.robust),
                        ("clean-opt", c is rob.clean_optimal),
                    )
                    if hit
                ),
            ]
            for c in rob.candidates
        ]
        print()
        print(format_table(
            ["plan", "clean", f"p{args.quantile * 100:.0f}", "pick"],
            cand_rows,
            title=f"Robust selection over planner top-{args.robust_k}: "
            + ("selection CHANGED under perturbation"
               if rob.selection_changed else "clean-optimal plan is also robust"),
        ))
    return 0


def _check_arms(prof, cluster, gbs):
    """The three system arms ``repro check`` verifies per model.

    Mirrors ``repro faults``: the planner's DAPPLE plan, the same plan under
    a GPipe flush schedule, and pure data parallelism.
    """
    planner = Planner(prof, cluster, gbs)
    plan = planner.search().plan
    arms = [("DAPPLE", plan, "dapple"), ("GPipe", plan, "gpipe")]
    dp = planner.dp_plan()
    if dp is not None:
        arms.append(("DP", dp, "dapple"))
    return arms


def _schedule_arm(prof, cluster, gbs, spec: str):
    """The single arm ``repro check --schedule SPEC`` verifies per model.

    Resolves ``spec`` through the schedule registry; interleaved schedules
    get an interleaved (virtual-stage) plan built for the model, everything
    else runs on the planner's best plan.  Raises ``ValueError`` when the
    model/cluster cannot host the schedule (too few layers for the virtual
    stages, M not divisible by the device count, ...).
    """
    from repro.core.plan import interleaved_straight_plan
    from repro.schedules import parse_schedule_spec

    name, params = parse_schedule_spec(spec)
    if name == "interleaved":
        v = params.get("v", 2)
        p_devs = cluster.num_devices
        # Smallest M that is a multiple of the device count and keeps the
        # per-micro-batch slice at or below the calibrated profile batch.
        per = max(1, gbs // (prof.graph.profile_batch * p_devs))
        m = p_devs * per
        plan = interleaved_straight_plan(
            prof.graph, cluster.devices, gbs, m, virtual_per_device=v
        )
    else:
        plan = Planner(prof, cluster, gbs).search().plan
    return [(spec, plan, spec)]


def cmd_check(args) -> int:
    """``repro check``: conformance invariants + differential oracles.

    Verifies every (model, system, engine) combination's executed schedule
    against the DAPPLE semantics in :mod:`repro.check.invariants`, then runs
    the differential oracles (engine equivalence, replica folding,
    fast-scan vs scalar planner, explain decomposition, clean fault path,
    memory M-independence).  ``--schedule`` runs only the engine and fold
    oracles, on the schedule arm's graph.  Any violation prints the
    offending op/stage/invariant and exits 2; memory-infeasible
    combinations are skipped, not failed.
    """
    from repro.check import (
        generate_cases, oracle_engines, oracle_fold, run_oracles,
        verify_execution,
    )
    from repro.experiments.reporting import format_table
    from repro.runtime.executor import PipelineExecutor
    from repro.sim.engine import ENGINES

    engines = list(ENGINES) if args.engine is None else [args.engine]
    if args.schedule:
        from repro.schedules import parse_schedule_spec

        # Bad specs are argument errors (exit 2); only build-time geometry
        # failures (model can't host the schedule) skip rows below.
        parse_schedule_spec(args.schedule)
    names = model_names() if args.suite == "zoo" else [args.model]
    rows = []
    failed_reports = []

    def record(subject, arm, engine, report) -> None:
        if report is None:
            rows.append([subject, arm, engine, "-", "-", "skip (OOM)"])
            return
        rows.append([
            subject, arm, engine, len(report.checks), len(report.violations),
            "ok" if report.ok else "VIOLATED",
        ])
        if not report.ok:
            failed_reports.append(report)

    with obs.span("check.suite", suite=args.suite):
        for name in names:
            model = get_model(name)
            cluster = config_by_name(args.config, args.devices)
            gbs = args.gbs if args.gbs is not None else paper_gbs(name)
            prof = profile_model(model)
            if args.schedule:
                try:
                    arms = _schedule_arm(prof, cluster, gbs, args.schedule)
                except ValueError as e:
                    rows.append([name, args.schedule, "-", "-", "-",
                                 f"skip ({e})"])
                    arms = []
            else:
                arms = _check_arms(prof, cluster, gbs)
            for arm, plan, sched in arms:
                for engine in engines:
                    try:
                        rep = verify_execution(
                            prof, cluster, plan, schedule=sched, engine=engine
                        )
                    except OutOfMemoryError:
                        rep = None
                    record(name, arm, engine, rep)
            if args.no_oracles:
                continue
            if args.schedule:
                # The engine and fold oracles, on the schedule arm's graph.
                for arm, plan, sched in arms:
                    try:
                        graph = PipelineExecutor(
                            prof, cluster, plan, schedule=sched
                        ).build_graph()
                        rep = oracle_engines(graph, subject=f"{name} {arm}")
                    except OutOfMemoryError:
                        rep = None
                    record(name, "oracles", "engines", rep)
                    try:
                        rep = oracle_fold(
                            prof, cluster, plan, subject=f"{name} {arm}",
                            schedule=sched,
                        )
                    except OutOfMemoryError:
                        rep = None
                    record(name, "oracles", "fold", rep)
                continue
            try:
                plan = _check_arms(prof, cluster, gbs)[0][1]
                rep = run_oracles(
                    prof, cluster, plan, gbs=gbs, subject=f"{name} oracles"
                )
            except OutOfMemoryError:
                rep = None
            record(name, "oracles", "all", rep)
        for case in generate_cases(args.generated, base_seed=args.seed):
            subject = f"gen seed={case.seed}"
            try:
                rep = verify_execution(
                    case.profile, case.cluster, case.plan,
                    warmup_policy=case.warmup_policy,
                )
            except OutOfMemoryError:
                rep = None
            record(subject, case.plan.notation, "default", rep)

    print(format_table(
        ["subject", "system", "engine", "invariants", "violations", "status"],
        rows,
        title=f"Conformance check — suite {args.suite}, config {args.config}",
    ))
    if failed_reports:
        print()
        for rep in failed_reports:
            print(rep.render(), file=sys.stderr)
        print(f"\nFAILED: {len(failed_reports)} conformance report(s) "
              "with violations", file=sys.stderr)
        return 2
    print("\nall conformance checks passed")
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: run the planner service until SIGTERM/SIGINT."""
    import signal
    import threading

    from repro.serve import PlanServer

    server = PlanServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        data_dir=args.data_dir,
        exec_mode=args.exec,
        access_log=args.access_log,
    )
    server.start()
    print(f"serving  : {server.url}", flush=True)
    print(f"data dir : {server.data_dir}")
    print(f"workers  : {server.pool.workers} ({server.pool.mode}), "
          f"queue depth {server.queue.max_depth}")
    print("endpoints: POST /v1/plans | GET /v1/jobs/<id> "
          "/v1/artifacts/<digest> /v1/cache/stats /healthz", flush=True)

    stop = threading.Event()

    def _drain(signum, _frame):
        print(f"\nsignal {signal.Signals(signum).name}: draining "
              f"({server.queue.depth} queued, {server.queue.in_flight} running)",
              flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    stop.wait()
    clean = server.drain(timeout=args.drain_timeout)
    stats = server.queue.stats()
    print(f"drained  : {stats['completed']} done, {stats['failed']} failed, "
          f"{stats['rejected']} rejected ({'clean' if clean else 'timed out'})")
    return 0 if clean else 1


def cmd_submit(args) -> int:
    """``repro submit``: send one plan request to a running service."""
    import json as _json

    from repro.serve import PlanClient, ServiceError

    request = {
        "model": args.model,
        "config": args.config,
        "devices": args.devices,
        "explain": args.explain,
        "check": args.check,
    }
    if args.gbs is not None:
        request["gbs"] = args.gbs
    if args.schedule != "dapple":
        request["schedule"] = args.schedule
    planner = {}
    if args.beam != 48:
        planner["beam_width"] = args.beam or None
    if args.max_stages is not None:
        planner["max_stages"] = args.max_stages
    if args.pipeline_only:
        planner["min_stages"] = 2
    if args.explain:
        planner["keep_top_k"] = 4
    if planner:
        request["planner"] = planner

    client = PlanClient(args.url, timeout=args.timeout)
    try:
        submitted = client.submit(request)
        job_id = submitted["job_id"]
        if not args.json:
            print(f"job      : {job_id} @ {args.url}")
        if args.no_wait:
            print(f"status   : {args.url}{submitted['status_url']}")
            return 0
        job = client.wait(job_id, timeout=args.timeout)
        result = client.result(job)
    except ServiceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if e.status == 400 else 1
    if args.json:
        print(_json.dumps(result, indent=2, sort_keys=True))
        return 0
    est = result["estimate"]
    print(f"plan     : {result['notation']} (layers {result['split']}, "
          f"M={result['num_micro_batches']})")
    print(f"latency  : {est['latency'] * 1e3:.1f} ms estimated "
          f"(Tw={est['warmup'] * 1e3:.1f} Ts={est['steady'] * 1e3:.1f} "
          f"Te={est['ending'] * 1e3:.1f}, pivot stage {est['pivot']})")
    print(f"searched : {result['counters']['plans_evaluated']} plans "
          f"({'plan-cache hit' if result['cache_hit'] else 'fresh search'})")
    for name, digest in job.get("artifacts", {}).items():
        print(f"artifact : {name} = /v1/artifacts/{digest}")
    if args.explain and "explain" in result:
        print()
        print(result["explain"])
    if args.check and "check" in result:
        check = result["check"]
        print(f"check    : {'ok' if check.get('ok') else 'FAILED'} "
              f"({len(check.get('invariants', []))} invariants)")
        if not check.get("ok"):
            print(check.get("render", ""), file=sys.stderr)
            return 1
    return 0


def cmd_obs(args) -> int:
    """``repro obs``: tail/summarize JSONL telemetry, watch a live server."""
    from repro.obs import console

    if args.obs_command == "tail":
        attempted = 0
        try:
            for line in console.tail_events(
                args.path, follow=args.follow, trace=args.trace_filter,
                name=args.name, limit=args.limit,
            ):
                print(line, flush=args.follow)
                attempted += 1
        except FileNotFoundError:
            print(f"error: no such file {args.path}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            pass
        return 0

    if args.obs_command == "summarize":
        attrs = {}
        for spec in args.attr or ():
            key, sep, value = spec.partition("=")
            if not sep:
                print(f"error: --attr wants KEY=VALUE, got {spec!r}",
                      file=sys.stderr)
                return 2
            attrs[key] = value
        records = []
        for path in args.paths:
            try:
                records.extend(console.iter_events(path))
            except FileNotFoundError:
                print(f"error: no such file {path}", file=sys.stderr)
                return 2
        rows = console.summarize_spans(
            records, name=args.name, trace=args.trace_filter,
            attrs=attrs or None
        )
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            print(console.render_summary(rows))
        return 0

    # obs top
    iterations = args.iterations
    shown = 0
    try:
        while iterations is None or shown < iterations:
            try:
                text = console.fetch_metrics(args.url, timeout=args.timeout)
            except OSError as e:
                print(f"error: cannot scrape {args.url}/metrics: {e}",
                      file=sys.stderr)
                return 1
            if not args.no_clear and shown:
                print("\033[2J\033[H", end="")
            print(console.render_dashboard(text, url=args.url), flush=True)
            shown += 1
            if iterations is not None and shown >= iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_cache(args) -> int:
    """``repro cache``: inspect or clear an on-disk plan-cache tier."""
    from pathlib import Path

    from repro.core.plancache import PlanCache
    from repro.experiments.reporting import format_table

    directory = Path(args.dir)
    if args.action == "clear" and not directory.exists():
        print(f"error: no such cache directory {directory}", file=sys.stderr)
        return 2
    cache = PlanCache(directory)
    if args.action == "clear":
        removed = cache.clear_disk()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {directory}")
        return 0
    stats = cache.stats()
    rows = [
        ["disk entries", stats["disk_entries"]],
        ["disk bytes", f"{stats['disk_bytes']:,}"],
        ["max disk bytes", stats["max_disk_bytes"] or "unbounded"],
        ["directory", stats["directory"]],
    ]
    print(format_table(["field", "value"], rows,
                       title=f"plan cache @ {directory}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAPPLE reproduction: hybrid pipeline/data-parallel planning "
        "and simulation",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the benchmark model zoo")

    p = sub.add_parser("plan", help="search for the best hybrid plan")
    _add_common(p)
    p.add_argument("--beam", type=int, default=48, help="beam width (0 = exhaustive)")
    p.add_argument("--max-stages", type=int, default=None)
    p.add_argument("--pipeline-only", action="store_true", help="exclude pure DP")
    p.add_argument("--save", metavar="FILE", help="write the plan as JSON")
    p.add_argument(
        "--explain", action="store_true",
        help="print the winner's Tw/Ts/Te per-stage decomposition and the "
        "runner-up comparison",
    )
    _add_schedule(p, default=None)
    _add_plan_cache(p)
    _add_obs(p)

    p = sub.add_parser("run", help="simulate one training iteration")
    _add_common(p)
    p.add_argument("--plan", metavar="FILE", help="load a saved plan instead of searching")
    _add_schedule(p)
    p.add_argument("--warmup", default="PA", choices=["PA", "PB"])
    p.add_argument("--recompute", default="none", choices=["none", "boundary", "sqrt"])
    p.add_argument(
        "--sim-engine", default="compiled", choices=["compiled", "reference"],
        help="simulator event loop (default: compiled; reference = oracle)",
    )
    p.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    _add_obs(p)

    p = sub.add_parser("compare", help="DAPPLE vs PipeDream vs GPipe vs DP")
    _add_common(p)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=[*EXPERIMENTS, "all"])
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep-able experiments (fig12/fig14/"
        "table7/straggler_sweep); 0 = all cores but one",
    )
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="base RNG seed for seeded experiments (convergence/"
        f"straggler_sweep); default {DEFAULT_SEED} keeps runs reproducible",
    )
    _add_plan_cache(p)
    _add_obs(p)

    p = sub.add_parser(
        "check",
        help="verify schedule conformance invariants and differential oracles",
    )
    _add_common(p)
    p.add_argument(
        "--suite", default="one", choices=["one", "zoo"],
        help="'one' checks --model only; 'zoo' sweeps every benchmark model",
    )
    p.add_argument(
        "--engine", default=None, choices=["compiled", "reference"],
        help="restrict to one simulator engine (default: check all)",
    )
    p.add_argument(
        "--generated", type=int, default=0, metavar="N",
        help="additionally verify N seeded random pipeline instances",
    )
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"base seed for --generated cases (default {DEFAULT_SEED})",
    )
    p.add_argument(
        "--no-oracles", action="store_true",
        help="skip the differential oracles (invariants only)",
    )
    _add_schedule(p, default=None)
    _add_obs(p)

    p = sub.add_parser(
        "faults", help="fault injection: robustness of DAPPLE vs GPipe vs DP"
    )
    _add_common(p)
    _add_schedule(p)
    p.add_argument(
        "--straggler", type=_finite_float, default=1.5,
        help="persistent slow-device factor (>1 enables; default 1.5)",
    )
    p.add_argument(
        "--num-stragglers", type=int, default=1,
        help="how many devices the straggler model slows (default 1)",
    )
    p.add_argument(
        "--jitter", type=_finite_float, default=0.05,
        help="lognormal compute-jitter sigma (>0 enables; default 0.05)",
    )
    p.add_argument(
        "--link-factor", type=_finite_float, default=1.0,
        help="degraded-link slowdown factor (>1 enables; default off)",
    )
    p.add_argument(
        "--flaky-prob", type=_finite_float, default=None,
        help="make the degraded link flaky: per-transfer hit probability",
    )
    p.add_argument(
        "--fail-stall", type=_finite_float, default=0.0,
        help="transient device failure: stall-and-recover seconds (>0 enables)",
    )
    p.add_argument(
        "--ensemble", type=int, default=16,
        help="Monte-Carlo ensemble size (seeds per plan; default 16)",
    )
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"base RNG seed for the ensemble (default {DEFAULT_SEED})",
    )
    p.add_argument(
        "--robust-k", type=int, default=0,
        help="also re-score the planner's top-K plans by quantile makespan "
        "(0 = skip)",
    )
    p.add_argument(
        "--quantile", type=float, default=0.95,
        help="makespan quantile for robust selection (default 0.95)",
    )
    _add_plan_cache(p)
    _add_obs(p)

    p = sub.add_parser(
        "serve", help="run the planner as a long-lived HTTP service"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 = ephemeral; default 8080)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent plan workers (default 2)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="max pending jobs before 429 backpressure (default 64)")
    p.add_argument("--data-dir", metavar="DIR", default=None,
                   help="artifact store + plan-cache directory "
                   "(default: a fresh temp dir)")
    p.add_argument("--exec", default="fork", choices=["fork", "inline"],
                   help="job execution: 'fork' = process pool inheriting the "
                   "warm plan cache (falls back to inline where unavailable); "
                   "'inline' = in the worker threads")
    p.add_argument("--access-log", metavar="FILE", default=None,
                   help="append one JSONL line per HTTP request")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to wait for in-flight jobs on SIGTERM")
    _add_obs(p)

    p = sub.add_parser(
        "submit", help="submit one plan request to a running service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8080",
                   help="service base URL (default http://127.0.0.1:8080)")
    _add_common(p)
    p.add_argument("--beam", type=int, default=48, help="beam width (0 = exhaustive)")
    p.add_argument("--max-stages", type=int, default=None)
    p.add_argument("--pipeline-only", action="store_true", help="exclude pure DP")
    p.add_argument("--explain", action="store_true",
                   help="also fetch the Tw/Ts/Te breakdown report")
    p.add_argument("--check", action="store_true",
                   help="also run the conformance battery on the served plan")
    _add_schedule(p)
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and exit without polling")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="submit/poll deadline in seconds (default 120)")
    p.add_argument("--json", action="store_true",
                   help="print the raw result artifact as JSON")

    p = sub.add_parser(
        "cache", help="inspect or clear an on-disk plan-cache tier"
    )
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--plan-cache", dest="dir", metavar="DIR", required=True,
                   help="cache directory (same as --plan-cache elsewhere)")

    p = sub.add_parser(
        "obs", help="observability console: tail/summarize logs, watch /metrics"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    t = obs_sub.add_parser(
        "tail", help="pretty-print a JSONL event/access log, trace-aware"
    )
    t.add_argument("path", help="JSONL file (obs export or server access log)")
    t.add_argument("-f", "--follow", action="store_true",
                   help="keep watching for appended lines (Ctrl-C to stop)")
    # dest avoids colliding with the global `--trace FILE` export option,
    # which main() reads via getattr(args, "trace", None)
    t.add_argument("--trace", dest="trace_filter", default=None,
                   metavar="ID",
                   help="only events whose trace id starts with ID")
    t.add_argument("--name", default=None, metavar="SUBSTR",
                   help="only spans/events whose name contains SUBSTR")
    t.add_argument("--limit", type=int, default=None, metavar="N",
                   help="stop after N matching lines")

    s = obs_sub.add_parser(
        "summarize", help="per-span-name latency table from JSONL log(s)"
    )
    s.add_argument("paths", nargs="+", help="JSONL export(s) to aggregate")
    s.add_argument("--trace", dest="trace_filter", default=None,
                   metavar="ID",
                   help="only spans whose trace id starts with ID")
    s.add_argument("--name", default=None, metavar="SUBSTR",
                   help="only spans whose name contains SUBSTR")
    s.add_argument("--attr", action="append", metavar="K=V",
                   help="only spans whose attr K equals V (repeatable)")
    s.add_argument("--json", action="store_true",
                   help="print rows as JSON instead of a table")

    o = obs_sub.add_parser(
        "top", help="refreshing console dashboard over a live /metrics"
    )
    o.add_argument("--url", default="http://127.0.0.1:8080",
                   help="service base URL (default http://127.0.0.1:8080)")
    o.add_argument("--interval", type=float, default=2.0,
                   help="seconds between scrapes (default 2)")
    o.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="stop after N refreshes (default: until Ctrl-C)")
    o.add_argument("--timeout", type=float, default=5.0,
                   help="per-scrape HTTP timeout in seconds")
    o.add_argument("--no-clear", action="store_true",
                   help="append refreshes instead of clearing the screen")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success, 1 runtime failure (e.g. OOM), 2 bad arguments —
    both argparse rejections and domain lookups (unknown model, invalid
    hardware config) that surface as ``ValueError``/``KeyError``.
    """
    args = build_parser().parse_args(argv)
    if args.command == "plan" and args.beam == 0:
        args.beam = None
    if getattr(args, "no_plan_cache", False):
        configure_default(enabled=False)
    elif getattr(args, "plan_cache", None):
        configure_default(directory=args.plan_cache)
    handlers = {
        "models": cmd_models,
        "plan": cmd_plan,
        "run": cmd_run,
        "compare": cmd_compare,
        "experiment": cmd_experiment,
        "check": cmd_check,
        "faults": cmd_faults,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "cache": cmd_cache,
        "obs": cmd_obs,
    }
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    instrument = bool(trace_path or want_metrics)
    if instrument:
        obs.enable(reset_state=True)
    try:
        code = handlers[args.command](args)
    except (ValueError, KeyError) as e:
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 2
    finally:
        if instrument:
            obs.disable()
    if instrument and code == 0:
        if want_metrics:
            print()
            print(obs.summary())
        if trace_path and args.command != "run":  # run exports in-handler
            if str(trace_path).endswith(".jsonl"):
                path = obs.export_jsonl(trace_path)
            else:
                path = obs.export_chrome(trace_path)
            print(f"observability trace: {path}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""A/B measurement of observability overhead on the heavy benchmarks.

Runs the BERT-48 M=256 compiled-simulator benchmark and the BERT-48
planner fast-scan search twice each — once with observability disabled
(the default no-op path) and once with tracing + metrics enabled — and
records the wall-time delta to ``results/perf_obs.txt``.

Also A/Bs the serve path: a live :class:`~repro.serve.server.PlanServer`
with tracing + metrics on (the default) vs off, measured on warm
(plan-cache-hit) ``POST /v1/plans`` submissions — the request path that
pays for context minting, the ``serve.request`` span, per-route counters,
histograms, and the SLO window.  The enabled arm must stay within 5% of
the disabled arm (with a 0.5 ms absolute floor); nightly CI runs this
script and gates on it, plus ``benchmarks/check_regression.py`` over the
committed ``results/perf_obs.json`` (bench-v1) baseline.

The heavy-kernel arms stay standalone-calibration only: wall-clock A/B
deltas at the 1-2% level are too noisy for a CI assertion, so tier-1
instead enforces that budget structurally in
``tests/perf/test_obs_overhead.py`` (shared no-op singletons + measured
per-call no-op cost times a padded touchpoint count).  This script is the
full measurement behind that budget.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import repro.obs as obs
from repro.cluster import config_a
from repro.core import Planner, profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.models import get_model
from repro.runtime.executor import PipelineExecutor
from repro.sim import Simulator

ROUNDS = 3


def _bert48_graph(num_micro_batches=256):
    prof = profile_model(get_model("bert48"))
    clu = config_a(16)
    d = clu.devices
    plan = ParallelPlan(
        prof.graph,
        [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))],
        2 * num_micro_batches,
        num_micro_batches,
    )
    return PipelineExecutor(prof, clu, plan, enforce_memory=False).build_graph()


def _time_sim_pair(rounds=2 * ROUNDS):
    """Best-of-rounds (disabled, enabled) walls for one simulator run.

    The two arms are interleaved within every round — fresh graph, run
    disabled, fresh graph, run enabled — so slow phases of the host bias
    both sides equally instead of whichever arm ran later."""
    best_off = best_on = None
    makespan_off = makespan_on = 0.0

    def one(enabled):
        g = _bert48_graph()
        if enabled:
            obs.enable(reset_state=True)
        t0 = time.perf_counter()
        res = Simulator(g).run()
        dt = time.perf_counter() - t0
        if enabled:
            obs.disable()
        return dt, res.makespan

    for _ in range(rounds):
        dt, makespan_off = one(False)
        best_off = dt if best_off is None else min(best_off, dt)
        dt, makespan_on = one(True)
        best_on = dt if best_on is None else min(best_on, dt)
    return best_off, best_on, makespan_off, makespan_on


def _time_planner_pair():
    prof = profile_model(get_model("bert48"))
    clu = config_a(16)
    best_off = best_on = None

    def one(enabled):
        if enabled:
            obs.enable(reset_state=True)
        t0 = time.perf_counter()
        res = Planner(prof, clu, 64).search()
        dt = time.perf_counter() - t0
        if enabled:
            obs.disable()
        assert res.plan is not None
        return dt

    for _ in range(ROUNDS):
        dt = one(False)
        best_off = dt if best_off is None else min(best_off, dt)
        dt = one(True)
        best_on = dt if best_on is None else min(best_on, dt)
    return best_off, best_on


def _serve_arm(obs_enabled: bool, warm: int = 40) -> float:
    """Median warm ``POST /v1/plans`` wall against one live server."""
    from repro.core.serialization import graph_to_dict
    from repro.models import uniform_model
    from repro.serve import PlanClient, PlanServer

    graph = uniform_model(
        "perf-obs-serve", 6, 2e9, 500_000, 2e6, profile_batch=4
    )
    body = {
        "graph": graph_to_dict(graph), "config": "A",
        "devices": 8, "gbs": 32,
    }
    srv = PlanServer(
        workers=1, exec_mode="inline", queue_depth=64,
        obs_enabled=obs_enabled,
    ).start()
    try:
        client = PlanClient(srv.url, timeout=30.0)
        client.wait(
            client.submit(body)["job_id"], timeout=120.0, poll_interval=0.002
        )
        submits = []
        job = None
        for _ in range(warm):
            t0 = time.perf_counter()
            sub = client.submit(body)
            submits.append(time.perf_counter() - t0)
            job = client.wait(sub["job_id"], timeout=60.0, poll_interval=0.001)
        assert job["summary"]["cache_hit"] is True, "warm arm missed the cache"
        submits.sort()
        return submits[len(submits) // 2]
    finally:
        srv.close()


def _time_serve_pair(rounds=ROUNDS):
    """Best-of-rounds (disabled, enabled) median warm-submit walls."""
    best_off = best_on = None
    for _ in range(rounds):
        dt = _serve_arm(False)
        best_off = dt if best_off is None else min(best_off, dt)
        dt = _serve_arm(True)
        best_on = dt if best_on is None else min(best_on, dt)
    return best_off, best_on


#: Warm serve requests with tracing on must stay within 5% of tracing off
#: (0.5 ms absolute floor so sub-ms scheduler noise cannot trip the gate).
SERVE_OVERHEAD_PCT = 0.05
SERVE_OVERHEAD_FLOOR_S = 5e-4


def main() -> int:
    sim_off, sim_on, makespan_off, makespan_on = _time_sim_pair()
    assert makespan_on == makespan_off, "instrumentation changed the result"
    plan_off, plan_on = _time_planner_pair()
    serve_off, serve_on = _time_serve_pair()
    serve_limit = max(
        serve_off * (1.0 + SERVE_OVERHEAD_PCT),
        serve_off + SERVE_OVERHEAD_FLOOR_S,
    )

    lines = [
        "observability overhead, disabled/enabled arms interleaved per round\n"
        "(best of %d rounds for the planner, %d for the simulators)\n"
        % (ROUNDS, 2 * ROUNDS),
        "\n",
        "compiled simulator, BERT-48 on Config A (16 GPUs), M=256\n",
        f"  obs disabled (default no-op path) : {sim_off * 1e3:9.1f} ms\n",
        f"  obs enabled (spans + histograms)  : {sim_on * 1e3:9.1f} ms\n",
        f"  enabled overhead                  : {(sim_on / sim_off - 1) * 100:+9.1f} %\n",
        "\n",
        "planner fast-scan search, BERT-48 on Config A, GBS=64\n",
        f"  obs disabled (default no-op path) : {plan_off * 1e3:9.1f} ms\n",
        f"  obs enabled (spans + counters)    : {plan_on * 1e3:9.1f} ms\n",
        f"  enabled overhead                  : {(plan_on / plan_off - 1) * 100:+9.1f} %\n",
        "\n",
        "serve path, warm POST /v1/plans (plan-cache hit), median of 40\n",
        f"  tracing off (obs_enabled=False)   : {serve_off * 1e3:9.2f} ms\n",
        f"  tracing on (default: spans, SLO,  : {serve_on * 1e3:9.2f} ms\n",
        "                counters, histograms)\n",
        f"  enabled overhead                  : {(serve_on / serve_off - 1) * 100:+9.1f} %"
        f"  (gate: <= {serve_limit * 1e3:.2f} ms)\n",
        "\n",
        "the disabled path is the shipped default; its budget (<2% of sim\n",
        "wall time) is enforced structurally in tests/perf/test_obs_overhead.py,\n",
        "as is the enabled-path budget (<20%): per-resource occupancy and\n",
        "per-device memory-peak gauges are registered with collect-time\n",
        "providers (Gauge.set_fn) backed by vectorized busy_totals/peak_all\n",
        "passes, so the simulation's critical path only pays for list appends\n",
        "and two bulk histogram records\n",
    ]
    out = pathlib.Path(__file__).resolve().parent.parent / "results" / "perf_obs.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(lines))
    sys.stdout.write("".join(lines))
    sys.stdout.write(f"\nwrote {out}\n")

    from repro.perf.record import write_bench_json

    json_out = write_bench_json(
        out.parent / "perf_obs.json",
        "perf_obs",
        {
            "kernel_model": "bert48", "cluster": "A",
            "num_micro_batches": 256,
            "serve_model": "uniform-6", "serve_warm_requests": 40,
        },
        [
            {"name": "sim_compiled_off", "ms": sim_off * 1e3},
            {"name": "sim_compiled_on", "ms": sim_on * 1e3},
            {"name": "planner_off", "ms": plan_off * 1e3},
            {"name": "planner_on", "ms": plan_on * 1e3},
            {"name": "serve_warm_submit_off", "ms": serve_off * 1e3},
            {
                "name": "serve_warm_submit_on", "ms": serve_on * 1e3,
                "overhead_pct": round((serve_on / serve_off - 1) * 100, 2),
            },
        ],
        repo_root=out.parent.parent,
    )
    sys.stdout.write(f"wrote {json_out}\n")

    if serve_on > serve_limit:
        sys.stderr.write(
            f"FAIL: warm serve requests with tracing on took "
            f"{serve_on * 1e3:.2f} ms, over the "
            f"{SERVE_OVERHEAD_PCT:.0%}+{SERVE_OVERHEAD_FLOOR_S * 1e3:.1f}ms "
            f"gate ({serve_limit * 1e3:.2f} ms vs {serve_off * 1e3:.2f} ms "
            f"with tracing off)\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

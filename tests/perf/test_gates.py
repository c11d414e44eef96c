"""Performance gates behind the paper's planner and runtime claims.

Each test pins one claim with a fixed workload and a fixed threshold:

* **planner** — the §IV-C level-batched search is bit-identical to the
  scalar ``evaluate_plan`` oracle and to a warm plan-cache hit, at least
  40x faster than the oracle on BERT-48 / Config B, and a warm cache hit
  costs at most 5 ms;
* **ensemble** — the batched 32-seed fault ensemble is bit-identical to
  the per-seed oracle, the straggler ensemble costs at most 3x one clean
  evaluation, and the jittered ensemble never loses to the per-seed path;
* **serve** — warm (plan-cache hit) requests through the HTTP service
  have p95 at most 50 ms;
* **obs** — tracing on the serve path costs at most 5% (0.5 ms floor) of a
  warm submit;
* **simulator** — the compiled event loop matches the reference loop's
  makespan and is more than 2x faster on a ~66k-op graph.

Timed arms are best-of-3 to damp scheduler noise.  The module is slow
(a few minutes) and runs in the nightly pass::

    PYTHONPATH=src python -m pytest -q -m slow tests/perf/test_gates.py

Tier-1 keeps cheaper versions of these guards in the ``*_smoke`` modules.
"""

import functools
import time

import pytest

from repro.check import ScalarPlanner, per_seed_ensemble, planner_diffs
from repro.cluster import config_a, config_by_name
from repro.core import Planner, PlannerConfig, profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.core.plancache import PlanCache
from repro.core.planner import plan_best
from repro.core.serialization import graph_to_dict
from repro.faults import ComputeJitter, SlowDevice, run_ensemble
from repro.faults.analysis import evaluate_seed
from repro.models import get_model, uniform_model
from repro.runtime.executor import PipelineExecutor
from repro.serve import PlanClient, PlanServer
from repro.sim import Simulator

pytestmark = pytest.mark.slow

ROUNDS = 3


def _best(fn, rounds=ROUNDS):
    """(best wall in seconds, last result) over ``rounds`` calls."""
    best = None
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


@functools.lru_cache(maxsize=None)
def _bert48_two_stage(num_micro_batches):
    """BERT-48 on Config A (16 GPUs): two stages of 8 replicas each."""
    prof = profile_model(get_model("bert48"))
    clu = config_a(16)
    d = clu.devices
    plan = ParallelPlan(
        prof.graph,
        [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))],
        2 * num_micro_batches,
        num_micro_batches,
    )
    return prof, clu, plan


# --------------------------------------------------------------- planner

SPEEDUP_TARGET = 40.0
CACHE_HIT_MS_TARGET = 5.0
PLANNER_GBS = 64


def _planner_arms(model, config):
    """Best-of-3 walls and results of the level, scalar and warm-cache arms."""
    prof = profile_model(get_model(model))
    clu = config_by_name(config, 16)
    cfg = PlannerConfig()

    walls, results = {}, {}
    for name, planner_cls in (("level", Planner), ("scalar", ScalarPlanner)):
        walls[name], results[name] = _best(
            lambda cls=planner_cls: cls(prof, clu, PLANNER_GBS, cfg).search()
        )

    cache = PlanCache()  # memory tier only: the warm-hit case
    cache.store(prof, clu, PLANNER_GBS, cfg, results["level"])
    walls["cache_hit"], results["cache_hit"] = _best(
        lambda: plan_best(prof, clu, PLANNER_GBS, cfg, cache=cache)
    )
    assert cache.hits == ROUNDS and cache.misses == 0
    return walls, results


def _assert_arms_identical(results):
    for name in ("scalar", "cache_hit"):
        assert planner_diffs(results["level"], results[name]) == [], name


def test_planner_bert48_config_b():
    walls, results = _planner_arms("bert48", "B")
    _assert_arms_identical(results)
    speedup = walls["scalar"] / walls["level"]
    assert speedup >= SPEEDUP_TARGET, (
        f"level-batched search is {speedup:.2f}x the scalar oracle "
        f"(target >= {SPEEDUP_TARGET:.1f}x)"
    )
    hit_ms = walls["cache_hit"] * 1e3
    assert hit_ms <= CACHE_HIT_MS_TARGET, (
        f"warm cache hit took {hit_ms:.2f} ms "
        f"(target <= {CACHE_HIT_MS_TARGET:.1f} ms)"
    )


def test_planner_gnmt16_config_c_bit_identical():
    _, results = _planner_arms("gnmt16", "C")
    _assert_arms_identical(results)


# -------------------------------------------------------------- ensemble

NUM_SEEDS = 32
STRAGGLER = (SlowDevice(factor=1.5),)
HEAVY = (SlowDevice(factor=1.5), ComputeJitter(sigma=0.05))
TARGET_FACTOR = 3.0


def _ensemble(fn, models):
    prof, clu, plan = _bert48_two_stage(128)
    return fn(prof, clu, plan, models, range(NUM_SEEDS), enforce_memory=False)


def test_straggler_ensemble_within_3x_single_evaluation():
    """32 extra straggler scenarios cost at most two more clean runs."""
    prof, clu, plan = _bert48_two_stage(128)
    single, _ = _best(
        lambda: evaluate_seed(prof, clu, plan, (), 0, enforce_memory=False)
    )
    batched_wall, batched = _best(lambda: _ensemble(run_ensemble, STRAGGLER))
    assert batched.identical(_ensemble(per_seed_ensemble, STRAGGLER))
    factor = batched_wall / single
    assert factor <= TARGET_FACTOR, (
        f"batched {NUM_SEEDS}-seed straggler ensemble ran in {factor:.2f}x "
        f"one clean evaluation (target <= {TARGET_FACTOR:.1f}x)"
    )


def test_heavy_ensemble_beats_per_seed_path():
    """Jittered rows batch no completion ties, so this ensemble is gated
    on beating the per-seed oracle rather than on the 3x unit."""
    batched_wall, batched = _best(lambda: _ensemble(run_ensemble, HEAVY))
    per_seed_wall, per_seed = _best(lambda: _ensemble(per_seed_ensemble, HEAVY))
    assert batched.identical(per_seed)
    assert batched_wall <= per_seed_wall, (
        f"batched heavy ensemble took {batched_wall * 1e3:.0f} ms vs "
        f"{per_seed_wall * 1e3:.0f} ms per-seed"
    )


# ----------------------------------------------------------------- serve

SERVE_GBS_GRID = [256, 512, 1024, 2048]
WARM_ROUNDS = 8
POLL_INTERVAL_S = 0.002
WARM_P95_TARGET_MS = 50.0


def _percentile(samples, q):
    xs = sorted(samples)
    idx = min(len(xs) - 1, max(0, round(q / 100 * (len(xs) - 1))))
    return xs[idx]


def _drive(client, requests):
    """One closed-loop pass; returns per-request end-to-end seconds."""
    latencies = []
    for body in requests:
        t0 = time.perf_counter()
        job = client.wait(
            client.submit(body)["job_id"], timeout=300.0,
            poll_interval=POLL_INTERVAL_S,
        )
        result = client.result(job)
        latencies.append(time.perf_counter() - t0)
        assert result["plan"]["stages"], "served an empty plan"
    return latencies


def test_serve_warm_p95_under_50ms(tmp_path):
    """Closed loop (submit, poll, fetch) against a fork-pool server: a cold
    pass searches, the warm passes must all hit the plan cache."""
    requests = [
        {"model": "vgg19", "config": "C", "devices": 16, "gbs": gbs}
        for gbs in SERVE_GBS_GRID
    ]
    server = PlanServer(
        workers=2, queue_depth=32, exec_mode="fork", data_dir=tmp_path
    ).start()
    try:
        client = PlanClient(server.url, timeout=300.0)
        cold = _drive(client, requests)
        warm = []
        for _ in range(WARM_ROUNDS):
            warm.extend(_drive(client, requests))
        served = client.cache_stats()["served"]
    finally:
        server.close()

    assert served["jobs_done"] == len(cold) + len(warm)
    assert served["cache_hits"] == len(warm), (
        "warm phase was not served from the plan cache: "
        f"{served['cache_hits']}/{len(warm)} hits"
    )
    p95_ms = _percentile(warm, 95) * 1e3
    assert p95_ms <= WARM_P95_TARGET_MS, (
        f"warm p95 {p95_ms:.1f} ms (target <= {WARM_P95_TARGET_MS:.0f} ms)"
    )


# ------------------------------------------------------------------- obs

#: Warm serve requests with tracing on must stay within 5% of tracing off
#: (0.5 ms absolute floor so sub-ms scheduler noise cannot trip the gate).
SERVE_OVERHEAD_PCT = 0.05
SERVE_OVERHEAD_FLOOR_S = 5e-4


def _serve_warm_submit(obs_enabled: bool, warm: int = 40) -> float:
    """Median warm ``POST /v1/plans`` wall against one live server."""
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


def test_serve_tracing_overhead_under_five_percent():
    """Tracing off and on are interleaved within each round, so slow host
    phases bias both arms instead of whichever ran later."""
    off = on = None
    for _ in range(ROUNDS):
        dt = _serve_warm_submit(False)
        off = dt if off is None else min(off, dt)
        dt = _serve_warm_submit(True)
        on = dt if on is None else min(on, dt)
    limit = max(off * (1.0 + SERVE_OVERHEAD_PCT), off + SERVE_OVERHEAD_FLOOR_S)
    assert on <= limit, (
        f"warm serve requests with tracing on took {on * 1e3:.2f} ms, over "
        f"the {SERVE_OVERHEAD_PCT:.0%}+{SERVE_OVERHEAD_FLOOR_S * 1e3:.1f}ms "
        f"gate ({limit * 1e3:.2f} ms vs {off * 1e3:.2f} ms with tracing off)"
    )


# ------------------------------------------------------------- simulator


def _bert48_pipeline_graph(num_micro_batches):
    """A large-M BERT-48 two-stage DAPPLE iteration graph (Config A)."""
    prof, clu, plan = _bert48_two_stage(num_micro_batches)
    return PipelineExecutor(prof, clu, plan, enforce_memory=False).build_graph()


def test_simulator_bert48_before_after():
    """BERT-48 / Config A, M=256 (~66k ops): reference vs compiled event
    loop.  Each engine simulates a freshly built graph — the sweep
    scenario the compiled engine was built for — and makespans must match
    exactly (the engines are bit-identical by contract)."""
    times = {}
    makespans = {}
    for _ in range(2):
        for engine in ("reference", "compiled"):
            g = _bert48_pipeline_graph(256)
            t0 = time.perf_counter()
            res = Simulator(g, engine=engine).run()
            dt = time.perf_counter() - t0
            times[engine] = min(dt, times.get(engine, dt))
            makespans[engine] = res.makespan

    assert makespans["compiled"] == makespans["reference"]
    assert times["compiled"] < times["reference"] / 2

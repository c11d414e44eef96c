"""Micro-benchmarks of the library's hot primitives.

These are conventional pytest-benchmark timings (many rounds) guarding the
performance characteristics the rest of the harness depends on: the
simulator's event throughput, latency-model evaluation speed, planner
search time, and the gradient-equivalent pipeline trainer.
"""

import pathlib
import time

import numpy as np

from repro.check import ScalarPlanner, planner_diffs
from repro.core import Planner, profile_model
from repro.core.latency import evaluate_plan
from repro.core.plan import ParallelPlan, Stage
from repro.experiments.common import cluster, profile
from repro.models import uniform_model
from repro.runtime import execute_plan
from repro.runtime.executor import PipelineExecutor
from repro.schedules import Dapple1F1BSchedule
from repro.sim import Op, Simulator, TaskGraph


def test_simulator_event_throughput(benchmark):
    """10k-op chain graph: engine should sustain >100k ops/s."""

    def build_and_run():
        g = TaskGraph()
        prev = None
        for i in range(10_000):
            g.add(Op(f"op{i}", 1e-6, resources=(f"gpu:{i % 8}",)))
            if prev:
                g.add_dep(prev, f"op{i}")
            prev = f"op{i}"
        return Simulator(g).run().makespan

    makespan = benchmark(build_and_run)
    assert makespan > 0


def test_latency_model_evaluation_speed(benchmark):
    prof = profile("bert48")
    clu = cluster("A")
    d = clu.devices
    plan = ParallelPlan(
        prof.graph,
        [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))],
        64,
        32,
    )
    est = benchmark(lambda: evaluate_plan(prof, clu, plan))
    assert est.latency > 0


def test_planner_search_vgg_config_c(benchmark):
    prof = profile("vgg19")
    clu = cluster("C")
    res = benchmark.pedantic(
        lambda: Planner(prof, clu, 2048).search(), rounds=1, iterations=1
    )
    assert res.plan is not None


def test_planner_search_vgg_config_c_scalar(benchmark):
    """The reference scalar path, kept measurable for before/after deltas."""
    prof = profile("vgg19")
    clu = cluster("C")
    res = benchmark.pedantic(
        lambda: ScalarPlanner(prof, clu, 2048).search(),
        rounds=1,
        iterations=1,
    )
    assert res.plan is not None


def test_planner_search_bert48_before_after():
    """BERT-48 / Config A: the scalar oracle vs the level-batched search.

    Asserts bit-identity and the expected speedup ordering; the
    recorded artifact (``results/perf_planner.txt`` + ``.json``) is owned
    by the standalone ``benchmarks/perf_planner.py`` script, which measures
    the bigger Config B problem best-of-N.
    """
    prof = profile("bert48")
    clu = cluster("A")
    gbs = 64

    t0 = time.perf_counter()
    scalar = ScalarPlanner(prof, clu, gbs).search()
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    level = Planner(prof, clu, gbs).search()
    t_level = time.perf_counter() - t0

    assert planner_diffs(level, scalar) == []
    assert t_level < t_scalar


def _bert48_pipeline_graph(num_micro_batches):
    """A large-M BERT-48 two-stage DAPPLE iteration graph (Config A).

    Uses ``config_a`` directly (micro-batches sharded per replica), which
    yields the ~66k-op graph shape that dominates sweep cost.
    """
    from repro.cluster import config_a
    from repro.models import get_model

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


def test_simulator_bert48_before_after():
    """BERT-48 / Config A, M=256 (~66k ops): reference vs compiled event
    loop, recorded to ``results/perf_sim.txt`` so the speedup is tracked
    in-repo.  Each engine simulates a freshly built graph — the sweep
    scenario the compiled engine was built for — and makespans must match
    exactly (the engines are bit-identical by contract)."""
    times = {}
    ops = 0
    makespans = {}
    for _ in range(2):
        for engine in ("reference", "compiled"):
            g = _bert48_pipeline_graph(256)
            ops = len(g)
            t0 = time.perf_counter()
            res = Simulator(g, engine=engine).run()
            dt = time.perf_counter() - t0
            times[engine] = min(dt, times.get(engine, dt))
            makespans[engine] = res.makespan

    assert makespans["compiled"] == makespans["reference"]
    t_ref = times["reference"]
    t_fast = times["compiled"]

    out = pathlib.Path(__file__).resolve().parent.parent / "results" / "perf_sim.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        f"simulator event loop, BERT-48 on Config A (16 GPUs), 2-stage DAPPLE "
        f"schedule, M=256 ({ops} ops)\n"
        f"before (reference drain-everything loop)  : {t_ref * 1e3:9.1f} ms "
        f"({t_ref / ops * 1e6:5.2f} us/op)\n"
        f"after  (compiled indexed + waiter queues) : {t_fast * 1e3:9.1f} ms "
        f"({t_fast / ops * 1e6:5.2f} us/op)\n"
        f"speedup                                   : {t_ref / t_fast:9.1f}x\n"
        f"methodology: each engine simulates a freshly built graph (the sweep\n"
        f"scenario), min of 2 runs, timing Simulator.run() only; makespans\n"
        f"verified identical ({makespans['compiled'] * 1e3:.2f} ms simulated)\n"
    )
    assert t_fast < t_ref / 2


def test_executor_two_stage_pipeline(benchmark):
    model = uniform_model("perf", 8, 9e9, 1_000_000, 1e6, profile_batch=2)
    clu = cluster("B", 2)
    prof = profile_model(model)
    plan = ParallelPlan(
        model,
        [Stage(0, 4, (clu.device(0),)), Stage(4, 8, (clu.device(1),))],
        64,
        32,
    )
    res = benchmark(lambda: execute_plan(prof, clu, plan))
    assert res.iteration_time > 0


def test_schedule_generation(benchmark):
    scheds = benchmark(lambda: Dapple1F1BSchedule(16, 128).streams())
    assert len(scheds) == 16


def test_pipeline_trainer_step(benchmark):
    from repro.training import Linear, PipelineTrainer, Sequential, Tanh, Tensor, mse_loss

    rng = np.random.default_rng(0)
    model = Sequential(
        Linear(32, 64, rng), Tanh(), Linear(64, 64, rng), Tanh(), Linear(64, 8, rng)
    )
    tr = PipelineTrainer(model, [2], num_micro_batches=4, replicas=[2, 1])
    x = rng.standard_normal((32, 32))
    y = rng.standard_normal((32, 8))

    def loss_fn(pred, target, normalizer):
        return mse_loss(pred, Tensor(np.asarray(target)), normalizer=normalizer)

    loss, grads = benchmark(lambda: tr.step_gradients(x, y, loss_fn))
    assert len(grads) == 6

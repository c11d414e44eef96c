"""Micro-benchmarks of the library's hot primitives.

These are conventional pytest-benchmark timings (many rounds) guarding the
performance characteristics the rest of the harness depends on: the
simulator's event throughput, latency-model evaluation speed, planner
search time, and the gradient-equivalent pipeline trainer.
"""

import time

import numpy as np

from repro.check import ScalarPlanner, planner_diffs
from repro.core import Planner, profile_model
from repro.core.latency import evaluate_plan
from repro.core.plan import ParallelPlan, Stage
from repro.experiments.common import cluster, profile
from repro.models import uniform_model
from repro.runtime import execute_plan
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

    Asserts bit-identity and the expected speedup ordering; the >=40x
    gate on the bigger Config B problem, best-of-3, lives in
    ``tests/perf/test_gates.py``.
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

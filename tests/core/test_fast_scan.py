"""The level scan kernel's two-stage completions must agree with
evaluate_plan exactly."""

import numpy as np
import pytest

from repro.cluster import config_a, config_b, config_c
from repro.core import profile_model
from repro.core.fast_scan import CompletionScanner
from repro.core.latency import evaluate_plan
from repro.core.plan import ParallelPlan, Stage
from repro.models import bert48, gnmt16, uniform_model, vgg19


def scan_latencies(prof, cluster, gbs, g0, g1, m):
    """``scan_level`` latencies of ``[0, j)`` on ``g0`` + ``[j, N)`` on ``g1``."""
    res = CompletionScanner(prof, cluster).scan_level(
        [(0, (), [tuple(g0)], [tuple(g1)])],
        global_batch_size=gbs,
        num_micro_batches=m,
        enforce_memory=False,
    )
    assert list(res.splits) == list(range(1, prof.num_layers))
    return res.latency[0]


def reference_latencies(prof, cluster, gbs, g0, g1, m):
    out = []
    n = prof.num_layers
    for j in range(1, n):
        plan = ParallelPlan(
            prof.graph,
            [Stage(0, j, tuple(g0)), Stage(j, n, tuple(g1))],
            gbs,
            m,
        )
        out.append(evaluate_plan(prof, cluster, plan).latency)
    return np.array(out)


CASES = [
    # (model builder, cluster builder, gbs, group split, M)
    (gnmt16, lambda: config_a(2), 1024, 8, 16),
    (gnmt16, lambda: config_c(16), 1024, 10, 16),
    (bert48, lambda: config_a(2), 64, 8, 32),
    (bert48, lambda: config_b(16), 64, 4, 32),
    (vgg19, lambda: config_c(16), 2048, 15, 64),
    (lambda: uniform_model("u", 12, 9e9, 5_000_000, 2e6, profile_batch=2),
     lambda: config_b(4), 32, 1, 16),
]


class TestAgreement:
    @pytest.mark.parametrize("model_fn,cluster_fn,gbs,split,m", CASES)
    def test_matches_evaluate_plan(self, model_fn, cluster_fn, gbs, split, m):
        prof = profile_model(model_fn())
        cluster = cluster_fn()
        g0 = cluster.devices[:split]
        g1 = cluster.devices[split:]
        fast = scan_latencies(prof, cluster, gbs, g0, g1, m)
        ref = reference_latencies(prof, cluster, gbs, g0, g1, m)
        np.testing.assert_array_equal(fast, ref)  # bit-identical

    def test_best_split_matches_argmin(self):
        prof = profile_model(gnmt16())
        cluster = config_a(2)
        g0, g1 = cluster.devices[:8], cluster.devices[8:]
        fast = scan_latencies(prof, cluster, 1024, g0, g1, 16)
        ref = reference_latencies(prof, cluster, 1024, g0, g1, 16)
        assert int(np.argmin(fast)) == int(np.argmin(ref))
        assert fast.min() == ref.min()


class TestSpeed:
    def test_vectorized_scan_is_fast(self):
        import time

        prof = profile_model(bert48())
        cluster = config_a(2)
        g0, g1 = cluster.devices[:8], cluster.devices[8:]
        t0 = time.perf_counter()
        for _ in range(20):
            scan_latencies(prof, cluster, 64, g0, g1, 32)
        fast = (time.perf_counter() - t0) / 20
        t0 = time.perf_counter()
        reference_latencies(prof, cluster, 64, g0, g1, 32)
        slow = time.perf_counter() - t0
        assert fast < slow  # vectorization pays for itself

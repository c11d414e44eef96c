"""Regression tests: EnsembleReport derived statistics are memoized, and
run_ensemble can reuse a precomputed clean outcome.

The sweep/robust layers read ``quantile``/``quantile_convergence``/
``bubble_attribution`` repeatedly per report; each must be computed once
and answered from the report's cache afterwards — repeated access does no
extra numpy work.
"""

import numpy as np
import pytest

from repro.check import per_seed_ensemble
from repro.cluster import config_b
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.faults import ComputeJitter, SlowDevice, run_ensemble
from repro.check.reference import evaluate_seed
from repro.models import uniform_model


@pytest.fixture()
def problem():
    model = uniform_model("cache", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
    prof = profile_model(model)
    cluster = config_b(2)
    d = cluster.devices
    plan = ParallelPlan(
        prof.graph, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
    )
    return prof, cluster, plan


@pytest.fixture()
def report(problem):
    prof, cluster, plan = problem
    return run_ensemble(
        prof, cluster, plan, (ComputeJitter(sigma=0.1),), range(5)
    )


def _count_quantile_calls(monkeypatch):
    calls = {"n": 0}
    real = np.quantile

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "quantile", counting)
    return calls


class TestDerivedStatisticCaching:
    def test_quantile_computed_once(self, report, monkeypatch):
        calls = _count_quantile_calls(monkeypatch)
        first = report.quantile(0.95)
        after_first = calls["n"]
        assert after_first == 1
        for _ in range(5):
            assert report.quantile(0.95) == first
        assert calls["n"] == after_first
        # A different q is a different cache entry, computed once itself.
        report.quantile(0.5)
        report.quantile(0.5)
        assert calls["n"] == after_first + 1

    def test_convergence_computed_once(self, report, monkeypatch):
        calls = _count_quantile_calls(monkeypatch)
        conv = report.quantile_convergence(0.95)
        after_first = calls["n"]
        assert after_first == len(report.makespans)
        again = report.quantile_convergence(0.95)
        assert calls["n"] == after_first
        assert again is conv  # answered from the cache, not recomputed
        assert conv[-1] == report.p95 or conv[-1] == pytest.approx(report.p95)

    def test_bubble_attribution_cached_rows(self, report):
        first = report.bubble_attribution()
        second = report.bubble_attribution()
        assert first == second
        assert first is not second  # fresh list each call...
        assert all(a is b for a, b in zip(first, second))  # ...shared rows
        # Mutating a returned list must not poison later calls.
        first.clear()
        assert report.bubble_attribution() == second

    def test_p_properties_share_quantile_cache(self, report, monkeypatch):
        report.p95
        calls = _count_quantile_calls(monkeypatch)
        report.p95
        assert calls["n"] == 0
        assert report.slowdown(0.95) == report.p95 / report.clean_makespan
        assert calls["n"] == 0

    def test_cache_excluded_from_equality(self, problem):
        prof, cluster, plan = problem
        models = (SlowDevice(factor=1.5),)
        a = run_ensemble(prof, cluster, plan, models, range(4))
        b = run_ensemble(prof, cluster, plan, models, range(4))
        a.quantile(0.95)  # warm one report's cache only
        assert a.identical(b)


class TestPrecomputedClean:
    def test_clean_param_skips_clean_evaluation(self, problem):
        prof, cluster, plan = problem
        models = (ComputeJitter(sigma=0.1),)
        clean = evaluate_seed(prof, cluster, plan, (), seed=0)
        with_clean = run_ensemble(
            prof, cluster, plan, models, range(4), clean=clean
        )
        without = run_ensemble(prof, cluster, plan, models, range(4))
        assert with_clean.clean is clean
        assert with_clean.identical(without)
        assert with_clean.identical(
            per_seed_ensemble(prof, cluster, plan, models, range(4))
        )

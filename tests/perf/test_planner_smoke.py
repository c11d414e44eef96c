"""Tier-1 wall-clock smoke cap for the vectorized planner search.

The full before/after gate lives in ``tests/perf/test_gates.py``;
this test only guards against a silent order-of-magnitude regression (e.g.
the scalar path becoming the default again, or the scanner's shape-keyed
cost memos breaking).
The cap is ~10× the observed fast-path time on a developer laptop, so it
passes comfortably on slow CI while still failing loudly if the search
falls back to per-plan scalar evaluation (~10× slower).

A noise-free guard sits next to it: the search must not compare devices
pairwise at all, since communication costs come from per-machine counts.
"""

import time

from repro.cluster import Cluster, config_a, config_c
from repro.core import Planner, PlannerConfig, profile_model
from repro.core.plancache import PlanCache
from repro.core.planner import plan_best
from repro.models import bert48, vgg19

#: Observed fast-path time ≈ 0.2 s; scalar path ≈ 1.5 s.  10× margin.
WALLCLOCK_CAP_S = 2.0

#: Observed warm in-memory hit ≈ 0.5 ms; the slow gate holds ≤ 5 ms.
#: 100× margin here so slow CI never flakes while a hit that silently
#: re-runs the search (hundreds of ms) still fails loudly.
CACHE_HIT_CAP_S = 0.05


def test_vgg19_config_c_search_under_cap():
    prof = profile_model(vgg19())
    cluster = config_c(16)
    t0 = time.perf_counter()
    result = Planner(prof, cluster, 2048).search()
    elapsed = time.perf_counter() - t0
    assert result.plan is not None
    assert elapsed < WALLCLOCK_CAP_S, (
        f"planner search took {elapsed:.2f}s (cap {WALLCLOCK_CAP_S}s) — "
        "did the vectorized scan path regress?"
    )


def test_warm_cache_hit_under_cap():
    """A warm plan-cache hit must cost decode+evaluate, never a search."""
    prof = profile_model(vgg19())
    cluster = config_c(16)
    cfg = PlannerConfig()
    cache = PlanCache()
    fresh = plan_best(prof, cluster, 2048, cfg, cache=cache)
    t0 = time.perf_counter()
    hit = plan_best(prof, cluster, 2048, cfg, cache=cache)
    elapsed = time.perf_counter() - t0
    assert cache.hits == 1
    assert hit.plan.notation == fresh.plan.notation
    assert hit.estimate.latency == fresh.estimate.latency
    assert elapsed < CACHE_HIT_CAP_S, (
        f"warm cache hit took {elapsed * 1e3:.1f}ms "
        f"(cap {CACHE_HIT_CAP_S * 1e3:.0f}ms)"
    )


def test_search_makes_no_pairwise_device_comparisons(monkeypatch):
    """Transfer and AllReduce costs come from per-machine counts.

    A pairwise (sender, receiver) loop asks ``Cluster.same_machine`` for
    every pair — hundreds of thousands of calls on this problem — so one
    call means such a loop has come back into the planner.
    """
    calls = []
    original = Cluster.same_machine

    def counting(self, a, b):
        calls.append(None)
        return original(self, a, b)

    monkeypatch.setattr(Cluster, "same_machine", counting)
    result = plan_best(profile_model(bert48()), config_a(4), 64)
    assert result.plan is not None
    assert len(calls) == 0

"""Tier-1 guard: the batched ensemble must not lose to the per-seed
oracle it replaces.

The full 32-seed BERT-48 measurement (with the 3x-single-run target)
lives in ``tests/perf/test_gates.py`` and runs nightly; wall-clock
ratios at that scale are too slow for tier-1.  Here a small-but-real
ensemble — enough seeds that the batched engine's one-time graph build
and compile amortize — must beat the per-seed loop outright, best-of-3
on each side to damp scheduler noise.  The ensembles must also agree
bit-for-bit, so a "win" can never come from skipped work.
"""

import time

from repro.check import per_seed_ensemble
from repro.cluster import config_a
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.faults import SlowDevice, run_ensemble
from repro.models import get_model

NUM_SEEDS = 8
ROUNDS = 3


def test_batched_ensemble_beats_per_seed_path():
    prof = profile_model(get_model("bert48"))
    cluster = config_a(16)
    d = cluster.devices
    plan = ParallelPlan(
        prof.graph,
        [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))],
        128,
        64,
    )
    models = (SlowDevice(factor=1.5),)

    def wall(ensemble):
        best = None
        report = None
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            report = ensemble(
                prof, cluster, plan, models, range(NUM_SEEDS),
                enforce_memory=False,
            )
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, report

    batched_wall, batched_rep = wall(run_ensemble)
    per_seed_wall, per_seed_rep = wall(per_seed_ensemble)

    assert batched_rep.identical(per_seed_rep)
    assert batched_wall <= per_seed_wall, (
        f"batched {NUM_SEEDS}-seed ensemble took {batched_wall * 1e3:.0f}ms "
        f"vs {per_seed_wall * 1e3:.0f}ms per-seed — the batched engine "
        f"must not lose to the path it replaces"
    )

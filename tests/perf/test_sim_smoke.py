"""Tier-1 wall-clock smoke cap for the compiled simulator event loop.

The full before/after gate lives in ``tests/perf/test_gates.py``;
this test only guards against a silent order-of-magnitude regression (e.g.
the compiled engine quietly falling back to the reference loop, or the
indexed-graph columns being rebuilt per run).  The cap is ~15× the observed
compiled-loop time on a developer laptop, so it passes comfortably on slow
CI while still failing loudly if simulation degenerates to reference speed
(~6× slower) plus a regression margin.
"""

import time

from repro.cluster import config_a
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.models import get_model
from repro.runtime.executor import PipelineExecutor
from repro.sim import Simulator

#: Observed compiled run ≈ 0.05 s for M=128 (~33k ops); reference ≈ 0.3 s.
WALLCLOCK_CAP_S = 1.0


def test_bert48_large_m_simulation_under_cap():
    prof = profile_model(get_model("bert48"))
    cluster = config_a(16)
    d = cluster.devices
    plan = ParallelPlan(
        prof.graph,
        [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))],
        256,
        128,
    )
    graph = PipelineExecutor(prof, cluster, plan, enforce_memory=False).build_graph()
    t0 = time.perf_counter()
    res = Simulator(graph, engine="compiled").run()
    elapsed = time.perf_counter() - t0
    assert res.makespan > 0
    assert elapsed < WALLCLOCK_CAP_S, (
        f"compiled simulation of {len(graph)} ops took {elapsed:.2f}s "
        f"(cap {WALLCLOCK_CAP_S}s) — did the compiled event loop regress?"
    )

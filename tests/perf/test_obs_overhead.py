"""Tier-1 guard: disabled observability must cost (effectively) nothing.

Wall-clock A/B runs of the full simulator are too noisy for a tight CI
assertion, so the budget is enforced structurally instead:

* the disabled fast path must return shared no-op singletons (identity
  check — any accidental per-call allocation breaks this);
* the measured per-call cost of the no-op path, multiplied by a generous
  over-estimate of how many instrumentation touchpoints one BERT-48-scale
  simulated iteration executes, must stay under 2% of that iteration's
  measured wall time.

The wall-clock enabled-vs-disabled A/Bs are slow tests: the simulator
one below and the serve-path gate in ``tests/perf/test_gates.py``.
"""

import time

import pytest

import repro.obs as obs
from repro.cluster import config_a
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.models import get_model
from repro.runtime.executor import PipelineExecutor
from repro.sim import Simulator
from repro.obs.metrics import NOOP_COUNTER
from repro.obs.tracer import NOOP_SPAN

#: Instrumentation budget: the no-op path may cost at most this fraction of
#: the benchmark simulation's wall time.
MAX_OVERHEAD_FRACTION = 0.02

#: Enabled-path budget: a fully instrumented simulation (spans, counters,
#: bulk histograms, collect-time gauges) may cost at most this fraction
#: over the uninstrumented run.
MAX_ENABLED_OVERHEAD_FRACTION = 0.20


def _sim_benchmark():
    """One BERT-48 M=128 compiled-simulator iteration (per-device M=256
    halves across the two replicas), as in ``tests/perf/test_sim_smoke``."""
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
    return len(graph), elapsed


def test_disabled_path_returns_shared_singletons():
    assert not obs.enabled()
    assert obs.span("sim.run") is NOOP_SPAN
    assert obs.span("other", attr=1) is NOOP_SPAN
    assert obs.counter("c") is NOOP_COUNTER
    assert obs.gauge("g") is NOOP_COUNTER  # one shared no-op metric object
    assert obs.histogram("h") is NOOP_COUNTER


def test_noop_overhead_under_two_percent_of_sim_benchmark():
    num_ops, sim_elapsed = _sim_benchmark()

    # Per-call cost of the two disabled primitives instrumented code uses:
    # the hoisted enabled() check and a full no-op span round-trip.
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        obs.enabled()
    enabled_cost = (time.perf_counter() - t0) / n
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.span("x"):
            pass
    span_cost = (time.perf_counter() - t0) / n

    # Over-estimate of touchpoints in one instrumented simulation.  Every
    # hot loop hoists ``track = obs.enabled()`` into a local before
    # iterating, so per run the code executes a handful of enabled()
    # checks and spans — not one per op.  Pad both counts well beyond what
    # planner + executor + simulator actually perform (~10 each).
    touchpoints_spans = 64
    touchpoints_checks = 1024
    assert num_ops > touchpoints_checks  # the loop itself dwarfs the checks
    budget = MAX_OVERHEAD_FRACTION * sim_elapsed
    cost = touchpoints_spans * span_cost + touchpoints_checks * enabled_cost
    assert cost < budget, (
        f"no-op instrumentation cost estimate {cost * 1e3:.2f}ms exceeds "
        f"{MAX_OVERHEAD_FRACTION:.0%} of the {sim_elapsed * 1e3:.0f}ms "
        f"benchmark simulation"
    )


def test_enabled_gauges_are_collect_time_providers():
    """The expensive per-resource/per-device gauges are deferred: after an
    instrumented run they hold pending collect-time providers, the first
    read evaluates the shared vectorized pass (memoized — no second
    evaluation), and the value matches the result's own accounting."""
    from repro.cluster import config_b
    from repro.models import uniform_model

    model = uniform_model("obs-lazy", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
    prof = profile_model(model)
    cluster = config_b(2)
    d = cluster.devices
    plan = ParallelPlan(
        prof.graph, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
    )
    graph = PipelineExecutor(prof, cluster, plan).build_graph()
    obs.enable(reset_state=True)
    try:
        res = Simulator(graph, engine="compiled").run()
        reg = obs.registry()
        peak_g = reg.gauge("sim.memory_peak_bytes", device="gpu:0")
        occ_g = reg.gauge("sim.occupancy", resource="gpu:0")
        # Providers pending: the simulation did not pay to compute them.
        assert peak_g._fn is not None
        assert occ_g._fn is not None
        assert peak_g.value == res.memory.peak("gpu:0")
        busy = res.trace.busy_totals()
        assert occ_g.value == busy["gpu:0"] / res.makespan
        # Evaluated exactly once: reads are answered from the memo.
        assert peak_g._fn is None
        assert occ_g._fn is None
    finally:
        obs.disable()
        obs.reset()


@pytest.mark.slow
def test_enabled_overhead_under_twenty_percent_of_sim_benchmark():
    """Wall-clock A/B of the instrumented vs. plain benchmark simulation.

    The collect-time gauges keep the enabled path to list appends plus two
    bulk histogram records, so even a wall-clock comparison has margin:
    the measured overhead is a few percent of a run the 20% budget caps.
    The arms are interleaved within each round (host slow phases bias both
    sides) and it runs in the nightly slow pass — wall-clock A/Bs at this
    resolution are too sensitive to suite-wide allocator state for tier-1,
    where ``test_enabled_gauges_are_collect_time_providers`` enforces the
    same budget structurally.  The serve-path A/B gate lives in
    ``tests/perf/test_gates.py``."""
    prof = profile_model(get_model("bert48"))
    cluster = config_a(16)
    d = cluster.devices
    plan = ParallelPlan(
        prof.graph,
        [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))],
        256,
        128,
    )

    def run_once(enabled):
        graph = PipelineExecutor(
            prof, cluster, plan, enforce_memory=False
        ).build_graph()
        if enabled:
            obs.enable(reset_state=True)
        else:
            obs.disable()
        t0 = time.perf_counter()
        res = Simulator(graph, engine="compiled").run()
        elapsed = time.perf_counter() - t0
        obs.disable()
        obs.reset()
        assert res.makespan > 0
        return elapsed, res.makespan

    disabled = enabled = None
    try:
        for _ in range(3):
            dt, makespan_off = run_once(False)
            disabled = dt if disabled is None else min(disabled, dt)
            dt, makespan_on = run_once(True)
            enabled = dt if enabled is None else min(enabled, dt)
    finally:
        obs.disable()
        obs.reset()
    assert makespan_on == makespan_off, "instrumentation changed the result"
    cap = disabled * (1 + MAX_ENABLED_OVERHEAD_FRACTION)
    assert enabled <= cap, (
        f"obs-enabled simulation took {enabled * 1e3:.1f}ms vs "
        f"{disabled * 1e3:.1f}ms disabled "
        f"(+{(enabled / disabled - 1) * 100:.1f}%), over the "
        f"{MAX_ENABLED_OVERHEAD_FRACTION:.0%} budget"
    )

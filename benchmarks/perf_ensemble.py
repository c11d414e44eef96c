"""A/B measurement of the batched ensemble vs the per-seed oracle.

Runs the repo's headline fault study — a 32-seed BERT-48 Config A
straggler ensemble (one persistent 1.5x SlowDevice per seed, the paper's
tail-effect scenario that ``repro.experiments.straggler_sweep`` scans) —
through ``run_ensemble``'s single batched pass and through the per-seed
compiled loop of the ``repro.check.per_seed_ensemble`` oracle.  Both are measured with
observability off and on, the two reports are verified **bit-identical**,
and the walls plus the single-run reference unit go to
``results/perf_ensemble.txt``.

The headline target: the batched 32-seed straggler ensemble must finish
within 3x one clean single-seed evaluation (graph build + compiled
simulation + analysis) — i.e. the marginal cost of 32 extra fault
scenarios is at most two more clean runs.  A second, heavier ensemble
(straggler + 5% compute jitter) is recorded as well; its per-scenario
event loops are intrinsically ~2x the clean run's (randomized durations
leave almost no completion-time ties to batch), so it is gated on
bit-identity and on beating the per-seed path, not on the 3x unit.

Tier-1 enforces the cheaper invariant (batched wall <= per-seed wall on a
small ensemble) in ``tests/perf/test_ensemble_smoke.py``; this script is
the full measurement.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import repro.obs as obs
from repro.check import per_seed_ensemble
from repro.cluster import config_a
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.faults import ComputeJitter, SlowDevice, run_ensemble
from repro.faults.analysis import evaluate_seed
from repro.models import get_model
from repro.perf.record import write_bench_json
from repro.runtime.executor import PipelineExecutor
from repro.sim import Simulator

ROUNDS = 3
NUM_SEEDS = 32
STRAGGLER = (SlowDevice(factor=1.5),)
HEAVY = (SlowDevice(factor=1.5), ComputeJitter(sigma=0.05))
TARGET_FACTOR = 3.0


def _problem():
    prof = profile_model(get_model("bert48"))
    clu = config_a(16)
    d = clu.devices
    plan = ParallelPlan(
        prof.graph,
        [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))],
        256,
        128,
    )
    return prof, clu, plan


def _best(fn, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def _measure_ensemble(prof, clu, plan, models):
    """(batched, per_seed, batched_obs, per_seed_obs) walls + bit-identity."""
    seeds = range(NUM_SEEDS)

    def ensemble(fn, enabled):
        if enabled:
            obs.enable(reset_state=True)
        try:
            return fn(
                prof, clu, plan, models, seeds, enforce_memory=False,
            )
        finally:
            if enabled:
                obs.disable()
                obs.reset()

    batched_wall, batched_rep = _best(lambda: ensemble(run_ensemble, False))
    per_seed_wall, per_seed_rep = _best(
        lambda: ensemble(per_seed_ensemble, False)
    )
    batched_obs_wall, _ = _best(lambda: ensemble(run_ensemble, True))
    per_seed_obs_wall, _ = _best(lambda: ensemble(per_seed_ensemble, True))
    identical = batched_rep.identical(per_seed_rep)
    return (
        batched_wall, per_seed_wall, batched_obs_wall, per_seed_obs_wall,
        identical,
    )


def _section(title, walls):
    batched, per_seed, batched_obs, per_seed_obs, identical = walls
    return [
        f"{title}\n",
        f"  per-seed compiled, obs off          : {per_seed * 1e3:9.1f} ms\n",
        f"  batched engine,    obs off          : {batched * 1e3:9.1f} ms\n",
        f"  per-seed compiled, obs on           : {per_seed_obs * 1e3:9.1f} ms\n",
        f"  batched engine,    obs on           : {batched_obs * 1e3:9.1f} ms\n",
        f"  batched speedup over per-seed       : {per_seed / batched:9.2f} x\n",
        f"  reports bit-identical               : {identical}\n",
    ]


def main():
    prof, clu, plan = _problem()

    # Reference units: one compiled simulation on a prebuilt graph, and one
    # full clean single-seed evaluation (build + sim + analysis) — the
    # per-seed path pays roughly the latter once per seed.
    graph = PipelineExecutor(prof, clu, plan, enforce_memory=False).build_graph()
    sim_only, _ = _best(lambda: Simulator(graph, engine="compiled").run())
    single, _ = _best(
        lambda: evaluate_seed(prof, clu, plan, (), 0, enforce_memory=False)
    )

    straggler = _measure_ensemble(prof, clu, plan, STRAGGLER)
    heavy = _measure_ensemble(prof, clu, plan, HEAVY)

    factor = straggler[0] / single
    ok = (
        straggler[4]
        and heavy[4]
        and factor <= TARGET_FACTOR
        and heavy[0] <= heavy[1]
    )

    lines = [
        f"batched ensemble engine vs per-seed path, best of {ROUNDS} runs each\n",
        f"BERT-48 on Config A (16 GPUs), fixed 2-stage plan, M=128, "
        f"{NUM_SEEDS} seeds\n",
        "\n",
        "reference units\n",
        f"  compiled sim only (prebuilt graph)  : {sim_only * 1e3:9.1f} ms\n",
        f"  single clean evaluation (build+sim) : {single * 1e3:9.1f} ms\n",
        "\n",
        *_section(
            f"straggler ensemble (SlowDevice 1.5x), {NUM_SEEDS} seeds",
            straggler,
        ),
        f"  batched wall / single evaluation    : {factor:9.2f} x"
        f"  (target <= {TARGET_FACTOR:.1f}x)\n",
        "\n",
        *_section(
            f"heavy ensemble (SlowDevice 1.5x + ComputeJitter 5%), "
            f"{NUM_SEEDS} seeds",
            heavy,
        ),
        f"  batched wall / single evaluation    : {heavy[0] / single:9.2f} x"
        f"  (informational: jittered rows batch\n"
        f"   no completion ties, so each scenario's event loop is ~2x the "
        f"clean run's)\n",
        "\n",
        f"{'OK' if ok else 'FAIL'}: batched {NUM_SEEDS}-seed straggler "
        f"ensemble runs in {factor:.2f}x one clean evaluation, "
        f"bit-identical to the per-seed path\n",
    ]
    results_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / "perf_ensemble.txt"
    out.write_text("".join(lines))
    sys.stdout.write("".join(lines))
    sys.stdout.write(f"\nwrote {out}\n")

    entries = [
        {"name": "sim_only", "ms": sim_only * 1e3},
        {"name": "single_eval", "ms": single * 1e3},
        {"name": "straggler_batched", "ms": straggler[0] * 1e3,
         "speedup": straggler[1] / straggler[0]},
        {"name": "straggler_per_seed", "ms": straggler[1] * 1e3},
        {"name": "straggler_batched_obs", "ms": straggler[2] * 1e3},
        {"name": "straggler_per_seed_obs", "ms": straggler[3] * 1e3},
        {"name": "heavy_batched", "ms": heavy[0] * 1e3,
         "speedup": heavy[1] / heavy[0]},
        {"name": "heavy_per_seed", "ms": heavy[1] * 1e3},
    ]
    json_out = write_bench_json(
        results_dir / "perf_ensemble.json",
        "perf_ensemble",
        {"model": "bert48", "cluster": "A", "num_seeds": NUM_SEEDS,
         "rounds": ROUNDS},
        entries,
        repo_root=results_dir.parent,
    )
    sys.stdout.write(f"wrote {json_out}\n")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

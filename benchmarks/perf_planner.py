"""A/B measurement of the planner search kernel and the plan cache.

Runs the DAPPLE §IV-C search on a large problem — BERT-48 on Config B
(16 GPUs, the paper's hierarchical-interconnect cluster) — through two
arms that are required to be **bit-identical**:

* ``scalar`` — the reference ``evaluate_plan``-per-candidate loop
  (:class:`repro.check.ScalarPlanner`), kept as the correctness oracle.
* ``level``  — the production search: one padded ``scan_level`` kernel
  call per frontier generation, with allocation rows and per-row
  coefficient bundles memoized across states and levels.

plus a third arm measuring the content-addressed plan cache:

* ``cache_hit`` — ``plan_best`` against a warm in-memory
  :class:`~repro.core.plancache.PlanCache` tier.

Headline targets: ``level`` at least 40x faster than ``scalar`` on this
config, and a warm cache hit in at most 5 ms (vs tens of ms of search).
A second problem (GNMT-16 on Config C) is measured on the same arms as a
secondary data point.  Results go to ``results/perf_planner.txt`` and,
machine-readable, ``results/perf_planner.json`` (schema in
:mod:`repro.perf.record`; nightly CI diffs it via
``benchmarks/check_regression.py``).
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.check import ScalarPlanner, planner_diffs
from repro.cluster import config_by_name
from repro.core import Planner, PlannerConfig, profile_model
from repro.core.plancache import PlanCache
from repro.core.planner import plan_best
from repro.models import get_model
from repro.perf.record import write_bench_json

ROUNDS = 3
HEADLINE = ("bert48", "B", 64)
SECONDARY = ("gnmt16", "C", 64)
SPEEDUP_TARGET = 40.0
CACHE_HIT_MS_TARGET = 5.0


def _best(fn, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def _measure(model, config, gbs):
    prof = profile_model(get_model(model))
    clu = config_by_name(config, 16)
    cfg = PlannerConfig()

    walls, results = {}, {}
    for name, planner_cls in (("level", Planner), ("scalar", ScalarPlanner)):
        walls[name], results[name] = _best(
            lambda cls=planner_cls: cls(prof, clu, gbs, cfg).search()
        )

    cache = PlanCache()  # memory tier only: the warm-hit case
    cache.store(prof, clu, gbs, cfg, results["level"])
    walls["cache_hit"], results["cache_hit"] = _best(
        lambda: plan_best(prof, clu, gbs, cfg, cache=cache)
    )
    assert cache.hits == ROUNDS and cache.misses == 0

    identical = all(
        not planner_diffs(results["level"], results[name])
        for name in results if name != "level"
    )
    return walls, results, identical


def _section(title, walls, results, identical):
    r = results["level"]
    return [
        f"{title}\n",
        f"  scalar evaluate_plan loop (oracle)  : {walls['scalar'] * 1e3:9.1f} ms\n",
        f"  level-batched scan                  : {walls['level'] * 1e3:9.1f} ms\n",
        f"  warm plan-cache hit                 : {walls['cache_hit'] * 1e3:9.2f} ms\n",
        f"  level speedup over scalar           : "
        f"{walls['scalar'] / walls['level']:9.2f} x\n",
        f"  all arms bit-identical              : {identical}\n",
        f"  plan                                : {r.plan.notation} "
        f"({r.plan.split_notation}), latency {r.estimate.latency * 1e3:.2f} ms\n",
    ]


def main():
    model, config, gbs = HEADLINE
    walls, results, identical = _measure(model, config, gbs)
    m2, c2, g2 = SECONDARY
    walls2, results2, identical2 = _measure(m2, c2, g2)

    speedup = walls["scalar"] / walls["level"]
    hit_ms = walls["cache_hit"] * 1e3
    ok = (
        identical
        and identical2
        and speedup >= SPEEDUP_TARGET
        and hit_ms <= CACHE_HIT_MS_TARGET
    )

    lines = [
        f"planner search kernel + plan cache, best of {ROUNDS} runs each\n",
        "\n",
        *_section(
            f"{model} on Config {config} (16 GPUs), GBS={gbs}",
            walls, results, identical,
        ),
        "\n",
        *_section(
            f"{m2} on Config {c2} (16 GPUs), GBS={g2}",
            walls2, results2, identical2,
        ),
        "\n",
        f"{'OK' if ok else 'FAIL'}: level-batched search is {speedup:.2f}x "
        f"the scalar oracle (target >= {SPEEDUP_TARGET:.1f}x), warm cache "
        f"hit {hit_ms:.2f} ms (target <= {CACHE_HIT_MS_TARGET:.1f} ms), "
        f"all arms bit-identical: {identical and identical2}\n",
    ]
    results_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / "perf_planner.txt"
    out.write_text("".join(lines))
    sys.stdout.write("".join(lines))
    sys.stdout.write(f"\nwrote {out}\n")

    entries = []
    for prefix, w in (("", walls), (f"{m2}_{c2}_", walls2)):
        for name in ("scalar", "level", "cache_hit"):
            entries.append({
                "name": prefix + name,
                "ms": w[name] * 1e3,
                "speedup": w["scalar"] / w[name],
            })
    json_out = write_bench_json(
        results_dir / "perf_planner.json",
        "perf_planner",
        {"model": model, "cluster": config, "gbs": gbs,
         "secondary": f"{m2}/{c2}/gbs{g2}", "rounds": ROUNDS},
        entries,
        repo_root=results_dir.parent,
    )
    sys.stdout.write(f"wrote {json_out}\n")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

"""``plan``: cold planner searches over eight problems.

One round runs ``plan_best(..., cache=None)`` once on each problem, in an
order drawn from the seed.  Cluster sizes span 16 to 64 GPUs, so cost that
grows faster than the cluster shows up.  Nothing here runs the runtime or
the simulator.

Every op builds a fresh profile and cluster, as ``repro plan`` does.  The
planner's scanner registry (``fast_scan.shared_scanner``) is keyed by
object identity, so reusing the objects would hand every round after the
first a warm scanner that no ``repro plan`` process ever gets.

Each result also makes a round trip through a plan cache with a directory,
as ``repro serve`` keeps one: a store, then a lookup with the memory tier
cleared, so the lookup reads the disk tier as a warm request served by
another worker process does.  The round trip is checked and, when traced,
timed (``plancache.*``), but it lies outside the timed search.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.cluster import config_by_name
from repro.core import PlannerConfig, profile_model
from repro.core.latency import evaluate_plan
from repro.core.plancache import PlanCache
from repro.core.planner import plan_best
from repro.core.serialization import plan_to_dict
from repro.models import get_model

from workloads.base import Op, RoundWorkload, crashed_op, failed_op

#: (model, cluster config, devices, global batch size)
PROBLEMS = (
    ("bert48", "A", 16, 64),
    ("bert48", "B", 16, 64),
    ("bert48", "C", 16, 64),
    ("bert48", "A", 32, 64),
    ("bert48", "A", 64, 64),
    ("gnmt16", "C", 16, 64),
    ("vgg19", "C", 16, 2048),
    ("resnet50", "A", 64, 4096),
)
#: Untimed warm-up search, outside the measured set.
WARMUP = ("gnmt16", "A", 8, 64)


def problem_name(problem) -> str:
    model, config, devices, _gbs = problem
    return f"{model}.{config}{devices}"


def signature(result) -> list:
    """Everything a search returns that must repeat bit for bit."""
    return [
        json.dumps(plan_to_dict(result.plan), sort_keys=True),
        result.plan.notation,
        result.estimate.latency,
        result.states_explored,
        result.plans_evaluated,
        result.infeasible_plans,
    ]


class PlanWorkload(RoundWorkload):
    name = "plan"
    nominal_round_s = 2.4
    span_stems = {
        "profiler.profile": "profiler.profile",
        "planner.search": "planner.search",
        "plancache.store": "plancache.store",
        "plancache.lookup": "plancache.lookup",
    }

    def setup(self) -> None:
        self.config = PlannerConfig()
        if self.workdir is not None:
            Path(self.workdir).mkdir(parents=True, exist_ok=True)
        self.cache = PlanCache(tempfile.mkdtemp(prefix="plancache-", dir=self.workdir))
        self.first: dict[str, list] = {}
        self.counters: dict[str, tuple] = {}
        model, config, devices, gbs = WARMUP
        plan_best(profile_model(get_model(model)), config_by_name(config, devices),
                  gbs, self.config, cache=None)

    def close(self) -> None:
        shutil.rmtree(self.cache.directory, ignore_errors=True)

    def round(self, tracer) -> list:
        order = self.rng.sample(PROBLEMS, len(PROBLEMS))
        return [self._op(problem, tracer) for problem in order]

    def _op(self, problem, tracer) -> Op:
        model, config, devices, gbs = problem
        kind = problem_name(problem)
        try:
            with tracer.span("profiler.profile"):
                profile = profile_model(get_model(model))
            cluster = config_by_name(config, devices)
            with tracer.op("plan", kind), tracer.span("planner.search", kind):
                t0 = time.perf_counter()
                res = plan_best(profile, cluster, gbs, self.config, cache=None)
                seconds = time.perf_counter() - t0
            why = self._check(kind, profile, cluster, gbs, res, tracer)
        except Exception:
            return crashed_op(kind)
        if why:
            return failed_op(kind, why)
        self.counters[kind] = (res.states_explored, res.plans_evaluated,
                               res.infeasible_plans)
        return Op(kind, seconds)

    def _check(self, kind, profile, cluster, gbs, res, tracer) -> str | None:
        res.plan.validate()
        if evaluate_plan(profile, cluster, res.plan).latency != res.estimate.latency:
            return "estimate.latency differs from evaluate_plan"
        sig = signature(res)
        with tracer.span("plancache.store"):
            self.cache.store(profile, cluster, gbs, self.config, res)
        self.cache.clear_memory()
        with tracer.span("plancache.lookup"):
            cached = self.cache.lookup(profile, cluster, gbs, self.config)
        if cached is None or signature(cached) != sig:
            return "plan cache round trip is not bit-identical"
        if self.first.setdefault(kind, sig) != sig:
            return "plan differs from the first round's"
        return None

    def outputs(self):
        return self.first

    def layer_metrics(self, tracer) -> dict:
        states = sum(c[0] for c in self.counters.values())
        plans = sum(c[1] for c in self.counters.values())
        infeasible = sum(c[2] for c in self.counters.values())
        search_s = [s["end"] - s["start"] for s in tracer.spans
                    if s["name"] == "planner.search"]
        searches = len(search_s)
        return {
            "planner.states_explored": states,
            "planner.plans_evaluated": plans,
            "planner.infeasible_frac": infeasible / plans if plans else 0.0,
            # Search time per plan scored, over one traced pass of each problem.
            "planner.us_per_plan": (
                sum(search_s) / searches * len(self.counters) / plans * 1e6
                if plans and searches else 0.0
            ),
        }


WORKLOAD = PlanWorkload

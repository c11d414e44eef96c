"""``ensemble``: 32-seed fault ensembles on the pinned BERT-48/A plan.

One round runs ``run_ensemble`` (the default batched engine) twice:
``straggler`` (one 1.5x slow device per seed) and ``heavy`` (the same plus
5% compute jitter).  The seeds are drawn from ``--seed`` once and every
round reuses them.  This uses the simulator and analysis layers differently
from ``run``: one graph build, a batched event loop over an (S, ops)
duration matrix, and trace-free scenario views instead of trace analysis.
"""

from __future__ import annotations

import statistics
import time

import repro.faults.analysis
import repro.runtime.executor
from repro.faults import ComputeJitter, SlowDevice, run_ensemble

from workloads import fixtures
from workloads.base import NULL, Op, RoundWorkload, crashed_op, failed_op
from workloads.run import evaluate

FIXTURE = "bert48.A128"
CASE = "bert48.A128.dapple"
NUM_SEEDS = 32
SMOKE_SEEDS = 4
ENSEMBLES = {
    "straggler": (SlowDevice(factor=1.5),),
    "heavy": (SlowDevice(factor=1.5), ComputeJitter(sigma=0.05)),
}
#: Untimed warm-up: a few straggler seeds on the small GNMT-16 fixture.
WARMUP_FIXTURE = "gnmt16.C16"


class EnsembleWorkload(RoundWorkload):
    name = "ensemble"
    nominal_round_s = 4.7
    span_stems = {
        "runtime.executor_init": "runtime.executor_init",
        "runtime.build_graph": "runtime.build_graph",
        "sim.compile": "sim.compile",
        "faults.perturb": "faults.perturb",
        "sim.batched_run": "sim.batched_run",
        # What run_ensemble spends outside the calls above: stacking rows
        # and summarising scenario views (critical path, bubbles).
        "faults.run_ensemble": "faults.ensemble_other",
    }

    def setup(self) -> None:
        n = SMOKE_SEEDS if self.smoke else NUM_SEEDS
        self.seeds = [self.rng.randrange(2**31) for _ in range(n)]
        self.reports: dict = {}
        self.broken = None
        try:
            self.problem = fixtures.load(FIXTURE)
            warmup = fixtures.load(WARMUP_FIXTURE)
        except (OSError, ValueError, KeyError, TypeError) as e:
            self.broken = f"fixture does not load: {e}"
            return
        run_ensemble(*warmup, ENSEMBLES["straggler"], self.seeds[:SMOKE_SEEDS],
                     enforce_memory=False)

    def patches(self) -> list:
        executor = repro.runtime.executor.PipelineExecutor
        analysis = repro.faults.analysis

        def reuse(sim):
            kinds = list(sim.scenario_kinds)
            return {"scenarios": len(kinds), "reused": kinds.count("reused")}

        return [
            (executor, "__init__", "runtime.executor_init", "case", None),
            (executor, "build_graph", "runtime.build_graph", "case", None),
            (analysis, "compile_graph", "sim.compile", None, None),
            (analysis, "perturb_durations", "faults.perturb", "ens", None),
            (analysis, "run_batched", "sim.batched_run", "ens", reuse),
        ]

    def round(self, tracer) -> list:
        return [self._op(name, tracer) for name in ENSEMBLES]

    def _op(self, name, tracer) -> Op:
        if self.broken:
            return failed_op(name, self.broken)
        tracer.ctx = {"case": CASE, "ens": name}
        try:
            with tracer.op("ensemble", name), tracer.span("faults.run_ensemble", name):
                t0 = time.perf_counter()
                report = run_ensemble(*self.problem, ENSEMBLES[name], self.seeds,
                                      enforce_memory=False)
                seconds = time.perf_counter() - t0
        except Exception:
            return crashed_op(name)
        first = self.reports.setdefault(name, report)
        if not first.identical(report):
            return failed_op(name, "report differs from the first round's")
        return Op(name, seconds, work=len(self.seeds))

    def finish(self) -> list:
        """The clean row of every ensemble equals a clean ``run`` evaluation."""
        if self.broken:
            return [failed_op("clean-check", self.broken)]
        try:
            clean = evaluate(*self.problem, "dapple", CASE, NULL).makespan
        except Exception:
            return [crashed_op("clean-check")]
        for name, report in self.reports.items():
            if report.clean_makespan != clean:
                return [failed_op("clean-check",
                                  f"{name} clean makespan differs from run's")]
        return [Op("clean-check", 0.0)]

    def outputs(self):
        return {name: r.makespans.tolist() for name, r in self.reports.items()}

    def layer_metrics(self, tracer) -> dict:
        out = {}
        for name in ENSEMBLES:
            total = [s["end"] - s["start"] for s in tracer.spans
                     if s["name"] == "faults.run_ensemble" and s["key"] == name]
            batches = [s for s in tracer.spans
                       if s["name"] == "sim.batched_run" and s["key"] == name]
            if total:
                out[f"faults.ensemble_ms.{name}"] = statistics.median(total) * 1e3
            if batches:
                out[f"sim.batched_reused_frac.{name}"] = (
                    sum(s["reused"] for s in batches)
                    / sum(s["scenarios"] for s in batches)
                )
        return out


WORKLOAD = EnsembleWorkload

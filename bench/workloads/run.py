"""``run``: clean evaluations of pinned plans.

One evaluation is what ``repro run`` does after planning: ``execute_plan``
(build the executor, lower the plan into a task graph, simulate it with the
compiled engine), then the trace analysis (``analyze``, ``critical_path``,
``stage_bubble_fractions``).  The plans are pinned fixtures, so the planner
is not involved.  Small cases repeat within a round so that each case
takes at least 0.2 s; their per-evaluation fixed cost then shows.  All
cases use ``enforce_memory=False`` so GPipe at M=128 is simulated rather
than rejected.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import repro.sim.compiled
import repro.sim.engine
from repro.faults.analysis import critical_path, stage_bubble_fractions
from repro.runtime.analysis import analyze
from repro.runtime.executor import PipelineExecutor, execute_plan

from workloads import fixtures
from workloads.base import NULL, Op, RoundWorkload, crashed_op, failed_op

#: (case, fixture, schedule, evaluations per round)
CASES = (
    ("bert48.A128.dapple", "bert48.A128", "dapple", 1),
    ("bert48.A128.gpipe", "bert48.A128", "gpipe", 1),
    ("bert48.A128.zb2bp", "bert48.A128", "zb2bp", 1),
    ("bert48.B16.dapple", "bert48.B16", "dapple", 5),
    ("gnmt16.C16.dapple", "gnmt16.C16", "dapple", 30),
)
WARMUP_CASE = "gnmt16.C16.dapple"


@dataclass
class Evaluation:
    makespan: float
    num_ops: int


@contextlib.contextmanager
def built_graphs():
    """Collect the graphs ``PipelineExecutor.build_graph`` returns in the block.

    ``execute_plan`` does not hand its task graph back, and
    ``critical_path`` needs it.
    """
    original = PipelineExecutor.build_graph
    graphs: list = []

    def build_graph(self):
        graphs.append(original(self))
        return graphs[-1]

    PipelineExecutor.build_graph = build_graph
    try:
        yield graphs
    finally:
        PipelineExecutor.build_graph = original


def evaluate(profile, cluster, plan, schedule, key, tracer) -> Evaluation:
    """One clean evaluation; raises ValueError if its outputs disagree."""
    with built_graphs() as graphs:
        execution = execute_plan(profile, cluster, plan, schedule=schedule,
                                 enforce_memory=False, sim_engine="compiled")
    (graph,) = graphs
    makespan = execution.iteration_time
    with tracer.span("runtime.analyze", key):
        report = analyze(execution)
    with tracer.span("faults.critical_path", key):
        path = critical_path(graph, execution.trace)
    with tracer.span("faults.bubbles", key):
        bubbles = stage_bubble_fractions(execution)
    if report.makespan != makespan:
        raise ValueError("analyze() makespan differs from the simulator's")
    if not path or path[-1].end != makespan:
        raise ValueError("critical path does not end at the makespan")
    if len(bubbles) != plan.num_stages:
        raise ValueError("stage_bubble_fractions() misses a stage")
    return Evaluation(makespan, len(graph))


class RunWorkload(RoundWorkload):
    name = "run"
    nominal_round_s = 3.3
    span_stems = {
        "runtime.executor_init": "runtime.executor_init",
        "runtime.build_graph": "runtime.build_graph",
        "sim.compile": "sim.compile",
        "sim.run": "sim.run",
        "runtime.analyze": "runtime.analyze",
        "faults.critical_path": "faults.critical_path",
        "faults.bubbles": "faults.bubbles",
    }

    def __init__(self, seed, smoke=False, workdir=None,
                 fixture_dir=fixtures.DIRECTORY):
        super().__init__(seed, smoke, workdir)
        self.fixture_dir = fixture_dir

    def setup(self) -> None:
        self.problems = {}
        self.broken = {}
        for name in fixtures.PROBLEMS:
            try:
                self.problems[name] = fixtures.load(name, self.fixture_dir)
            except (OSError, ValueError, KeyError, TypeError) as e:
                self.broken[name] = f"fixture {name} does not load: {e}"
        self.makespans: dict[str, float] = {}
        self.num_ops: dict[str, int] = {}
        warmup = next(c for c in CASES if c[0] == WARMUP_CASE)
        if warmup[1] in self.problems:
            evaluate(*self.problems[warmup[1]], warmup[2], WARMUP_CASE, NULL)

    def patches(self) -> list:
        return [
            (PipelineExecutor, "__init__", "runtime.executor_init", "case", None),
            (PipelineExecutor, "build_graph", "runtime.build_graph", "case", None),
            (repro.sim.engine.Simulator, "run", "sim.run", "case", None),
            (repro.sim.compiled, "compile_graph", "sim.compile", None, None),
        ]

    def round(self, tracer) -> list:
        ops = []
        for case, fixture, schedule, reps in self.rng.sample(CASES, len(CASES)):
            reps = 1 if self.smoke else reps
            ops += [self._op(case, fixture, schedule, tracer) for _ in range(reps)]
        return ops

    def _op(self, case, fixture, schedule, tracer) -> Op:
        if fixture in self.broken:
            return failed_op(case, self.broken[fixture])
        tracer.ctx = {"case": case}
        try:
            with tracer.op("run", case):
                t0 = time.perf_counter()
                ev = evaluate(*self.problems[fixture], schedule, case, tracer)
                seconds = time.perf_counter() - t0
        except Exception:
            return crashed_op(case)
        if self.makespans.setdefault(case, ev.makespan) != ev.makespan:
            return failed_op(case, "makespan differs from the first round's")
        self.num_ops[case] = ev.num_ops
        return Op(case, seconds)

    def outputs(self):
        return self.makespans

    def layer_metrics(self, tracer) -> dict:
        out = {f"runtime.ops.{case}": n for case, n in self.num_ops.items()}
        build = run = ops = 0.0
        for span, own in zip(tracer.spans, tracer.self_times()):
            if span["name"] == "op":
                ops += self.num_ops.get(span["key"], 0)
            elif span["name"] == "runtime.build_graph":
                build += own
            elif span["name"] == "sim.run":
                run += own
        if ops:
            out["runtime.build_us_per_op"] = build / ops * 1e6
            out["sim.us_per_op"] = run / ops * 1e6
        return out


WORKLOAD = RunWorkload

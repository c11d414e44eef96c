"""Multi-iteration simulation: warm-up vs steady-state throughput.

A single simulated iteration includes the pipeline's fill and drain; real
training amortizes those over thousands of iterations.  This module chains
``N`` iterations in one task graph — iteration ``k+1`` of a stage starts
once the stage's weights update of iteration ``k`` completed (its
AllReduce, or its last backward when unreplicated), which is exactly the
synchronization the paper's Fig. 10 weights-update subgraph imposes — and
separates the first-iteration cost from the steady-state per-iteration
cost.

Synchronous training cannot overlap iterations — stage 0's weights update
is literally the last drain event — so steady-state equals the single-
iteration makespan.  The ``sync=False`` mode relaxes the weights-update
dependency to the previous iteration's last *forward* (PipeDream's
asynchronous regime): iterations then overlap and throughput rises, which
quantifies exactly the throughput-vs-staleness trade-off the paper uses to
motivate synchronous DAPPLE (§I–II).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import Cluster
from repro.core.plan import ParallelPlan
from repro.core.profiler import ModelProfile
from repro.runtime.executor import PipelineExecutor
from repro.sim.engine import Simulator, TaskGraph
from repro.sim.trace import Trace


@dataclass
class SteadyStateResult:
    """Timing of an ``num_iterations``-long simulated training run."""

    plan: ParallelPlan
    num_iterations: int
    total_time: float
    iteration_ends: list[float]
    trace: Trace

    @property
    def first_iteration_time(self) -> float:
        """Completion time of iteration 0 (includes pipeline fill)."""
        return self.iteration_ends[0]

    @property
    def steady_iteration_time(self) -> float:
        """Average per-iteration time once the pipeline is warm."""
        if self.num_iterations < 2:
            return self.first_iteration_time
        return (self.iteration_ends[-1] - self.iteration_ends[0]) / (
            self.num_iterations - 1
        )

    @property
    def steady_throughput(self) -> float:
        """Samples/second in steady state."""
        return self.plan.global_batch_size / self.steady_iteration_time

    @property
    def warmup_overhead(self) -> float:
        """First-iteration time relative to a steady iteration (≥ 1)."""
        return self.first_iteration_time / self.steady_iteration_time


def simulate_iterations(
    profile: ModelProfile,
    cluster: Cluster,
    plan: ParallelPlan,
    num_iterations: int = 4,
    schedule: str = "dapple",
    warmup_policy: str = "PA",
    recompute: bool = False,
    enforce_memory: bool = True,
    sync: bool = True,
    sim_engine: str = "compiled",
) -> SteadyStateResult:
    """Simulate ``num_iterations`` back-to-back training iterations.

    With ``sync=True`` (DAPPLE semantics) a stage's next iteration waits on
    its weights update; since stage 0's last backward is the final drain
    event, synchronous iterations cannot overlap and steady-state time
    equals the single-iteration makespan.  With ``sync=False`` the next
    iteration's forwards may start before the weight update — PipeDream's
    asynchronous regime — which overlaps iterations and raises throughput
    at the cost of stale weights (the convergence concern motivating
    DAPPLE, §I).
    """
    if num_iterations < 1:
        raise ValueError(f"need >=1 iteration, got {num_iterations}")
    ex = PipelineExecutor(
        profile,
        cluster,
        plan,
        schedule=schedule,
        warmup_policy=warmup_policy,
        recompute=recompute,
        enforce_memory=enforce_memory,
    )
    graph = TaskGraph()
    prev = None
    # Priority bases keep iteration k's ops ahead of k+1's in dispatch ties.
    stride = 10**7
    for k in range(num_iterations):
        info = ex.build_into(
            graph, prefix=f"i{k}/", include_init=(k == 0), priority_base=k * stride
        )
        if prev is not None:
            for s in range(plan.num_stages):
                tails = prev.final_ops[s] if sync else prev.last_forward_ops[s]
                for tail in tails:
                    for head in info.first_ops[s]:
                        graph.add_dep(tail, head)
        prev = info

    res = Simulator(graph, engine=sim_engine).run()
    # One pass over the trace rows (no TraceEvent materialization on the
    # columnar path): every op name is "i{k}/...", so bucket max end by k.
    ends = [0.0] * num_iterations
    for name, _start, end, _res, _tags in res.trace.iter_rows():
        k = int(name[1 : name.index("/")])
        if end > ends[k]:
            ends[k] = end
    return SteadyStateResult(
        plan=plan,
        num_iterations=num_iterations,
        total_time=res.makespan,
        iteration_ends=ends,
        trace=res.trace,
    )

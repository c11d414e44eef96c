"""PipeDream's pipeline planner (Narayanan et al., SOSP'19), as the paper's
comparison baseline (§VI-F, Table VII / Fig. 13).

PipeDream optimizes *asynchronous steady-state throughput*: it partitions
layers into stages (each optionally replicated) to minimize the slowest
pipeline component,

``A(j, m) = min over (i, m') of max( A(i, m−m'),  T(i..j, m'),  C_i )``

where ``T`` is the replicated stage's per-batch time including its own
weight-synchronization cost, and ``C_i`` the inter-stage activation
transfer.  Crucially — as the DAPPLE paper points out — this objective
models neither the warm-up/drain bubbles of *synchronous* pipelines nor
the end-of-batch gradient AllReduce, which is why its plans lose to
DAPPLE's under synchronous evaluation (we evaluate both under the DAPPLE
runtime, exactly like the paper's §VI-F methodology).

On hierarchical clusters PipeDream recurses over bandwidth levels: the
same recurrence runs over *machines* (replication syncs over Ethernet),
and a one-machine stage is itself partitioned over that machine's GPUs
(replication syncs over NVLink).  That constrains placement to nested
contiguous blocks — a strict subset of DAPPLE's placement space (§IV-B/D).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cluster.topology import Cluster
from repro.core.plan import ParallelPlan, Stage
from repro.core.planner import _largest_divisor_leq
from repro.core.profiler import ModelProfile

_INF = float("inf")


@dataclass
class PipeDreamResult:
    """Planner output: the plan plus the optimized (async) bottleneck time."""

    plan: ParallelPlan
    bottleneck_time: float
    stage_layer_bounds: list[int]
    stage_replicas: list[int]


def _solve(
    profile: ModelProfile,
    cluster: Cluster,
    gbs: int,
    mbs: int | None,
    two_level: bool,
) -> PipeDreamResult:
    mbs = mbs or profile.graph.profile_batch
    n = profile.num_layers
    gpm = cluster.gpus_per_machine
    inter = cluster.inter
    two_level = two_level and len(cluster.machines) >= 2 and gpm >= 2

    def stage_time(lo: int, hi: int, units: int, unit_gpus: int, bw: float) -> float:
        """Compute split over ``units × unit_gpus`` GPUs plus the weight sync
        ``4·(m'−1)·|W| / (m'·B)`` among the ``units`` replicas.  Async
        PipeDream syncs every mini-batch: no accumulation amortizes it."""
        t = (profile.fwd_time(lo, hi, mbs) + profile.bwd_time(lo, hi, mbs)) / (
            units * unit_gpus
        )
        if units > 1:
            t += 4.0 * (units - 1) * profile.param_bytes(lo, hi) / (units * bw)
        return t

    def stage(i: int, j: int, units: int, machine_level: bool) -> tuple[float, tuple]:
        """Cost and ``(layer_lo, gpus)`` stage descriptors of [i, j) on ``units``."""
        if not machine_level:
            bw = cluster.machines[0].intra_bw if units <= gpm else inter.bandwidth
            return stage_time(i, j, units, 1, bw), ((i, units),)
        if units == 1:
            return best(i, j, gpm, False)  # one machine: recurse to its GPUs
        return stage_time(i, j, units, gpm, inter.bandwidth), ((i, units * gpm),)

    @lru_cache(maxsize=None)
    def best(lo: int, j: int, units: int, machine_level: bool) -> tuple[float, tuple]:
        """Optimal (bottleneck, descriptors) for layers [lo, j) on all ``units``."""
        out = (_INF, ())
        for i in range(lo, j):
            # Activation transfer into [i, j), forward + backward.
            comm = 0.0
            if i > lo:
                comm = 2.0 * (inter.latency + profile.boundary_bytes(i, mbs) / inter.bandwidth)
            # The last stage is [i, j) on w units; a first stage takes all.
            for w in range(1, units + 1):
                if i == lo and w != units:
                    continue
                prev, decisions = best(lo, i, units - w, machine_level) if i > lo else (0.0, ())
                if prev == _INF:
                    continue
                cost, last = stage(i, j, w, machine_level)
                cand = max(prev, cost, comm)
                if cand < out[0]:
                    out = (cand, decisions + last)
        return out

    top = len(cluster.machines) if two_level else cluster.num_devices
    bottleneck, decisions = best(0, n, top, two_level)
    if bottleneck == _INF:
        raise RuntimeError("PipeDream planner found no feasible partition")

    # Stages take contiguous device blocks; devices are machine-major, so a
    # machine-level stage owns whole machines and a GPU-level one a slice.
    bounds = [lo for lo, _ in decisions] + [n]
    replicas = [gpus for _, gpus in decisions]
    devices = cluster.devices
    stages, cursor = [], 0
    for k, r in enumerate(replicas):
        stages.append(Stage(bounds[k], bounds[k + 1], tuple(devices[cursor : cursor + r])))
        cursor += r
    plan = ParallelPlan(
        model=profile.graph,
        stages=stages,
        global_batch_size=gbs,
        num_micro_batches=_largest_divisor_leq(gbs, max(1, gbs // mbs)),
    )
    return PipeDreamResult(
        plan=plan,
        bottleneck_time=bottleneck,
        stage_layer_bounds=bounds,
        stage_replicas=replicas,
    )


def pipedream_plan(
    profile: ModelProfile,
    cluster: Cluster,
    global_batch_size: int,
    micro_batch_size: int | None = None,
) -> PipeDreamResult:
    """Single-level PipeDream planning over the cluster's GPUs."""
    return _solve(profile, cluster, global_batch_size, micro_batch_size, False)


def pipedream_plan_hierarchical(
    profile: ModelProfile,
    cluster: Cluster,
    global_batch_size: int,
    micro_batch_size: int | None = None,
) -> PipeDreamResult:
    """Two-level PipeDream planning for hierarchical clusters (Config-A);
    falls back to one level on flat or single-machine clusters."""
    return _solve(profile, cluster, global_batch_size, micro_batch_size, True)

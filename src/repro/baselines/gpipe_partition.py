"""GPipe-style partitioner: block partitioning of sequences.

torchgpipe (the paper's GPipe reference implementation) balances per-layer
costs into contiguous blocks using "Block Partitions of Sequences"
(Bárány & Grinberg).  We solve the min-max contiguous-partition problem
exactly with a small DP — for the ≤50-layer planner graphs this is
instantaneous and gives the best partition that family can express.

GPipe has no replication concept: ``S`` balanced stages on ``S`` devices.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Cluster
from repro.core.plan import ParallelPlan, Stage
from repro.core.planner import _largest_divisor_leq
from repro.core.profiler import ModelProfile


def balanced_partition(costs: list[float], num_blocks: int) -> list[int]:
    """Split ``costs`` into ``num_blocks`` contiguous blocks minimizing the
    maximum block sum.  Returns ``num_blocks + 1`` boundary indices.
    """
    n = len(costs)
    if not (1 <= num_blocks <= n):
        raise ValueError(f"cannot split {n} items into {num_blocks} blocks")
    prefix = np.zeros(n + 1)
    np.cumsum(np.asarray(costs, dtype=float), out=prefix[1:])

    # dp[k][j] = minimal max-block-sum splitting the first j items into k.
    inf = float("inf")
    dp = np.full((num_blocks + 1, n + 1), inf)
    cut = np.zeros((num_blocks + 1, n + 1), dtype=int)
    dp[0][0] = 0.0
    for k in range(1, num_blocks + 1):
        for j in range(k, n - (num_blocks - k) + 1):
            for i in range(k - 1, j):
                cand = max(dp[k - 1][i], prefix[j] - prefix[i])
                if cand < dp[k][j]:
                    dp[k][j] = cand
                    cut[k][j] = i
    bounds = [n]
    j = n
    for k in range(num_blocks, 0, -1):
        j = int(cut[k][j])
        bounds.append(j)
    return list(reversed(bounds))


def gpipe_plan(
    profile: ModelProfile,
    cluster: Cluster,
    global_batch_size: int,
    num_stages: int | None = None,
    micro_batch_size: int | None = None,
) -> ParallelPlan:
    """Build the GPipe-style plan: ``num_stages`` balanced stages.

    Defaults to one stage per device (GPipe's usual deployment).  Stage
    cost is per-layer forward+backward time, the quantity torchgpipe
    balances from its profiling pass.
    """
    g = cluster.num_devices
    s = num_stages if num_stages is not None else min(g, profile.num_layers)
    if s > g:
        raise ValueError(f"{s} stages need {s} devices but cluster has {g}")
    costs = [
        profile.fwd_time(i, i + 1, 1.0) + profile.bwd_time(i, i + 1, 1.0)
        for i in range(profile.num_layers)
    ]
    bounds = balanced_partition(costs, s)
    devices = cluster.devices
    stages = [Stage(bounds[i], bounds[i + 1], (devices[i],)) for i in range(s)]
    mbs = micro_batch_size or profile.graph.profile_batch
    return ParallelPlan(
        model=profile.graph,
        stages=stages,
        global_batch_size=global_batch_size,
        num_micro_batches=_largest_divisor_leq(
            global_batch_size, max(1, global_batch_size // mbs)
        ),
    )

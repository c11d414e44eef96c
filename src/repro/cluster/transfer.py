"""Point-to-point transfer and split/concat cost models.

Cross-stage activation communication in DAPPLE goes through explicit
split/concat nodes when adjacent stages have different replication degrees
(paper Fig. 9).  We model the split/concat itself as a small device-side
copy: its cost is the tensor size divided by device memory copy bandwidth,
plus a fixed kernel-launch overhead.  The paper observes this overhead is
smaller than the round-robin "tail effect" alternative (Fig. 8), which the
Fig. 8 benchmark reproduces.

The group-to-group :func:`transfer_time` estimate accounts for the fact
that all flows leaving (or entering) one machine share that machine's NIC:
inter-machine time is driven by per-machine aggregate volumes, not by
per-GPU flows.  Intra-machine flows ride dedicated NVLink lanes in
parallel.  Under that model the cost depends on the two groups only
through per-machine sender, receiver and overlap counts, so
:func:`transfer_cost` reduces a group pair to a :class:`TransferCost` in
one pass over those counts.  The record is the one definition of the
formula: the scalar :func:`transfer_time`, the latency model and the
planner's vectorized kernel all evaluate it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.device import Device
from repro.cluster.topology import Cluster, LinkSpec, machine_counts

#: Device-memory copy bandwidth used for split/concat (V100 HBM2 ~750 GB/s
#: effective for strided copies).
COPY_BANDWIDTH = 750e9

#: Fixed kernel-launch overhead per split/concat op.
COPY_LAUNCH_OVERHEAD = 10e-6


def split_concat_overhead(nbytes, fan: int):
    """Cost of splitting (or concatenating) an ``nbytes`` tensor ``fan`` ways.

    Zero when no reshaping is needed (``fan <= 1``) or there is nothing to
    move.  ``nbytes`` may be a float or, elementwise, an ndarray.
    """
    if fan <= 1:
        return 0.0
    cost = COPY_LAUNCH_OVERHEAD + nbytes / COPY_BANDWIDTH
    if isinstance(nbytes, np.ndarray):
        return np.where(nbytes <= 0, 0.0, cost)
    return 0.0 if nbytes <= 0 else cost


@dataclass(frozen=True)
class TransferCost:
    """Everything :func:`transfer_time` needs of two replica groups.

    The micro-batch is sliced evenly across senders and across receivers
    (paper §V-B2), producing one flow of ``nbytes / (|S|·|R|)`` per
    (sender, receiver) pair.  Elapsed time is the maximum over:

    * each machine's aggregate inbound/outbound Ethernet volume over the
      inter-server bandwidth (flows sharing a NIC serialize) — the busiest
      NIC carries ``worst_count`` flows; and
    * each intra-machine pairwise flow over NVLink (dedicated lanes), one
      ``(latency, bandwidth)`` entry per distinct machine link in use.

    Split/concat reshaping overhead is added when fan-in/out is needed.

    The cost is the same in both directions: one direction's outbound NIC
    flows are the other's inbound ones, and the two reshaping terms swap
    places in a commutative sum.  So the record keeps the group sizes in
    ascending order and its links sorted, and ``transfer_cost(c, S, R) ==
    transfer_cost(c, R, S)``.  Records compare and hash by value.
    """

    identical: bool  # sender ids == receiver ids → zero-cost transfer
    sizes: tuple[int, int]  # the two group sizes, ascending
    intra_links: tuple[tuple[float, float], ...]  # distinct (lat, bw), sorted
    worst_count: int  # max per-NIC flow count; 0 → no inter-machine flow
    inter: LinkSpec

    def time(self, nbytes):
        """Transfer time of ``nbytes`` (a float, or elementwise on an ndarray).

        A float and an array element run the same IEEE-754 operation
        sequence — per-NIC pressure, for one, is a flow count converted to
        bytes with one multiply (``count * flow``) — so they agree bit for
        bit.
        """
        if isinstance(nbytes, np.ndarray):
            return np.where(nbytes > 0, self._time(nbytes, np.maximum), 0.0)
        if nbytes <= 0:
            return 0.0
        return self._time(nbytes, max)

    def _time(self, nbytes, maximum):
        if self.identical:
            return 0.0
        a, b = self.sizes
        flow = nbytes / (a * b)
        intra_max = 0.0
        for lat, bw in self.intra_links:
            intra_max = maximum(intra_max, lat + flow / bw)
        inter_max = 0.0
        if self.worst_count:
            inter_max = self.inter.latency + self.worst_count * flow / self.inter.bandwidth
        reshaping = split_concat_overhead(nbytes / a, b) + split_concat_overhead(nbytes / b, a)
        return maximum(intra_max, inter_max) + reshaping


def transfer_cost(
    cluster: Cluster, senders: Sequence[Device], receivers: Sequence[Device]
) -> TransferCost:
    """Reduce a (senders, receivers) group pair to its :class:`TransferCost`.

    One pass over per-machine counts instead of every (sender, receiver)
    pair: with ``n_send(A)`` senders and ``n_recv(A)`` receivers on machine
    ``A``, its NIC carries ``n_send(A)·(|R| − n_recv(A))`` outbound and
    ``n_recv(A)·(|S| − n_send(A))`` inbound flows, and it has an NVLink
    flow wherever ``n_send·n_recv`` exceeds the pairs that share a device.
    """
    n_s, n_r = len(senders), len(receivers)
    if not n_s or not n_r:
        raise ValueError("transfer needs at least one sender and one receiver")
    send = machine_counts(senders)
    recv = machine_counts(receivers)
    s_ids = {d.global_id for d in senders}
    r_ids = {d.global_id for d in receivers}
    shared: dict[int, int] = {}
    if not s_ids.isdisjoint(r_ids):
        mult = Counter(d.global_id for d in senders)
        for d in receivers:
            shared[d.machine_id] = shared.get(d.machine_id, 0) + mult[d.global_id]
    out_flows = [k * (n_r - recv.get(mid, 0)) for mid, k in send.items()]
    in_flows = [k * (n_s - send.get(mid, 0)) for mid, k in recv.items()]
    nvlink = [cluster.machines[mid] for mid, k in send.items()
              if k * recv.get(mid, 0) > shared.get(mid, 0)]
    links = tuple(sorted({(m.intra_lat, m.intra_bw) for m in nvlink}))
    sizes = (n_s, n_r) if n_s <= n_r else (n_r, n_s)
    worst = max(out_flows + in_flows)
    return TransferCost(s_ids == r_ids, sizes, links, worst, cluster.inter)


def transfer_time(
    cluster: Cluster,
    nbytes: float,
    senders: Sequence[Device],
    receivers: Sequence[Device],
) -> float:
    """Time to move an ``nbytes`` activation between two replica groups.

    This is the *analytical* estimate the planner uses (see
    :class:`TransferCost`); the runtime simulator models the same flows as
    explicit ops with NIC contention.
    """
    return transfer_cost(cluster, senders, receivers).time(nbytes)

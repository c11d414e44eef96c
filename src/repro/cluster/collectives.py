"""Collective-communication cost models (AllReduce, broadcast).

DAPPLE's planner needs ``AR(Ps, gs)`` — the time to AllReduce the gradients
of stage *s* (parameter bytes ``Ps``) across its replica device set ``gs``
(paper eq. 1).  We model:

* **ring AllReduce** within one link class:
  ``t = 2·(n−1)/n · D / B + 2·(n−1)·latency``;
* **hierarchical AllReduce** for groups spanning machines on hierarchical
  interconnects (Config A): intra-machine reduce over NVLink, inter-machine
  ring over Ethernet among one leader per machine, intra-machine broadcast.

The hierarchical model is what gives Config A its characteristic behaviour:
an 8-way replica group *inside* one server AllReduces multi-GB gradients in
tens of milliseconds, while the same group spread over servers would take
seconds over 25 GbE — exactly the asymmetry the paper's Fig. 2 placement
exploits.

Both schemes depend on the group only through its size, its per-machine
device counts and the link specs; :func:`allreduce_cost` reduces a group
to that :class:`AllreduceCost` record, which the scalar functions, the
latency model and the planner's vectorized kernel all evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.device import Device
from repro.cluster.topology import Cluster, LinkSpec, machine_counts


def _ring(nbytes, n: int, link: LinkSpec):
    """Ring AllReduce of ``nbytes`` (float or ndarray) across ``n ≥ 2`` peers."""
    volume = 2.0 * (n - 1) / n * nbytes
    return volume / link.bandwidth + 2.0 * (n - 1) * link.latency


def ring_allreduce_time(nbytes: float, n: int, link: LinkSpec) -> float:
    """Ring AllReduce of ``nbytes`` across ``n`` peers over ``link``.

    Standard 2-phase (reduce-scatter + all-gather) ring: each peer sends
    ``2·(n−1)/n·nbytes`` and the ring makes ``2·(n−1)`` latency hops.
    """
    if n < 1:
        raise ValueError(f"allreduce needs n>=1, got {n}")
    if n == 1 or nbytes <= 0:
        return 0.0
    return _ring(nbytes, n, link)


@dataclass(frozen=True)
class AllreduceCost:
    """Everything the AllReduce models need of one device group.

    ``intra`` is the internal link of the group's first machine; records
    compare and hash by value.
    """

    n: int
    n_machines: int
    max_local: int  # most devices the group holds on one machine
    intra: LinkSpec
    inter: LinkSpec

    def time(self, nbytes):
        """Best-scheme AllReduce time (a float, or elementwise on an ndarray).

        A single-machine group runs an NVLink ring; a multi-machine group
        takes the cheaper of a flat ring over Ethernet and the hierarchical
        scheme (NCCL-style auto-selection).
        """
        if isinstance(nbytes, np.ndarray):
            return np.where(nbytes > 0, self._time(nbytes, np.minimum), 0.0)
        return 0.0 if nbytes <= 0 else self._time(nbytes, min)

    def hierarchical(self, nbytes):
        """NVLink reduce → Ethernet ring over machine leaders → NVLink bcast."""
        if isinstance(nbytes, np.ndarray):
            return np.where(nbytes > 0, self._hier(nbytes), 0.0)
        return 0.0 if nbytes <= 0 else self._hier(nbytes)

    def _time(self, nbytes, minimum):
        if self.n <= 1:
            return 0.0
        if self.n_machines == 1:
            return _ring(nbytes, self.n, self.intra)
        return minimum(_ring(nbytes, self.n, self.inter), self._hier(nbytes))

    def _hier(self, nbytes):
        t = 0.0
        if self.max_local > 1:
            # reduce-scatter + later all-gather inside machines ≈ one full
            # intra ring pass split into two halves around the inter phase.
            t += _ring(nbytes, self.max_local, self.intra)
        if self.n_machines > 1:
            t += _ring(nbytes, self.n_machines, self.inter)
        return t


def allreduce_cost(cluster: Cluster, devs: Sequence[Device]) -> AllreduceCost:
    """Reduce a device group to its :class:`AllreduceCost` in one pass."""
    if not devs:
        raise ValueError("allreduce needs at least one device")
    per_machine = machine_counts(devs)
    m = cluster.machines[devs[0].machine_id]
    return AllreduceCost(
        n=len(devs),
        n_machines=len(per_machine),
        max_local=max(per_machine.values()),
        intra=LinkSpec("intra", m.intra_bw, m.intra_lat),
        inter=cluster.inter,
    )


def hierarchical_allreduce_time(nbytes: float, cluster: Cluster, devs: Sequence[Device]) -> float:
    """Hierarchical AllReduce: NVLink reduce → Ethernet ring → NVLink bcast.

    Machines contribute one leader each to the inter-machine ring.  Intra
    phases use the machine's internal link.  Degenerates gracefully: a group
    on one machine is a pure intra ring; one GPU per machine is a pure inter
    ring.
    """
    return allreduce_cost(cluster, devs).hierarchical(nbytes)


def allreduce_time(nbytes: float, cluster: Cluster, devs: Sequence[Device]) -> float:
    """AllReduce time for ``nbytes`` across ``devs``, picking the best scheme.

    See :meth:`AllreduceCost.time`.
    """
    if len(devs) <= 1 or nbytes <= 0:
        return 0.0
    return allreduce_cost(cluster, devs).time(nbytes)


def broadcast_time(nbytes: float, cluster: Cluster, devs: Sequence[Device]) -> float:
    """Pipelined-chain broadcast of ``nbytes`` from devs[0] to the rest."""
    devs = list(devs)
    n = len(devs)
    if n <= 1 or nbytes <= 0:
        return 0.0
    if not cluster.spans_machines(devs):
        m = cluster.machines[devs[0].machine_id]
        link = LinkSpec("intra", m.intra_bw, m.intra_lat)
    else:
        link = cluster.inter
    return nbytes / link.bandwidth + (n - 1) * link.latency

"""Cluster topology: machines wired by an inter-server network.

The :class:`Cluster` answers the questions the planner and runtime ask about
hardware:

* point-to-point bandwidth/latency between any two devices;
* whether a device group spans machines (drives AllReduce strategy choice);
* which simulator resources a transfer occupies (GPU-pair lane inside a
  machine; sender-NIC + receiver-NIC across machines, capturing Ethernet
  serialization and contention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cluster.device import Device
from repro.cluster.machine import Machine


@dataclass(frozen=True)
class LinkSpec:
    """Bandwidth (bytes/s) and per-message latency (s) of one link class."""

    name: str
    bandwidth: float
    latency: float

    def time(self, nbytes: float) -> float:
        """Store-and-forward transfer time for ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth


def machine_counts(devices: Iterable[Device]) -> dict[int, int]:
    """Devices per machine id, in order of each machine's first device.

    Under the even-slicing, one-NIC-per-machine model these counts are all
    the transfer and AllReduce costs read of a group.
    """
    counts: dict[int, int] = {}
    for d in devices:
        counts[d.machine_id] = counts.get(d.machine_id, 0) + 1
    return counts


class Cluster:
    """A set of homogeneous machines joined by a flat inter-server network."""

    def __init__(self, machines: Sequence[Machine], inter: LinkSpec, name: str = "custom"):
        if not machines:
            raise ValueError("cluster needs at least one machine")
        self.name = name
        self.machines = list(machines)
        self.inter = inter
        next_id = 0
        for m in self.machines:
            next_id = m.assign_global_ids(next_id)
        self._devices: list[Device] = [d for m in self.machines for d in m.devices]
        self._by_id = {d.global_id: d for d in self._devices}

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #
    @property
    def devices(self) -> list[Device]:
        return list(self._devices)

    @property
    def num_devices(self) -> int:
        return len(self._devices)

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def gpus_per_machine(self) -> int:
        """Ns of Table III (homogeneous machines assumed)."""
        return self.machines[0].num_gpus

    def device(self, global_id: int) -> Device:
        return self._by_id[global_id]

    def machine_of(self, dev: Device | int) -> Machine:
        gid = dev.global_id if isinstance(dev, Device) else dev
        return self.machines[self._by_id[gid].machine_id]

    # ------------------------------------------------------------------ #
    # Link queries
    # ------------------------------------------------------------------ #
    def same_machine(self, a: Device, b: Device) -> bool:
        return a.machine_id == b.machine_id

    def link_between(self, a: Device, b: Device) -> LinkSpec:
        """The link class used for an a→b transfer."""
        if a.global_id == b.global_id:
            return LinkSpec("loopback", float("inf"), 0.0)
        if self.same_machine(a, b):
            m = self.machines[a.machine_id]
            return LinkSpec("intra", m.intra_bw, m.intra_lat)
        return self.inter

    def p2p_time(self, nbytes: float, a: Device, b: Device) -> float:
        """Point-to-point transfer time for ``nbytes`` from a to b."""
        if a.global_id == b.global_id:
            return 0.0
        return self.link_between(a, b).time(nbytes)

    def transfer_resources(self, a: Device, b: Device) -> tuple:
        """Simulator resource keys occupied by an a→b transfer.

        Intra-machine transfers hold a dedicated per-pair NVLink lane (the
        fabric is a crossbar, so distinct pairs do not contend).  Inter-
        machine transfers hold the sender's outbound NIC and the receiver's
        inbound NIC, which is where 25/10 GbE contention actually happens.
        """
        if a.global_id == b.global_id:
            return ()
        if self.same_machine(a, b):
            lo, hi = sorted((a.global_id, b.global_id))
            return (f"nvlink:{lo}-{hi}",)
        ma = self.machines[a.machine_id]
        mb = self.machines[b.machine_id]
        return (ma.nic_send_key, mb.nic_recv_key)

    def group_transfer_resources(self, senders, receivers) -> tuple:
        """Every key :meth:`transfer_resources` names for some sender →
        receiver pair, sorted.

        Derived from the two groups' machine sets rather than pair by pair:
        a machine's outbound NIC when some receiver sits on another machine,
        its inbound NIC when some sender does, and the NVLink lanes of the
        pairs that share a machine.
        """
        src = {d.machine_id for d in senders}
        dst = {d.machine_id for d in receivers}
        keys = {self.machines[m].nic_send_key for m in src if dst - {m}}
        keys.update(self.machines[m].nic_recv_key for m in dst if src - {m})
        shared = src & dst
        for s in senders:
            if s.machine_id in shared:
                for r in receivers:
                    if r.machine_id == s.machine_id:
                        keys.update(self.transfer_resources(s, r))
        return tuple(sorted(keys))

    # ------------------------------------------------------------------ #
    # Group queries (used by collectives / placement)
    # ------------------------------------------------------------------ #
    def spans_machines(self, devs: Iterable[Device]) -> bool:
        ids = {d.machine_id for d in devs}
        return len(ids) > 1

    def group_min_bandwidth(self, devs: Sequence[Device]) -> float:
        """Slowest link bandwidth within a device group (ring bottleneck)."""
        devs = list(devs)
        if len(devs) < 2:
            return float("inf")
        if self.spans_machines(devs):
            return self.inter.bandwidth
        return self.machines[devs[0].machine_id].intra_bw

    def occupancy_template(self) -> list[int]:
        """All-zeros per-machine GPU-usage vector (placement bookkeeping)."""
        return [0] * self.num_machines

    def __repr__(self) -> str:
        return (
            f"Cluster({self.name}: {self.num_machines}x{self.gpus_per_machine} "
            f"{self.machines[0].gpu_spec.name}, inter={self.inter.name})"
        )

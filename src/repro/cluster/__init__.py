"""Hardware substrate: devices, machines, interconnects, collectives.

Models the three hardware environments of the paper's Table III:

* **Config A** — servers with 8×V100 connected by NVLink, 25 Gbps Ethernet
  between servers (hierarchical).
* **Config B** — one V100 per server, 25 Gbps Ethernet (flat).
* **Config C** — one V100 per server, 10 Gbps Ethernet (flat).

All quantities use SI base units: bytes, seconds, bytes/second, FLOP/s.
"""

from repro.cluster.device import GPUSpec, Device, V100
from repro.cluster.machine import Machine
from repro.cluster.topology import Cluster, LinkSpec
from repro.cluster.configs import (
    config_a,
    config_b,
    config_c,
    config_by_name,
    ETHERNET_25G,
    ETHERNET_10G,
    NVLINK,
)
from repro.cluster.transfer import (
    TransferCost,
    transfer_cost,
    transfer_time,
    split_concat_overhead,
)
from repro.cluster.collectives import (
    AllreduceCost,
    allreduce_cost,
    allreduce_time,
    ring_allreduce_time,
    hierarchical_allreduce_time,
    broadcast_time,
)

__all__ = [
    "GPUSpec",
    "Device",
    "V100",
    "Machine",
    "Cluster",
    "LinkSpec",
    "config_a",
    "config_b",
    "config_c",
    "config_by_name",
    "ETHERNET_25G",
    "ETHERNET_10G",
    "NVLINK",
    "TransferCost",
    "transfer_cost",
    "transfer_time",
    "split_concat_overhead",
    "AllreduceCost",
    "allreduce_cost",
    "allreduce_time",
    "ring_allreduce_time",
    "hierarchical_allreduce_time",
    "broadcast_time",
]

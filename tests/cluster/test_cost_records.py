"""The closed-form cost records against the pairwise reference loop.

``transfer_cost``/``allreduce_cost`` reduce device groups to per-machine
counts in one pass.  The functions below are the loops they replaced: one
flow per (sender, receiver) pair, one AllReduce ring per link class.  They
are the cost layer's oracle, and the records must match them exactly
(``==``, not approx) on every cluster shape, group shape and byte count.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    LinkSpec,
    Machine,
    allreduce_time,
    config_a,
    config_b,
    config_c,
    hierarchical_allreduce_time,
    transfer_time,
)
from repro.cluster.collectives import allreduce_cost
from repro.cluster.transfer import COPY_BANDWIDTH, COPY_LAUNCH_OVERHEAD, transfer_cost


# --------------------------------------------------------------------------- #
# Reference: the pairwise loops
# --------------------------------------------------------------------------- #
def _split_concat(nbytes, fan):
    if fan <= 1 or nbytes <= 0:
        return 0.0
    return COPY_LAUNCH_OVERHEAD + nbytes / COPY_BANDWIDTH


def reference_transfer_time(cluster, nbytes, senders, receivers):
    """Per-pair flows; per-machine NIC flow counts; per-pair NVLink lanes."""
    if nbytes <= 0:
        return 0.0
    if {d.global_id for d in senders} == {d.global_id for d in receivers}:
        return 0.0
    flow = nbytes / (len(senders) * len(receivers))
    out_flows: dict[int, int] = {}
    in_flows: dict[int, int] = {}
    intra_max = 0.0
    any_inter = False
    for s in senders:
        for r in receivers:
            if s.global_id == r.global_id:
                continue
            if cluster.same_machine(s, r):
                m = cluster.machines[s.machine_id]
                intra_max = max(intra_max, m.intra_lat + flow / m.intra_bw)
            else:
                out_flows[s.machine_id] = out_flows.get(s.machine_id, 0) + 1
                in_flows[r.machine_id] = in_flows.get(r.machine_id, 0) + 1
                any_inter = True
    inter_max = 0.0
    if any_inter:
        worst = max(max(out_flows.values()), max(in_flows.values()))
        inter_max = cluster.inter.latency + worst * flow / cluster.inter.bandwidth
    reshaping = _split_concat(nbytes / len(senders), len(receivers)) + _split_concat(
        nbytes / len(receivers), len(senders)
    )
    return max(intra_max, inter_max) + reshaping


def _ring(nbytes, n, bandwidth, latency):
    if n == 1 or nbytes <= 0:
        return 0.0
    return 2.0 * (n - 1) / n * nbytes / bandwidth + 2.0 * (n - 1) * latency


def reference_hierarchical(nbytes, cluster, devs):
    per_machine: dict[int, int] = {}
    for d in devs:
        per_machine[d.machine_id] = per_machine.get(d.machine_id, 0) + 1
    m = cluster.machines[devs[0].machine_id]
    t = 0.0
    if max(per_machine.values()) > 1:
        t += _ring(nbytes, max(per_machine.values()), m.intra_bw, m.intra_lat)
    if len(per_machine) > 1:
        t += _ring(nbytes, len(per_machine), cluster.inter.bandwidth, cluster.inter.latency)
    return t


def reference_allreduce_time(nbytes, cluster, devs):
    n = len(devs)
    if n <= 1 or nbytes <= 0:
        return 0.0
    if len({d.machine_id for d in devs}) == 1:
        m = cluster.machines[devs[0].machine_id]
        return _ring(nbytes, n, m.intra_bw, m.intra_lat)
    flat = _ring(nbytes, n, cluster.inter.bandwidth, cluster.inter.latency)
    return min(flat, reference_hierarchical(nbytes, cluster, devs))


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
def mixed_cluster() -> Cluster:
    """Machines of different sizes whose NVLink specs all differ; machine 3's
    internal link is slower than Ethernet, so which link a flow or ring
    takes shows in the result."""
    machines = [
        Machine(0, 4, intra_bw=150e9, intra_lat=5e-6),
        Machine(1, 2, intra_bw=40e9, intra_lat=2e-6),
        Machine(2, 3, intra_bw=300e9, intra_lat=9e-6),
        Machine(3, 2, intra_bw=1e9, intra_lat=4e-5),
    ]
    return Cluster(machines, inter=LinkSpec("eth", 3.125e9, 3e-5), name="mixed")


CLUSTERS = {
    "A": lambda: config_a(3),
    "B": lambda: config_b(12),
    "C": lambda: config_c(12),
    "mixed": mixed_cluster,
}

NBYTES = st.one_of(
    st.floats(min_value=-1e9, max_value=0.0),
    st.floats(min_value=0.0, max_value=1e11),
)


@st.composite
def group_pairs(draw):
    cluster = CLUSTERS[draw(st.sampled_from(sorted(CLUSTERS)))]()
    n = cluster.num_devices
    ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    senders = draw(ids)
    mode = draw(st.sampled_from(["random", "identical", "overlap", "single"]))
    if mode == "identical":
        receivers = draw(st.permutations(senders))
    elif mode == "overlap":
        extra = draw(ids)
        receivers = list(dict.fromkeys(senders[: draw(st.integers(1, len(senders)))] + extra))
    elif mode == "single":
        senders = senders[:1]
        receivers = [draw(st.integers(0, n - 1))]
    else:
        receivers = draw(ids)
    pick = cluster.device
    return cluster, [pick(i) for i in senders], [pick(i) for i in receivers]


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
class TestTransferCostMatchesPairwise:
    @given(pair=group_pairs(), nbytes=NBYTES)
    @settings(max_examples=400, deadline=None)
    def test_scalar_equals_reference(self, pair, nbytes):
        cluster, senders, receivers = pair
        expected = reference_transfer_time(cluster, nbytes, senders, receivers)
        assert transfer_cost(cluster, senders, receivers).time(nbytes) == expected
        assert transfer_time(cluster, nbytes, senders, receivers) == expected

    @given(pair=group_pairs(), nbytes=st.lists(NBYTES, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_ndarray_equals_elementwise_scalar(self, pair, nbytes):
        cluster, senders, receivers = pair
        cost = transfer_cost(cluster, senders, receivers)
        got = cost.time(np.array(nbytes))
        assert got.shape == (len(nbytes),)
        assert got.tolist() == [cost.time(x) for x in nbytes]

    @given(pair=group_pairs())
    @settings(max_examples=200, deadline=None)
    def test_record_is_direction_free(self, pair):
        # The planner kernel fills both pipeline directions from one record.
        cluster, senders, receivers = pair
        assert transfer_cost(cluster, senders, receivers) == transfer_cost(
            cluster, receivers, senders
        )

    def test_disjoint_record_depends_only_on_machine_counts(self):
        # The planner kernel memoizes records by per-machine counts; two
        # disjoint pairs with equal counts must build the same record.
        c = config_a(3)
        counts = [(2, 3), (0, 1), (4, 2)]  # (senders, receivers) per machine
        first_s, first_r, last_s, last_r = [], [], [], []
        for m, (ns, nr) in zip(c.machines, counts):
            first_s += m.devices[:ns]
            first_r += m.devices[ns : ns + nr]
            last_s += m.devices[len(m.devices) - ns :]
            last_r += m.devices[len(m.devices) - ns - nr : len(m.devices) - ns]
        assert transfer_cost(c, first_s, first_r) == transfer_cost(c, last_s, last_r)

    def test_self_pairs_take_no_nvlink_lane(self):
        # Machine 3's only pair is a device sending to itself: no NVLink
        # flow, so the (slow) NVLink term must not enter the max.
        c = mixed_cluster()
        slow, other = c.machines[3].devices[0], c.device(0)
        for nbytes in (1e3, 1e9):
            expected = reference_transfer_time(c, nbytes, [slow, other], [slow])
            assert transfer_time(c, nbytes, [slow, other], [slow]) == expected

    def test_tiny_and_nonpositive_bytes(self):
        c = mixed_cluster()
        senders, receivers = c.devices[:2], c.devices[4:7]
        nbytes = [-1.0, 0.0, 5e-324, 1e-300, 1.0, 1e9]
        cost = transfer_cost(c, senders, receivers)
        expected = [reference_transfer_time(c, x, senders, receivers) for x in nbytes]
        assert [cost.time(x) for x in nbytes] == expected
        assert cost.time(np.array(nbytes)).tolist() == expected

    def test_identical_groups_are_free(self):
        c = config_a(2)
        g = c.devices[:3]
        cost = transfer_cost(c, g, g[::-1])
        assert cost.identical
        assert cost.time(1e9) == 0.0
        assert cost.time(np.array([1e9, -1.0])).tolist() == [0.0, 0.0]


class TestAllreduceCostMatchesReference:
    @given(pair=group_pairs(), nbytes=NBYTES)
    @settings(max_examples=400, deadline=None)
    def test_scalar_equals_reference(self, pair, nbytes):
        cluster, devs, _ = pair
        cost = allreduce_cost(cluster, devs)
        expected = reference_allreduce_time(nbytes, cluster, devs)
        assert cost.time(nbytes) == expected
        assert allreduce_time(nbytes, cluster, devs) == expected
        hier = reference_hierarchical(nbytes, cluster, devs)
        assert cost.hierarchical(nbytes) == hier
        assert hierarchical_allreduce_time(nbytes, cluster, devs) == hier

    def test_single_machine_group_rings_over_its_own_link(self):
        # Even when that link is slower than Ethernet.
        c = mixed_cluster()
        group = c.machines[3].devices
        expected = reference_allreduce_time(1e9, c, group)
        assert allreduce_cost(c, group).time(1e9) == expected == allreduce_time(1e9, c, group)

    def test_intra_phase_uses_the_first_devices_machine_link(self):
        c = mixed_cluster()
        for group in (c.machines[0].devices + c.machines[3].devices[:1],
                      c.machines[3].devices[:1] + c.machines[0].devices):
            cost = allreduce_cost(c, group)
            assert cost.hierarchical(1e9) == reference_hierarchical(1e9, c, group)
            assert cost.time(1e9) == reference_allreduce_time(1e9, c, group)

    @given(pair=group_pairs(), nbytes=st.lists(NBYTES, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_ndarray_equals_elementwise_scalar(self, pair, nbytes):
        cluster, devs, _ = pair
        cost = allreduce_cost(cluster, devs)
        arr = np.array(nbytes)
        assert cost.time(arr).tolist() == [cost.time(x) for x in nbytes]
        assert cost.hierarchical(arr).tolist() == [cost.hierarchical(x) for x in nbytes]

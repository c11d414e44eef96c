"""Unit tests of the perturbation models: determinism, scope, validation."""

import numpy as np
import pytest

from repro.cluster import config_b
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.faults.models import (
    COMM_KINDS,
    ComputeJitter,
    DegradedLink,
    SlowDevice,
    TransientFailure,
    perturb_durations,
)
from repro.models import uniform_model
from repro.runtime.executor import PipelineExecutor
from repro.schedules import COMPUTE_KINDS
from repro.sim import Op


def tagged_ops():
    """A hand-built op list shaped like an executor graph: compute ops on
    per-device GPU resources, transfers on link resources."""
    ops = []
    for i in range(8):
        dev = f"gpu:{i % 2}"
        ops.append(
            Op(f"F{i}", 1.0, resources=(dev,), tags={"kind": "F", "stage": i % 2})
        )
    for i in range(4):
        ops.append(
            Op(f"send{i}", 0.5, resources=(f"nic:{i % 2}",), tags={"kind": "send"})
        )
    ops.append(Op("barrier", 0.0))
    return ops


def durations(ops):
    return [op.duration for op in ops]


class TestComputeJitter:
    def test_deterministic_given_rng_seed(self):
        ops = tagged_ops()
        a = ComputeJitter(sigma=0.3).perturb(ops, durations(ops), np.random.default_rng(1))
        b = ComputeJitter(sigma=0.3).perturb(ops, durations(ops), np.random.default_rng(1))
        c = ComputeJitter(sigma=0.3).perturb(ops, durations(ops), np.random.default_rng(2))
        assert a == b
        assert a != c

    def test_only_compute_kinds_touched(self):
        ops = tagged_ops()
        out = ComputeJitter(sigma=0.5).perturb(ops, durations(ops), np.random.default_rng(0))
        for op, before, after in zip(ops, durations(ops), out):
            if op.tags.get("kind") in COMM_KINDS or op.duration == 0.0:
                assert after == before

    def test_uniform_bounds(self):
        ops = tagged_ops()
        out = ComputeJitter(sigma=0.2, distribution="uniform").perturb(
            ops, durations(ops), np.random.default_rng(0)
        )
        for op, after in zip(ops, out):
            if op.tags.get("kind") == "F":
                assert 0.8 * op.duration <= after <= 1.2 * op.duration

    def test_kinds_none_matches_positive_durations(self):
        ops = [Op("a", 1.0), Op("b", 0.0)]
        out = ComputeJitter(sigma=0.4, kinds=None).perturb(
            ops, durations(ops), np.random.default_rng(3)
        )
        assert out[0] != 1.0
        assert out[1] == 0.0

    def test_input_not_mutated(self):
        ops = tagged_ops()
        durs = durations(ops)
        ComputeJitter(sigma=0.5).perturb(ops, durs, np.random.default_rng(0))
        assert durs == durations(ops)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(sigma=-0.1), dict(distribution="gamma"),
         dict(sigma=1.0, distribution="uniform")],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ComputeJitter(**kwargs)

    def test_default_kinds_are_the_schedule_compute_kinds(self):
        assert ComputeJitter().kinds == COMPUTE_KINDS
        hash(ComputeJitter().kinds)  # the graph index caches by kinds

    def test_split_backwards_are_jittered(self):
        # ZB-2BP splits each backward into BI and BW ops; the default jitter
        # must perturb them like forwards, in the scalar and batched paths.
        model = uniform_model("zb", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
        cluster = config_b(2)
        d = cluster.devices
        plan = ParallelPlan(
            model, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
        )
        graph = PipelineExecutor(
            profile_model(model), cluster, plan, schedule="zb2bp"
        ).build_graph()
        ops = graph.ops()
        jitter = ComputeJitter(sigma=0.2)
        scalar = jitter.perturb(ops, durations(ops), np.random.default_rng(0))
        (batched,) = perturb_durations(graph, (jitter,), [0])
        for out in (scalar, batched.tolist()):
            changed = [
                op.tags["kind"] for op, before, after
                in zip(ops, durations(ops), out) if after != before
            ]
            counts = {k: changed.count(k) for k in set(changed)}
            # 2 stages x 4 micro-batches of each compute kind.
            assert counts == {"F": 8, "BI": 8, "BW": 8}


class TestSlowDevice:
    def test_victim_selection_seed_stable(self):
        ops = tagged_ops()
        m = SlowDevice(factor=2.0)
        assert m.pick_victims(ops, np.random.default_rng(5)) == m.pick_victims(
            ops, np.random.default_rng(5)
        )

    def test_all_victim_ops_scaled(self):
        ops = tagged_ops()
        m = SlowDevice(factor=2.0, devices=("gpu:1",))
        out = m.perturb(ops, durations(ops), np.random.default_rng(0))
        for op, before, after in zip(ops, durations(ops), out):
            expect = before * 2.0 if "gpu:1" in op.resources else before
            assert after == expect

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            SlowDevice(factor=0.5)


class TestDegradedLink:
    def test_persistent_slows_all_transfers_on_victim(self):
        ops = tagged_ops()
        m = DegradedLink(factor=3.0, links=("nic:0",))
        out = m.perturb(ops, durations(ops), np.random.default_rng(0))
        for op, before, after in zip(ops, durations(ops), out):
            if op.tags.get("kind") in COMM_KINDS and "nic:0" in op.resources:
                assert after == before * 3.0
            else:
                assert after == before

    def test_flaky_extremes(self):
        ops = tagged_ops()
        never = DegradedLink(factor=3.0, links=("nic:0",), flaky_prob=0.0)
        always = DegradedLink(factor=3.0, links=("nic:0",), flaky_prob=1.0)
        assert never.perturb(ops, durations(ops), np.random.default_rng(0)) == durations(ops)
        hit = always.perturb(ops, durations(ops), np.random.default_rng(0))
        assert any(a != b for a, b in zip(hit, durations(ops)))

    def test_flaky_prob_validated(self):
        with pytest.raises(ValueError, match="flaky_prob"):
            DegradedLink(flaky_prob=1.5)


class TestTransientFailure:
    def test_exactly_one_op_stalled_per_victim(self):
        ops = tagged_ops()
        m = TransientFailure(stall=5.0, devices=("gpu:0",))
        out = m.perturb(ops, durations(ops), np.random.default_rng(0))
        diffs = [a - b for a, b in zip(out, durations(ops))]
        assert sorted(diffs)[-1] == 5.0
        assert sum(1 for d in diffs if d != 0.0) == 1

    def test_position_pins_the_stalled_op(self):
        ops = tagged_ops()
        first = TransientFailure(stall=5.0, devices=("gpu:0",), position=0.0)
        last = TransientFailure(stall=5.0, devices=("gpu:0",), position=1.0)
        gpu0 = [i for i, op in enumerate(ops) if "gpu:0" in op.resources]
        out_first = first.perturb(ops, durations(ops), np.random.default_rng(0))
        out_last = last.perturb(ops, durations(ops), np.random.default_rng(0))
        assert out_first[gpu0[0]] == ops[gpu0[0]].duration + 5.0
        assert out_last[gpu0[-1]] == ops[gpu0[-1]].duration + 5.0

    def test_zero_stall_is_identity(self):
        ops = tagged_ops()
        m = TransientFailure(stall=0.0)
        assert m.perturb(ops, durations(ops), np.random.default_rng(0)) == durations(ops)

    def test_position_validated(self):
        with pytest.raises(ValueError, match="position"):
            TransientFailure(position=2.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: ComputeJitter(sigma=v),
        lambda v: SlowDevice(factor=v),
        lambda v: DegradedLink(factor=v),
        lambda v: TransientFailure(stall=v),
    ],
    ids=["jitter-sigma", "straggler-factor", "link-factor", "stall"],
)
def test_non_finite_parameters_rejected(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)

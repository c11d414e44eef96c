"""Replica folding: one op chain per class of lock-step replicas.

The executor emits one op chain per class of a stage's replicas that share
a slowdown factor; traces and memory timelines expand each folded op back
into one row per replica.  :func:`repro.check.oracles.oracle_fold` proves
the folded run bit-identical to the per-replica graph on the pinned
benchmark plans (``bench/fixtures``), clean, with one slowed device, and
with re-computation.
"""

from pathlib import Path

import pytest

import repro.obs as obs
from repro.check import oracle_fold
from repro.cluster import config_a, config_b, config_by_name
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.core.serialization import load_plan
from repro.models import get_model, uniform_model
from repro.runtime.executor import PipelineExecutor
from repro.sim.engine import Simulator

FIXTURES = Path(__file__).resolve().parents[2] / "bench" / "fixtures"

#: Fixture name -> (model, cluster config, devices), as bench/workloads.
PROBLEMS = {
    "bert48.A128": ("bert48", "A", 128),
    "bert48.B16": ("bert48", "B", 16),
    "gnmt16.C16": ("gnmt16", "C", 16),
}


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def problem(request):
    model, config, devices = PROBLEMS[request.param]
    profile = profile_model(get_model(model))
    cluster = config_by_name(config, devices)
    plan = load_plan(FIXTURES / f"{request.param}.json", profile.graph, cluster)
    return request.param, profile, cluster, plan


def _victim(plan) -> dict:
    """One 1.5x slow device: replica 37 (mod replicas) of the last stage."""
    stage = plan.stages[-1]
    return {stage.devices[37 % stage.replicas].global_id: 1.5}


@pytest.mark.parametrize("schedule", ["dapple", "gpipe", "zb2bp"])
@pytest.mark.parametrize("variant", ["clean", "victim", "recompute"])
def test_fold_is_exact_on_bench_fixtures(problem, schedule, variant):
    _name, profile, cluster, plan = problem
    kwargs = {"schedule": schedule, "enforce_memory": False}
    if variant == "victim":
        kwargs["device_slowdown"] = _victim(plan)
    elif variant == "recompute":
        kwargs["recompute"] = True
    report = oracle_fold(profile, cluster, plan, **kwargs)
    assert report.ok, report.render()


@pytest.mark.parametrize(
    "name, schedule, limit",
    [
        ("bert48.A128", "dapple", 800),
        ("bert48.A128", "zb2bp", 1_100),
    ],
)
def test_folded_graph_size_does_not_grow_with_replicas(name, schedule, limit):
    model, config, devices = PROBLEMS[name]
    profile = profile_model(get_model(model))
    cluster = config_by_name(config, devices)
    plan = load_plan(FIXTURES / f"{name}.json", profile.graph, cluster)
    ex = PipelineExecutor(profile, cluster, plan, schedule=schedule,
                          enforce_memory=False)
    folded = ex.build_graph()
    assert len(folded) <= limit
    assert folded.num_rows == len(ex.build_graph(slots=None))


def test_unreplicated_pipeline_is_unchanged():
    model, config, devices = PROBLEMS["bert48.B16"]
    profile = profile_model(get_model(model))
    cluster = config_by_name(config, devices)
    plan = load_plan(FIXTURES / "bert48.B16.json", profile.graph, cluster)
    graph = PipelineExecutor(profile, cluster, plan).build_graph()
    assert len(graph) == graph.num_rows == 3_984
    assert not graph.members


@pytest.fixture(scope="module")
def small():
    """Two stages: 4 replicas (device 1 slowed) and 2 replicas."""
    model = uniform_model("fold", 4, 9e9, 1_000_000, 1e6, profile_batch=2)
    cluster = config_a(8)
    d = cluster.devices
    plan = ParallelPlan(model, [Stage(0, 2, tuple(d[:4])),
                                Stage(2, 4, tuple(d[4:6]))], 32, 4)
    ex = PipelineExecutor(profile_model(model), cluster, plan,
                          device_slowdown={1: 1.25})
    folded = Simulator(ex.build_graph()).run()
    per_replica = Simulator(ex.build_graph(slots=None)).run()
    return ex, folded, per_replica


class TestExpandedViews:
    def test_classes_are_keyed_by_slowdown_and_named_by_lowest_replica(self, small):
        ex, _folded, _ = small
        graph = ex.build_graph()
        assert graph.members == {
            "gpu:0": ("gpu:0", "gpu:2", "gpu:3"),
            "gpu:4": ("gpu:4", "gpu:5"),
        }
        assert "F/s0/m0/r0" in graph and "F/s0/m0/r1" in graph
        assert "F/s0/m0/r2" not in graph
        assert graph.op("F/s0/m0/r0").replicas.labels == ("r0", "r2", "r3")

    def test_find_by_resource_and_busy_time_answer_for_members(self, small):
        _ex, folded, per_replica = small
        for name in ("F/s0/m2/r3", "B/s1/m1/r1", "init/s0/gpu:2"):
            assert folded.trace.find(name) == per_replica.trace.find(name)
        for key in ("gpu:1", "gpu:3", "gpu:5"):
            assert folded.trace.by_resource(key) == per_replica.trace.by_resource(key)
            assert folded.trace.busy_time(key) == per_replica.trace.busy_time(key)
        assert folded.trace.events == per_replica.trace.events

    def test_memory_timeline_answers_for_members(self, small):
        _ex, folded, per_replica = small
        assert folded.memory.devices() == per_replica.memory.devices()
        assert folded.memory.peak_all() == per_replica.memory.peak_all()
        for key in ("gpu:2", "gpu:5"):
            a, b = folded.memory.curve(key), per_replica.memory.curve(key)
            assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
            assert folded.memory.final(key) == per_replica.memory.final(key)

    def test_reference_engine_expands_folded_ops(self, small):
        ex, folded, _ = small
        ref = Simulator(ex.build_graph(), engine="reference").run()
        def rows(trace):
            return sorted(trace.iter_rows(), key=lambda r: r[:3])

        assert rows(ref.trace) == rows(folded.trace)
        assert ref.memory.peak_all() == folded.memory.peak_all()

    def test_gauges_and_span_name_every_device(self, small):
        ex, _, _ = small
        obs.enable(reset_state=True)
        try:
            graph = ex.build_graph()
            res = Simulator(graph).run()
            reg = obs.registry()
            assert reg.counter("sim.events").value == graph.num_rows
            for key in ("gpu:2", "gpu:3", "gpu:5"):
                occ = reg.gauge("sim.occupancy", resource=key)
                assert occ.value == res.trace.busy_time(key) / res.makespan
                peak = reg.gauge("sim.memory_peak_bytes", device=key)
                assert peak.value == res.memory.peak(key)
            (span,) = [s for s in obs.tracer().spans()
                       if s.name == "runtime.build_graph"]
            assert span.attrs["ops"] == len(graph) < span.attrs["rows"]
            assert span.attrs["rows"] == graph.num_rows
        finally:
            obs.disable()
            obs.reset()


def test_interleaved_plans_are_not_folded():
    model = uniform_model("fold-v", 8, 9e9, 1_000_000, 1e6, profile_batch=2)
    cluster = config_b(4)
    d = cluster.devices
    pairs = [(d[0], d[1]), (d[2], d[3])]
    plan = ParallelPlan(
        model, [Stage(2 * k, 2 * k + 2, pairs[k % 2]) for k in range(4)],
        16, 4, meta={"interleaved": True, "virtual_per_device": 2},
    )
    ex = PipelineExecutor(profile_model(model), cluster, plan,
                          schedule="interleaved:v=2")
    graph = ex.build_graph()
    assert len(graph) == graph.num_rows == len(ex.build_graph(slots=None))


def test_group_transfer_resources_match_the_pairwise_keys():
    for cluster in (config_a(24), config_b(8)):
        d = cluster.devices
        for a, b in [(d[:8], d[8:]), (d[2:6], d[4:13]), (d[:3], d[3:5]),
                     (d[5:6], d[5:7]), (d[::3], d[1::3])]:
            pairwise = set()
            for s in a:
                for r in b:
                    pairwise.update(cluster.transfer_resources(s, r))
            assert cluster.group_transfer_resources(a, b) == tuple(sorted(pairwise))


def test_fault_models_refuse_a_folded_graph(small):
    from repro.faults import SlowDevice
    from repro.faults.inject import perturb_graph
    from repro.faults.models import perturb_durations

    ex, _, _ = small
    folded = ex.build_graph()
    assert perturb_graph(folded, (), 0) is folded
    with pytest.raises(ValueError, match="per-replica"):
        perturb_graph(folded, (SlowDevice(factor=2.0),), 0)
    with pytest.raises(ValueError, match="1 victim slot"):
        perturb_durations(folded, (SlowDevice(factor=2.0),), [0])
    # Device 1 runs slower than the rest of its stage, so it is no slot.
    with pytest.raises(ValueError, match="1 victim slot"):
        perturb_durations(ex.build_graph(slots=1), (SlowDevice(factor=2.0),), [0])
    with pytest.raises(ValueError, match="2 victim slots"):
        perturb_durations(ex.build_graph(slots=2), (SlowDevice(num_devices=2),), [0])
    perturb_durations(ex.build_graph(slots=2), (SlowDevice(factor=2.0),), [0])
    perturb_durations(ex.build_graph(slots=None), (SlowDevice(factor=2.0),), [0])

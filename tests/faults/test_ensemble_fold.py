"""Victim-slot folding: fault ensembles on one small folded graph.

``run_ensemble`` builds the graph with as many single-replica victim slots
per stage as its model set can touch (``build_graph(slots=k)``) and places
each seed's victims on them.  Every report must be bit-identical to the
per-seed oracle, which rebuilds and simulates the per-replica graph once
per seed (:func:`repro.check.reference.per_seed_ensemble`).
"""

from pathlib import Path

import pytest

import repro.obs as obs
from repro.check.reference import per_seed_ensemble
from repro.cluster import config_b, config_by_name
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.core.serialization import load_plan
from repro.faults import (
    ComputeJitter, DegradedLink, PerturbationModel, SlowDevice,
    TransientFailure, run_ensemble,
)
from repro.faults.models import required_slots
from repro.models import get_model, uniform_model
from repro.runtime.executor import PipelineExecutor

FIXTURES = Path(__file__).resolve().parents[2] / "bench" / "fixtures"

#: Fixture name -> (model, cluster config, devices), as bench/workloads.
PROBLEMS = {
    "bert48.A128": ("bert48", "A", 128),
    "bert48.B16": ("bert48", "B", 16),
    "gnmt16.C16": ("gnmt16", "C", 16),
}
SEEDS = (0, 1)
STRAGGLER = (SlowDevice(factor=1.5),)
HEAVY = (SlowDevice(factor=1.5), ComputeJitter(sigma=0.05))


def _load(name):
    model, config, devices = PROBLEMS[name]
    profile = profile_model(get_model(model))
    cluster = config_by_name(config, devices)
    plan = load_plan(FIXTURES / f"{name}.json", profile.graph, cluster)
    return profile, cluster, plan


def _widest(plan) -> list:
    """Device keys of the stage with the most replicas."""
    stage = max(plan.stages, key=lambda s: s.replicas)
    return [d.resource_key for d in stage.devices]


def _first_and_middle(plan) -> tuple:
    """The widest stage's first and middle replica (one device when the
    pipeline is unreplicated)."""
    keys = _widest(plan)
    return tuple(dict.fromkeys((keys[0], keys[len(keys) // 2])))


#: Model sets, each built for a plan (some pin victims).
MODEL_SETS = {
    "straggler": lambda plan: STRAGGLER,
    "two-pinned-one-stage": lambda plan: (
        SlowDevice(factor=1.5, devices=_first_and_middle(plan)),
    ),
    "failure": lambda plan: (TransientFailure(stall=0.2),),
    "failure-mid": lambda plan: (TransientFailure(stall=0.2, position=0.5),),
    "link": lambda plan: (DegradedLink(factor=2.0),),
    "flaky-link": lambda plan: (DegradedLink(factor=2.0, flaky_prob=0.5),),
    "same-victim": lambda plan: (
        SlowDevice(factor=1.5, devices=(_widest(plan)[0],)),
        TransientFailure(stall=0.2, devices=(_widest(plan)[0],)),
    ),
}

#: bert48.A128 evaluates ~1 s per seed on the per-replica oracle, so only
#: its benchmarked case runs in tier-1.
TIER1_A128 = {("dapple", "straggler")}


def _assert_identical(profile, cluster, plan, models, seeds=SEEDS, **kwargs):
    batched = run_ensemble(profile, cluster, plan, models, seeds,
                           enforce_memory=False, **kwargs)
    kwargs.pop("clean", None)
    oracle = per_seed_ensemble(profile, cluster, plan, models, seeds,
                               enforce_memory=False, **kwargs)
    assert batched.identical(oracle), (batched.outcomes, oracle.outcomes)
    return batched


def _cases():
    for name in sorted(PROBLEMS):
        for schedule in ("dapple", "gpipe", "zb2bp"):
            for which in MODEL_SETS:
                marks = ()
                if name == "bert48.A128" and (schedule, which) not in TIER1_A128:
                    marks = (pytest.mark.slow,)
                yield pytest.param(name, schedule, which, marks=marks,
                                   id=f"{name}-{schedule}-{which}")


@pytest.fixture(scope="module")
def problems():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _load(name)
        return cache[name]

    return get


@pytest.mark.parametrize("name, schedule, which", list(_cases()))
def test_folded_ensemble_matches_per_seed_oracle(problems, name, schedule, which):
    profile, cluster, plan = problems(name)
    models = MODEL_SETS[which](plan)
    _assert_identical(profile, cluster, plan, models, schedule=schedule)


def test_recompute(problems):
    profile, cluster, plan = problems("gnmt16.C16")
    _assert_identical(profile, cluster, plan,
                      (SlowDevice(factor=1.5), TransientFailure(stall=0.2)),
                      recompute=True)


def test_caller_supplied_clean(problems):
    profile, cluster, plan = problems("gnmt16.C16")
    first = run_ensemble(profile, cluster, plan, STRAGGLER, [5],
                         enforce_memory=False)
    report = _assert_identical(profile, cluster, plan,
                               (TransientFailure(stall=0.2),),
                               clean=first.clean)
    assert report.clean is first.clean


def test_victims_out_of_replica_order(problems):
    """A slot replica drawn after another victim took its slot moves to
    the next free slot; both devices' busy times follow their chains."""
    profile, cluster, plan = problems("gnmt16.C16")
    keys = [d.resource_key for d in plan.stages[1].devices]
    models = (SlowDevice(factor=1.5, devices=(keys[3],)),
              TransientFailure(stall=0.2, devices=(keys[1],), position=0.3))
    _assert_identical(profile, cluster, plan, models)


def test_interleaved_plan_is_never_folded():
    model = uniform_model("fold-v", 8, 9e9, 1_000_000, 1e6, profile_batch=2)
    cluster = config_b(4)
    d = cluster.devices
    pairs = [(d[0], d[1]), (d[2], d[3])]
    plan = ParallelPlan(
        model, [Stage(2 * k, 2 * k + 2, pairs[k % 2]) for k in range(4)],
        16, 4, meta={"interleaved": True, "virtual_per_device": 2},
    )
    profile = profile_model(model)
    ex = PipelineExecutor(profile, cluster, plan, schedule="interleaved:v=2")
    assert not ex.build_graph(slots=1).members
    _assert_identical(profile, cluster, plan,
                      (SlowDevice(factor=1.5), TransientFailure(stall=0.1)),
                      seeds=(0, 1, 2), schedule="interleaved:v=2")


class SlowFirstOps(PerturbationModel):
    """A third-party model: implements only the scalar ``perturb``."""

    def perturb(self, ops, durations, rng):
        out = list(durations)
        for i in range(0, len(out), 7):
            out[i] = durations[i] * (1.0 + rng.random())
        return out


def test_perturb_only_model_runs_on_the_per_replica_graph(problems):
    profile, cluster, plan = problems("gnmt16.C16")
    assert required_slots((SlowFirstOps(), SlowDevice())) is None
    _assert_identical(profile, cluster, plan, (SlowFirstOps(),))


@pytest.mark.parametrize("models", [
    (SlowDevice(factor=2.0, devices=("gpu:999",)),),
    (DegradedLink(factor=2.0, links=("nic:999",)),),
    (TransientFailure(stall=0.5, devices=("gpu:999",)),),
], ids=["device", "link", "failure"])
def test_unknown_pinned_victim_touches_nothing(problems, models):
    profile, cluster, plan = problems("gnmt16.C16")
    report = _assert_identical(profile, cluster, plan, models, seeds=(1, 2))
    assert (report.makespans == report.clean_makespan).all()


def test_bert48_a128_graph_sizes(problems):
    profile, cluster, plan = problems("bert48.A128")
    ex = PipelineExecutor(profile, cluster, plan, enforce_memory=False)
    assert len(ex.build_graph(slots=required_slots(STRAGGLER))) <= 1_300
    assert len(ex.build_graph(slots=required_slots(HEAVY))) == 33_154


def test_span_records_ops_rows_and_slots(problems):
    profile, cluster, plan = problems("gnmt16.C16")
    obs.enable(reset_state=True)
    try:
        run_ensemble(profile, cluster, plan,
                     (SlowDevice(factor=1.5), TransientFailure()), [0],
                     enforce_memory=False)
        (span,) = [s for s in obs.tracer().spans()
                   if s.name == "faults.run_ensemble"]
        (build,) = [s for s in obs.tracer().spans()
                    if s.name == "runtime.build_graph"]
    finally:
        obs.disable()
        obs.reset()
    assert span.attrs["ops"] == build.attrs["ops"] < span.attrs["rows"]
    assert span.attrs["rows"] == build.attrs["rows"]
    assert span.attrs["slots"] == [2] * plan.num_stages

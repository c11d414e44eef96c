"""Pinned plans for the ``run`` and ``ensemble`` workloads.

The plans live in ``bench/fixtures/<model>.<config><devices>.json``, written
with :func:`repro.core.serialization.save_plan`.  Pinning them means a
planner change cannot silently change what those workloads simulate.  If a
fixture no longer loads against its model and cluster, every op that needs
it fails, and the run reports it.

Regenerate (only when the benchmark itself is redefined) with::

    cd bench && PYTHONPATH=../src python -m workloads.fixtures
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster import config_by_name
from repro.core import Planner, profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.core.serialization import load_plan, save_plan
from repro.models import get_model

DIRECTORY = Path(__file__).resolve().parent.parent / "fixtures"

#: Fixture name -> (model, cluster config, devices).
PROBLEMS = {
    "bert48.A128": ("bert48", "A", 128),
    "bert48.B16": ("bert48", "B", 16),
    "gnmt16.C16": ("gnmt16", "C", 16),
}


def load(name: str, directory: Path = DIRECTORY):
    """``(profile, cluster, plan)`` of a fixture; raises if it does not load."""
    model, config, devices = PROBLEMS[name]
    profile = profile_model(get_model(model))
    cluster = config_by_name(config, devices)
    plan = load_plan(Path(directory) / f"{name}.json", profile.graph, cluster)
    return profile, cluster, plan


def _build(name: str) -> ParallelPlan:
    model, config, devices = PROBLEMS[name]
    profile = profile_model(get_model(model))
    cluster = config_by_name(config, devices)
    d = cluster.devices
    if name == "bert48.A128":
        # The plan of benchmarks/perf_ensemble.py: config_a(16) is 16
        # machines of 8 GPUs, split 8:120 over two stages.
        stages = [Stage(0, 25, tuple(d[:8])), Stage(25, 50, tuple(d[8:]))]
        return ParallelPlan(profile.graph, stages, 256, 128)
    if name == "bert48.B16":
        # The balanced straight pipeline, one stage per device.
        straight = Planner(profile, cluster, 128).straight_plan()
        return ParallelPlan(profile.graph, straight.stages, 128, 64)
    # gnmt16.C16: four stages of four layers, each on four devices.
    stages = [Stage(4 * i, 4 * i + 4, tuple(d[4 * i:4 * i + 4])) for i in range(4)]
    return ParallelPlan(profile.graph, stages, 256, 16)


def write_all(directory: Path = DIRECTORY) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in PROBLEMS:
        print(save_plan(_build(name), directory / f"{name}.json"))


if __name__ == "__main__":
    write_all()

"""Plan / problem (de)serialization to plain dictionaries / JSON.

A serialized plan is portable across processes: it references devices by
global id and the model by registry name (or carries layer counts for
custom graphs), so a plan searched once can be cached, shipped to a
runner, or inspected by the CLI.

Beyond plans, this module round-trips every *input* of a planner problem —
:class:`~repro.core.planner.PlannerConfig`, :class:`~repro.models.graph.LayerGraph`,
:class:`~repro.cluster.device.GPUSpec`, and :class:`~repro.cluster.topology.Cluster`
— so a complete plan request can cross a process or HTTP boundary
(:mod:`repro.serve`) and be rebuilt bit-identically on the other side.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Any, Callable

from repro.cluster.device import GPUSpec
from repro.cluster.machine import Machine
from repro.cluster.topology import Cluster, LinkSpec
from repro.core.placement import POLICIES
from repro.core.plan import ParallelPlan, Stage
from repro.models.graph import LayerGraph, LayerSpec


def plan_to_dict(plan: ParallelPlan) -> dict[str, Any]:
    """Serialize a plan into a JSON-safe dictionary."""
    return {
        "model": plan.model.name,
        "num_layers": plan.model.num_layers,
        "global_batch_size": plan.global_batch_size,
        "num_micro_batches": plan.num_micro_batches,
        "stages": [
            {
                "layer_lo": s.layer_lo,
                "layer_hi": s.layer_hi,
                "devices": [d.global_id for d in s.devices],
            }
            for s in plan.stages
        ],
        "meta": dict(plan.meta),
    }


def plan_from_dict(
    data: dict[str, Any], model: LayerGraph, cluster: Cluster
) -> ParallelPlan:
    """Rebuild a plan against a concrete model and cluster.

    Raises
    ------
    ValueError
        If the payload does not match the model's depth or references
        devices the cluster does not have.
    """
    if data["num_layers"] != model.num_layers:
        raise ValueError(
            f"plan was made for a {data['num_layers']}-layer model but "
            f"{model.name} has {model.num_layers}"
        )
    max_id = cluster.num_devices - 1
    stages = []
    for s in data["stages"]:
        for gid in s["devices"]:
            if not (0 <= gid <= max_id):
                raise ValueError(f"plan references device {gid}, cluster has 0..{max_id}")
        stages.append(
            Stage(
                s["layer_lo"],
                s["layer_hi"],
                tuple(cluster.device(g) for g in s["devices"]),
            )
        )
    plan = ParallelPlan(
        model=model,
        stages=stages,
        global_batch_size=data["global_batch_size"],
        num_micro_batches=data["num_micro_batches"],
        meta=dict(data.get("meta", {})),
    )
    return plan


def save_plan(plan: ParallelPlan, path: str | Path) -> Path:
    """Write a plan as JSON."""
    path = Path(path)
    path.write_text(json.dumps(plan_to_dict(plan), indent=2) + "\n")
    return path


def load_plan(path: str | Path, model: LayerGraph, cluster: Cluster) -> ParallelPlan:
    """Read a JSON plan back against ``model`` and ``cluster``."""
    data = json.loads(Path(path).read_text())
    return plan_from_dict(data, model, cluster)


# --------------------------------------------------------------------------- #
# Planner configuration
# --------------------------------------------------------------------------- #
def planner_config_to_dict(config) -> dict[str, Any]:
    """Serialize a :class:`~repro.core.planner.PlannerConfig` field-by-field."""
    out: dict[str, Any] = {}
    for f in dataclass_fields(config):
        v = getattr(config, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def _int_at_least(low: int, nullable: bool = False) -> Callable[[Any], bool]:
    def ok(v: Any) -> bool:
        if v is None:
            return nullable
        return isinstance(v, int) and not isinstance(v, bool) and v >= low

    return ok


def _is_bool(v: Any) -> bool:
    return isinstance(v, bool)


#: Per-field value checks: (predicate, description of a valid value).
_PLANNER_FIELD_CHECKS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "micro_batch_size": (_int_at_least(1, nullable=True), "an integer >= 1 or null"),
    "beam_width": (_int_at_least(1, nullable=True), "an integer >= 1 or null"),
    "policies": (
        lambda v: isinstance(v, tuple) and bool(v)
        and all(isinstance(p, str) and p in POLICIES for p in v),
        f"a non-empty list of {sorted(POLICIES)}",
    ),
    "max_stages": (_int_at_least(1, nullable=True), "an integer >= 1 or null"),
    "min_stages": (_int_at_least(1), "an integer >= 1"),
    "enforce_memory": (_is_bool, "a boolean"),
    "stage_overhead_frac": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        and math.isfinite(v) and v >= 0,
        "a finite number >= 0",
    ),
    "consider_interleaved": (_is_bool, "a boolean"),
    "keep_top_k": (_int_at_least(0), "an integer >= 0"),
}


def planner_config_from_dict(data: dict[str, Any]):
    """Rebuild a :class:`~repro.core.planner.PlannerConfig` from a dict.

    Only known fields are accepted — an unknown key raises ``ValueError``
    rather than being silently dropped, so a client typo cannot produce a
    plan searched under different knobs than requested.  Each value is
    type- and range-checked (a bad one raises ``ValueError`` naming the
    field) so it cannot crash or silently degenerate the search.  Omitted
    fields take their defaults; JSON lists are coerced back to tuples where
    the dataclass default is a tuple (``policies``).
    """
    from repro.core.planner import PlannerConfig

    valid = {f.name: f for f in dataclass_fields(PlannerConfig)}
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ValueError(
            f"unknown PlannerConfig field(s) {unknown}; "
            f"valid fields: {sorted(valid)}"
        )
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        ok, want = _PLANNER_FIELD_CHECKS[name]
        if not ok(value):
            raise ValueError(f"PlannerConfig.{name} must be {want}, got {value!r}")
        kwargs[name] = value
    return PlannerConfig(**kwargs)


# --------------------------------------------------------------------------- #
# Model graphs and GPU specs
# --------------------------------------------------------------------------- #
def graph_to_dict(graph: LayerGraph) -> dict[str, Any]:
    """Serialize a :class:`LayerGraph` (inline custom-model requests)."""
    return {
        "name": graph.name,
        "profile_batch": graph.profile_batch,
        "optimizer": graph.optimizer,
        "fixed_overhead_fwd": graph.fixed_overhead_fwd,
        "layers": [
            {
                "name": l.name,
                "flops_fwd": l.flops_fwd,
                "params": l.params,
                "activation_out_bytes": l.activation_out_bytes,
                "stored_bytes": l.stored_bytes,
                "bwd_flops_ratio": l.bwd_flops_ratio,
            }
            for l in graph.layers
        ],
    }


def graph_from_dict(data: dict[str, Any]) -> LayerGraph:
    """Rebuild a :class:`LayerGraph`; malformed payloads raise ``ValueError``."""
    try:
        layers = [LayerSpec(**l) for l in data["layers"]]
        return LayerGraph(
            name=str(data["name"]),
            layers=layers,
            profile_batch=int(data["profile_batch"]),
            optimizer=data.get("optimizer", "adam"),
            fixed_overhead_fwd=float(data.get("fixed_overhead_fwd", 20e-6)),
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed layer-graph payload: {e}") from e


def gpu_spec_to_dict(spec: GPUSpec) -> dict[str, Any]:
    return {"name": spec.name, "memory_bytes": spec.memory_bytes, "flops": spec.flops}


def gpu_spec_from_dict(data: dict[str, Any]) -> GPUSpec:
    try:
        return GPUSpec(
            name=str(data["name"]),
            memory_bytes=int(data["memory_bytes"]),
            flops=float(data["flops"]),
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed GPU-spec payload: {e}") from e


# --------------------------------------------------------------------------- #
# Clusters
# --------------------------------------------------------------------------- #
def cluster_to_dict(cluster: Cluster) -> dict[str, Any]:
    """Serialize a :class:`Cluster` topology (per-machine shape + links)."""
    return {
        "name": cluster.name,
        "inter": {
            "name": cluster.inter.name,
            "bandwidth": cluster.inter.bandwidth,
            "latency": cluster.inter.latency,
        },
        "machines": [
            {
                "num_gpus": m.num_gpus,
                "intra_bw": m.intra_bw,
                "intra_lat": m.intra_lat,
                "gpu_spec": gpu_spec_to_dict(m.gpu_spec),
            }
            for m in cluster.machines
        ],
    }


def cluster_from_dict(data: dict[str, Any]) -> Cluster:
    """Rebuild a :class:`Cluster`; malformed payloads raise ``ValueError``."""
    try:
        inter = LinkSpec(
            name=str(data["inter"]["name"]),
            bandwidth=float(data["inter"]["bandwidth"]),
            latency=float(data["inter"]["latency"]),
        )
        machines = [
            Machine(
                machine_id=i,
                num_gpus=int(m["num_gpus"]),
                intra_bw=float(m["intra_bw"]),
                intra_lat=float(m["intra_lat"]),
                gpu_spec=gpu_spec_from_dict(m["gpu_spec"]),
            )
            for i, m in enumerate(data["machines"])
        ]
        return Cluster(machines, inter, name=str(data.get("name", "custom")))
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed cluster payload: {e}") from e

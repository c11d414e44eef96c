"""Wire schema for plan requests (``plan-request-v1``).

A request is plain JSON naming a planning problem:

.. code-block:: json

    {
      "model": "bert48",             // zoo name ...
      "graph": {...},                // ... or an inline layer graph
      "config": "A",                 // hardware config letter ...
      "cluster": {...},              // ... or an inline topology
      "devices": 16,
      "gbs": 64,                     // omitted -> paper default for the model
      "planner": {"beam_width": 48}, // PlannerConfig overrides
      "explain": false,              // also produce the Tw/Ts/Te breakdown
      "check": false,                // also run the conformance battery
      "schedule": "dapple"           // schedule spec for the check arm
    }

``schedule`` accepts any :mod:`repro.schedules` registry spec
(``"dapple"``, ``"gpipe"``, ``"zb2bp:w=0.4"``, ...); it is validated at
decode time against the registry and echoed in the response.

:func:`decode_plan_request` validates the shape (unknown keys, exclusive
``model``/``graph`` and ``config``/``cluster`` pairs, type errors) and
:meth:`PlanRequest.resolve` builds the concrete ``(ModelProfile, Cluster,
GBS, PlannerConfig)`` tuple via :mod:`repro.core.serialization` — both
raise :class:`RequestError`, which the HTTP layer maps to a 400.

Decoding is deterministic: the same JSON body always resolves to the same
fingerprint in the content-addressed plan cache, so repeated requests
short-circuit through :class:`~repro.core.plancache.PlanCache` in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster import config_by_name
from repro.core.profiler import profile_model
from repro.core.serialization import (
    cluster_from_dict,
    graph_from_dict,
    planner_config_from_dict,
)
from repro.models import get_model, model_names, paper_gbs

SCHEMA = "plan-request-v1"

#: Keys a request body may carry; anything else is rejected with a 400.
_ALLOWED_KEYS = {
    "schema", "model", "graph", "config", "cluster", "devices", "gbs",
    "planner", "explain", "check", "schedule",
}


#: Most GPUs a request may name (``devices``, or the inline cluster's
#: total).  Building a cluster costs time and memory linear in its size, so
#: the bound is checked before anything is built.
MAX_GPUS = 1024

#: Largest ``gbs`` a request may ask for.  The micro-batch divisor search is
#: O(√gbs) and runs per planner candidate, so the bound is checked before
#: anything is built.
MAX_GBS = 2**20


class RequestError(ValueError):
    """Malformed or unresolvable plan request (HTTP 400)."""


def _inline_gpus(cluster: dict[str, Any]) -> int:
    """GPUs an inline cluster payload would build, counting what it can.

    Malformed entries count zero here; :func:`cluster_from_dict` rejects
    them afterwards with its own message.
    """
    machines = cluster.get("machines")
    total = 0
    for m in machines if isinstance(machines, list) else ():
        try:
            total += max(0, int(m["num_gpus"]))
        except (KeyError, TypeError, ValueError, OverflowError):
            continue
    return total


@dataclass
class PlanRequest:
    """A validated (but not yet resolved) planning problem."""

    model: str | None = None
    graph: dict[str, Any] | None = None
    config: str = "A"
    cluster: dict[str, Any] | None = None
    devices: int = 16
    gbs: int | None = None
    planner: dict[str, Any] = field(default_factory=dict)
    explain: bool = False
    check: bool = False
    #: Schedule registry spec the check arm executes under.
    schedule: str = "dapple"

    def to_dict(self) -> dict[str, Any]:
        """Round-trippable body: ``decode_plan_request(req.to_dict())`` == req."""
        out: dict[str, Any] = {"schema": SCHEMA}
        if self.graph is not None:
            out["graph"] = self.graph
        else:
            out["model"] = self.model
        if self.cluster is not None:
            out["cluster"] = self.cluster
        else:
            out["config"] = self.config
        out["devices"] = self.devices
        if self.gbs is not None:
            out["gbs"] = self.gbs
        if self.planner:
            out["planner"] = self.planner
        if self.explain:
            out["explain"] = True
        if self.check:
            out["check"] = True
        if self.schedule != "dapple":
            out["schedule"] = self.schedule
        return out

    def resolve(self):
        """Build ``(profile, cluster, gbs, planner_config)`` or raise 400."""
        gpus = self.devices if self.cluster is None else _inline_gpus(self.cluster)
        if gpus > MAX_GPUS:
            what = "'devices'" if self.cluster is None else "inline 'cluster'"
            raise RequestError(
                f"{what} names {gpus} GPUs; a request may name at most {MAX_GPUS}"
            )
        if self.gbs is not None and self.gbs > MAX_GBS:
            raise RequestError(f"'gbs' is {self.gbs}; a request may ask for at most {MAX_GBS}")
        try:
            if self.graph is not None:
                graph = graph_from_dict(self.graph)
            else:
                graph = get_model(self.model)
            if self.cluster is not None:
                cluster = cluster_from_dict(self.cluster)
            else:
                cluster = config_by_name(self.config, self.devices)
            cfg = planner_config_from_dict(self.planner)
        except (ValueError, KeyError) as e:
            msg = e.args[0] if e.args else e
            raise RequestError(str(msg)) from e
        gbs = self.gbs if self.gbs is not None else paper_gbs(self.model or graph.name)
        if gbs < 1:
            raise RequestError(f"global batch size must be >= 1, got {gbs}")
        return profile_model(graph), cluster, int(gbs), cfg


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RequestError(msg)


def decode_plan_request(data: Any) -> PlanRequest:
    """Validate a JSON body into a :class:`PlanRequest` (raises 400s)."""
    _require(isinstance(data, dict), "request body must be a JSON object")
    schema = data.get("schema", SCHEMA)
    _require(schema == SCHEMA, f"unsupported request schema {schema!r} (want {SCHEMA!r})")
    unknown = sorted(set(data) - _ALLOWED_KEYS)
    _require(not unknown, f"unknown request key(s) {unknown}")

    model = data.get("model")
    graph = data.get("graph")
    _require(
        (model is None) != (graph is None),
        "request must carry exactly one of 'model' (zoo name) or 'graph' (inline)",
    )
    if model is not None:
        _require(isinstance(model, str), "'model' must be a string")
        _require(
            model.strip().lower() in model_names(),
            f"unknown model {model!r} (valid: {model_names()})",
        )
    if graph is not None:
        _require(isinstance(graph, dict), "'graph' must be an object")

    cluster = data.get("cluster")
    config = data.get("config", "A")
    _require(
        cluster is None or "config" not in data,
        "request may carry 'config' (letter) or 'cluster' (inline), not both",
    )
    _require(isinstance(config, str), "'config' must be a string")
    if cluster is not None:
        _require(isinstance(cluster, dict), "'cluster' must be an object")

    devices = data.get("devices", 16)
    _require(isinstance(devices, int) and not isinstance(devices, bool) and devices >= 1,
             f"'devices' must be a positive integer, got {devices!r}")
    gbs = data.get("gbs")
    _require(
        gbs is None or (isinstance(gbs, int) and not isinstance(gbs, bool) and gbs >= 1),
        f"'gbs' must be a positive integer, got {gbs!r}",
    )
    planner = data.get("planner", {})
    _require(isinstance(planner, dict), "'planner' must be an object of PlannerConfig fields")
    explain = data.get("explain", False)
    check = data.get("check", False)
    _require(isinstance(explain, bool), "'explain' must be a boolean")
    _require(isinstance(check, bool), "'check' must be a boolean")
    schedule = data.get("schedule", "dapple")
    _require(isinstance(schedule, str), "'schedule' must be a string")
    if "schedule" in data:
        from repro.schedules import parse_schedule_spec

        try:
            parse_schedule_spec(schedule)
        except ValueError as e:
            raise RequestError(str(e)) from e

    req = PlanRequest(
        model=model, graph=graph, config=config, cluster=cluster,
        devices=devices, gbs=gbs, planner=dict(planner),
        explain=explain, check=check, schedule=schedule,
    )
    # Resolve eagerly so submissions fail fast with a 400 (bad PlannerConfig
    # field, malformed inline graph/cluster) instead of queueing a job that
    # can only fail later.
    req.resolve()
    return req

"""Wire-schema tests: request decoding, validation, round-trips."""

import pytest

from repro.cluster import config_a, config_by_name
from repro.core import PlannerConfig, profile_model
from repro.core.plancache import fingerprint
from repro.core.serialization import (
    cluster_from_dict,
    cluster_to_dict,
    graph_from_dict,
    graph_to_dict,
    gpu_spec_from_dict,
    gpu_spec_to_dict,
    planner_config_from_dict,
    planner_config_to_dict,
)
from repro.models import get_model, uniform_model
from repro.serve.protocol import PlanRequest, RequestError, decode_plan_request


def _graph():
    return uniform_model("proto-test", 6, 2e9, 500_000, 2e6, profile_batch=4)


class TestPlannerConfigRoundTrip:
    def test_default_round_trips(self):
        cfg = PlannerConfig()
        assert planner_config_from_dict(planner_config_to_dict(cfg)) == cfg

    def test_custom_fields_round_trip(self):
        cfg = PlannerConfig(
            beam_width=7, policies=("fresh_first",), min_stages=2,
            keep_top_k=3, stage_overhead_frac=0.01,
        )
        back = planner_config_from_dict(planner_config_to_dict(cfg))
        assert back == cfg
        assert isinstance(back.policies, tuple)

    def test_partial_dict_uses_defaults(self):
        cfg = planner_config_from_dict({"beam_width": 12})
        assert cfg.beam_width == 12
        assert cfg.policies == PlannerConfig().policies

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="beam_widht"):
            planner_config_from_dict({"beam_widht": 3})


class TestProblemRoundTrips:
    """Round-tripped inputs fingerprint identically — the cache-key level
    statement that serialization loses nothing the planner depends on."""

    def test_graph_round_trip_fingerprint(self):
        graph = _graph()
        clu = config_a(4)
        cfg = PlannerConfig()
        a = fingerprint(profile_model(graph), clu, 64, cfg)
        b = fingerprint(profile_model(graph_from_dict(graph_to_dict(graph))), clu, 64, cfg)
        assert a == b

    def test_zoo_graph_round_trip_fingerprint(self):
        graph = get_model("vgg19")
        clu = config_by_name("C", 16)
        cfg = PlannerConfig()
        a = fingerprint(profile_model(graph), clu, 2048, cfg)
        b = fingerprint(
            profile_model(graph_from_dict(graph_to_dict(graph))), clu, 2048, cfg
        )
        assert a == b

    def test_cluster_round_trip_fingerprint(self):
        graph = _graph()
        clu = config_by_name("A", 8)
        back = cluster_from_dict(cluster_to_dict(clu))
        cfg = PlannerConfig()
        assert fingerprint(profile_model(graph), clu, 64, cfg) == fingerprint(
            profile_model(graph), back, 64, cfg
        )
        assert back.num_devices == clu.num_devices
        assert back.num_machines == clu.num_machines

    def test_gpu_spec_round_trip(self):
        spec = config_a(8).machines[0].gpu_spec
        assert gpu_spec_from_dict(gpu_spec_to_dict(spec)) == spec

    def test_malformed_payloads_raise_value_error(self):
        with pytest.raises(ValueError):
            graph_from_dict({"name": "x"})
        with pytest.raises(ValueError):
            cluster_from_dict({"machines": []})
        with pytest.raises(ValueError):
            gpu_spec_from_dict({"name": "x"})


class TestDecodePlanRequest:
    def test_zoo_model_request(self):
        req = decode_plan_request({"model": "vgg19", "config": "C", "devices": 16})
        assert req.model == "vgg19"
        profile, cluster, gbs, cfg = req.resolve()
        assert profile.graph.name == "VGG-19"
        assert cluster.num_devices == 16
        assert gbs == 2048  # paper default for vgg19
        assert cfg == PlannerConfig()

    def test_inline_graph_request(self):
        req = decode_plan_request({
            "graph": graph_to_dict(_graph()), "config": "A", "devices": 8, "gbs": 32,
        })
        profile, _cluster, gbs, _cfg = req.resolve()
        assert profile.num_layers == 6
        assert gbs == 32

    def test_inline_cluster_request(self):
        req = decode_plan_request({
            "model": "vgg19", "cluster": cluster_to_dict(config_a(1)), "gbs": 64,
        })
        _profile, cluster, _gbs, _cfg = req.resolve()
        assert cluster.num_devices == 8

    def test_round_trip_through_to_dict(self):
        body = {
            "graph": graph_to_dict(_graph()),
            "cluster": cluster_to_dict(config_a(4)),
            "gbs": 64, "planner": {"beam_width": 8}, "explain": True,
        }
        req = decode_plan_request(body)
        again = decode_plan_request(req.to_dict())
        assert again == req

    @pytest.mark.parametrize("body,match", [
        ([1, 2], "JSON object"),
        ({}, "exactly one of"),
        ({"model": "vgg19", "graph": {}}, "exactly one of"),
        ({"model": "no-such-model"}, "unknown model"),
        ({"model": "vgg19", "frobnicate": 1}, "unknown request key"),
        ({"model": "vgg19", "devices": "sixteen"}, "positive integer"),
        ({"model": "vgg19", "devices": 0}, "positive integer"),
        ({"model": "vgg19", "gbs": True}, "positive integer"),
        ({"model": "vgg19", "explain": "yes"}, "boolean"),
        ({"model": "vgg19", "planner": {"beam_widht": 3}}, "beam_widht"),
        ({"model": "vgg19", "config": "Z"}, "unknown hardware config"),
        ({"model": "vgg19", "config": "A", "cluster": {}, "devices": 8}, "not both"),
        ({"model": "vgg19", "schema": "plan-request-v0"}, "unsupported request schema"),
    ])
    def test_invalid_requests_rejected(self, body, match):
        with pytest.raises(RequestError, match=match):
            decode_plan_request(body)

    @pytest.mark.parametrize("planner", [
        {"beam_width": "8"},
        {"policies": "fresh_first"},
        {"stage_overhead_frac": "x"},
        {"beam_width": 0},
        {"min_stages": 2.5},
        {"keep_top_k": -3},
        {"level_batch": False},
        {"use_fast_scan": False},
    ])
    def test_bad_planner_values_rejected(self, planner):
        with pytest.raises(RequestError, match=next(iter(planner))):
            decode_plan_request({"model": "vgg19", "planner": planner})

    def test_devices_must_fit_config(self):
        # Config A packs 8 GPUs/server; 12 devices is rejected at decode time.
        with pytest.raises(RequestError, match="multiple of 8"):
            decode_plan_request({"model": "vgg19", "config": "A", "devices": 12})


class TestClusterSizeBound:
    """Requests naming more than MAX_GPUS GPUs are refused before any
    cluster object is built (building costs time and memory per GPU)."""

    @pytest.fixture
    def no_builds(self, monkeypatch):
        import repro.serve.protocol as protocol

        def refuse(*_args, **_kwargs):
            raise AssertionError("a cluster was built for an oversized request")

        monkeypatch.setattr(protocol, "config_by_name", refuse)
        monkeypatch.setattr(protocol, "cluster_from_dict", refuse)

    def test_devices_over_bound_rejected_before_build(self, no_builds):
        from repro.serve.protocol import MAX_GPUS

        assert MAX_GPUS == 1024
        with pytest.raises(RequestError, match="at most 1024"):
            decode_plan_request({"model": "bert48", "config": "B", "devices": 10**8})

    def test_inline_cluster_over_bound_rejected_before_build(self, no_builds):
        body = cluster_to_dict(config_a(2))
        body["machines"][0]["num_gpus"] = 10**8
        with pytest.raises(RequestError, match="at most 1024"):
            decode_plan_request({"model": "bert48", "cluster": body})

    def test_bound_itself_is_accepted(self):
        req = decode_plan_request({"model": "bert48", "config": "B", "devices": 1024})
        assert req.resolve()[1].num_devices == 1024

    def test_non_finite_gpu_count_is_a_400(self):
        body = cluster_to_dict(config_a(1))
        body["machines"][0]["num_gpus"] = float("inf")
        with pytest.raises(RequestError, match="malformed cluster payload"):
            decode_plan_request({"model": "bert48", "cluster": body})

"""Tier-1 end-to-end smoke: ephemeral-port server, submit → poll → fetch →
drain, plus the HTTP error surface (400/404/429/503) and the bit-identity
guarantee vs a direct ``plan_best`` call."""

import json
import time
import urllib.request

import pytest

from repro.cluster import config_by_name
from repro.core import PlannerConfig, profile_model
from repro.core.planner import plan_best
from repro.core.serialization import graph_to_dict, plan_to_dict
from repro.models import uniform_model
from repro.serve import PlanClient, PlanServer, ServiceError

#: Generous tier-1 cap for a warm cache-hit round trip; the slow
#: gate (tests/perf/test_gates.py) holds the real <= 50 ms p95 target.
WARM_HIT_CAP_S = 2.0


def _graph_body(**extra):
    graph = uniform_model("serve-test", 6, 2e9, 500_000, 2e6, profile_batch=4)
    body = {"graph": graph_to_dict(graph), "config": "A", "devices": 8, "gbs": 32}
    body.update(extra)
    return graph, body


@pytest.fixture()
def server(tmp_path):
    srv = PlanServer(
        workers=1, exec_mode="inline", queue_depth=8, data_dir=tmp_path / "serve"
    ).start()
    try:
        yield srv
    finally:
        srv.close()


class TestEndToEnd:
    def test_submit_poll_fetch_drain(self, server):
        graph, body = _graph_body()
        client = PlanClient(server.url, timeout=10.0)

        health = client.health()
        assert health["status"] == "ok"
        assert health["queue"]["depth"] == 0

        submitted = client.submit(body)
        assert submitted["job_id"].startswith("job-")
        job = client.wait(submitted["job_id"], timeout=60.0)
        assert job["state"] == "done"
        assert set(job["artifacts"]) == {"result"}

        # Served result is bit-identical to a direct plan_best call.
        result = client.result(job)
        direct = plan_best(
            profile_model(graph), config_by_name("A", 8), 32, PlannerConfig()
        )
        assert result["plan"] == plan_to_dict(direct.plan)
        assert result["estimate"]["latency"] == direct.estimate.latency
        assert result["counters"]["plans_evaluated"] == direct.plans_evaluated

        # The artifact is immutable content: digest = sha256(payload).
        import hashlib

        payload, _ct = client.artifact(job["artifacts"]["result"])
        assert hashlib.sha256(payload).hexdigest() == job["artifacts"]["result"]

        assert server.drain(timeout=10.0)
        assert server.queue.stats()["completed"] == 1

    def test_warm_cache_hit_round_trip(self, server):
        _graph, body = _graph_body()
        client = PlanClient(server.url, timeout=10.0)
        cold = client.wait(client.submit(body)["job_id"], timeout=60.0)
        assert cold["summary"]["cache_hit"] is False

        t0 = time.perf_counter()
        warm = client.wait(client.submit(body)["job_id"], timeout=60.0)
        elapsed = time.perf_counter() - t0
        assert warm["summary"]["cache_hit"] is True
        assert elapsed < WARM_HIT_CAP_S, (
            f"warm cache-hit round trip took {elapsed:.2f}s — "
            "did the service stop short-circuiting through the plan cache?"
        )
        # identical content → identical artifact digests modulo request echo
        assert client.result(warm)["plan"] == client.result(cold)["plan"]

        stats = client.cache_stats()
        assert stats["served"] == {"jobs_done": 2, "cache_hits": 1}
        assert stats["plan_cache"]["disk_entries"] == 1
        assert stats["artifacts"]["artifacts"] >= 1

    def test_explain_and_check_artifacts(self, server):
        _graph, body = _graph_body(explain=True, check=True,
                                   planner={"keep_top_k": 3})
        client = PlanClient(server.url, timeout=30.0)
        job = client.wait(client.submit(body)["job_id"], timeout=120.0)
        assert set(job["artifacts"]) == {"result", "explain", "check"}
        explain, content_type = client.artifact(job["artifacts"]["explain"])
        assert b"winner:" in explain
        assert content_type.startswith("text/plain")
        check = client.artifact_json(job["artifacts"]["check"])
        assert check["ok"] is True
        assert check["invariants"]
        assert job["summary"]["check_ok"] is True


class TestHTTPErrorSurface:
    def test_bad_requests_are_400(self, server):
        client = PlanClient(server.url, timeout=10.0)
        for body, fragment in [
            ({"model": "no-such-model"}, "unknown model"),
            ({"model": "vgg19", "planner": {"beam_widht": 1}}, "beam_widht"),
            ({}, "exactly one of"),
        ]:
            with pytest.raises(ServiceError) as err:
                client.submit(body)
            assert err.value.status == 400
            assert fragment in str(err.value)

    def test_non_json_body_is_400(self, server):
        req = urllib.request.Request(
            f"{server.url}/v1/plans", data=b"not json{", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5)
        assert err.value.code == 400

    def test_unknown_job_artifact_endpoint_are_404(self, server):
        client = PlanClient(server.url, timeout=10.0)
        for path in ("/v1/jobs/job-999999", "/v1/artifacts/" + "0" * 64,
                     "/v1/nope"):
            with pytest.raises(ServiceError) as err:
                client._json("GET", path)
            assert err.value.status == 404

    def test_backpressure_is_429_with_retry_after(self, tmp_path):
        # Workers deliberately not started: submissions pile up in the queue.
        srv = PlanServer(
            workers=1, exec_mode="inline", queue_depth=2,
            data_dir=tmp_path / "bp", start_workers=False,
        ).start()
        try:
            client = PlanClient(srv.url, timeout=10.0)
            _graph, body = _graph_body()
            client.submit(body)
            client.submit(body)
            with pytest.raises(ServiceError) as err:
                client.submit(body)
            assert err.value.status == 429
            assert err.value.retry_after == 1.0
            assert client.health()["queue"]["rejected"] == 1
            # load-shedding recovers once workers drain the queue
            srv.start_workers()
            deadline = time.monotonic() + 60
            while client.health()["queue"]["depth"] and time.monotonic() < deadline:
                time.sleep(0.02)
            client.submit(body)
        finally:
            srv.close()

    def test_draining_server_returns_503(self, server):
        client = PlanClient(server.url, timeout=10.0)
        server.queue.close()
        _graph, body = _graph_body()
        with pytest.raises(ServiceError) as err:
            client.submit(body)
        assert err.value.status == 503


class TestForkMode:
    def test_fork_pool_serves_and_reports_mode(self, tmp_path):
        srv = PlanServer(
            workers=2, exec_mode="fork", queue_depth=8, data_dir=tmp_path / "fork"
        ).start()
        try:
            client = PlanClient(srv.url, timeout=30.0)
            assert client.health()["exec_mode"] in ("fork", "inline")  # sandbox may degrade
            _graph, body = _graph_body()
            job = client.wait(client.submit(body)["job_id"], timeout=120.0)
            assert job["state"] == "done"
            # disk tier is shared across worker processes: a repeat hits
            warm = client.wait(client.submit(body)["job_id"], timeout=120.0)
            assert warm["summary"]["cache_hit"] is True
            assert srv.drain(timeout=30.0)
        finally:
            srv.close()


class TestJobFailureSurface:
    def test_runtime_failure_marks_job_failed(self, server):
        # An inline graph that decodes but cannot be planned: memory-infeasible
        # everywhere (enormous per-layer footprint on every device).
        graph = uniform_model("oom-test", 4, 2e9, 500_000, 1e18, profile_batch=4)
        body = {"graph": graph_to_dict(graph), "config": "A", "devices": 8, "gbs": 32}
        client = PlanClient(server.url, timeout=30.0)
        submitted = client.submit(body)
        with pytest.raises(ServiceError, match="failed"):
            client.wait(submitted["job_id"], timeout=60.0)
        job = client.job(submitted["job_id"])
        assert job["state"] == "failed"
        assert job["error"]

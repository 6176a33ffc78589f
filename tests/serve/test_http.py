"""The stdlib HTTP front end: real sockets, real status codes."""

import json
import threading
import time

import pytest

from repro.serve import JobService, JobState, ServeHTTPServer, TenantQuota
from repro.serve.client import ROUND_TRIPS_KEPT, ServeClient
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.service import MAX_SCALE_NODES

WAIT = 120


@pytest.fixture
def served(serve_graph):
    service = JobService(
        num_nodes=3,
        workers=2,
        quotas={"bob": TenantQuota(memory_fraction=1e-9)},
    )
    service.add_dataset("g", vertices=serve_graph)
    service.start()
    server = ServeHTTPServer(service, port=0)  # ephemeral port
    client = ServeClient("http://%s:%d" % server.start(), timeout=60)
    yield service, client
    client.close()
    server.close()
    service.shutdown(timeout=WAIT)


class TestEndpoints:
    def test_healthz(self, served):
        _service, client = served
        status, doc = client.json("GET", "/healthz")
        assert status == 200
        assert doc["ok"] is True and doc["state"] == "serving"
        assert doc["degraded"] is False and doc["suspect_nodes"] == []
        assert doc["nodes_schedulable"] == 3

    def test_submit_poll_result_roundtrip(self, served):
        service, client = served
        status, record = client.json("POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        assert status == 202
        job_id = record["job_id"]
        assert service.get(job_id).wait(WAIT) is not None
        status, record = client.json("GET", "/jobs/%s" % job_id)
        assert status == 200
        assert record["state"] == "succeeded"
        status, result = client.json("GET", "/jobs/%s/result" % job_id)
        assert status == 200
        assert result["job_id"] == job_id
        assert result["algorithm"] == "cc"
        assert len(result["results"]) == 40

    def test_unknown_job_is_404(self, served):
        _service, client = served
        status, doc = client.json("GET", "/jobs/job-999999")
        assert status == 404
        assert "error" in doc
        status, _doc = client.json("GET", "/jobs/job-999999/result")
        assert status == 404

    def test_unknown_path_is_404(self, served):
        _service, client = served
        status, _doc = client.json("GET", "/nope")
        assert status == 404

    def test_malformed_body_is_400(self, served):
        _service, client = served
        status, doc = client.json("POST", "/jobs", raw=b"{not json")
        assert status == 400
        assert "error" in doc

    @pytest.mark.parametrize("field, value", [
        ("plan", 5), ("plan", ["loj"]),
        ("optimize", "no"), ("use_cache", "false"),
        ("tenant", ["x"]),
        ("max_supersteps", -1), ("max_supersteps", 0),
        ("max_supersteps", 2.5), ("max_supersteps", True),
        ("max_supersteps", "3"),
    ])
    def test_mistyped_field_is_400(self, served, field, value):
        """A field of the wrong type is refused at parse, not coerced
        (``"no"`` would run optimized, ``"3"`` and ``3`` would be two
        cache keys) and not left to crash the handler thread."""
        _service, client = served
        body = {"tenant": "alice", "algorithm": "cc", "dataset": "g"}
        body[field] = value
        status, doc = client.json("POST", "/jobs", body=body)
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        assert field in doc["error"]["reason"]

    @pytest.mark.parametrize("algorithm, params", [
        ("pagerank", {"iterations": "x"}), ("pagerank", {"iterations": 2.0}),
        ("sssp", {"source_id": [1]}), ("sssp", {"source_id": True}),
        ("sssp", {"source_id": 2.5}), ("sssp", {"source_id": "1"}),
        ("bfs-tree", {"root": None}),
        ("reachability", {"sources": 1}),
        ("reachability", {"sources": [1, False]}),
        ("reachability", {"sources": [1.0]}),
    ])
    def test_mistyped_param_is_400(self, served, algorithm, params):
        """A parameter of the wrong type is refused at submit, before it
        is journaled or queued, not left to fail the job it builds."""
        service, client = served
        before = len(service.list_jobs())
        body = {"tenant": "alice", "algorithm": algorithm, "dataset": "g",
                "params": params}
        status, doc = client.json("POST", "/jobs", body=body)
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        (name,) = params
        assert name in doc["error"]["reason"]
        assert len(service.list_jobs()) == before

    def test_unsupported_method_is_a_structured_501(self, served):
        _service, client = served
        status, headers, body = client.request("DELETE", "/jobs/x")
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        error = json.loads(body)["error"]
        assert set(error) == {"code", "reason", "details"}
        assert error["code"] == "not_implemented"
        assert "DELETE" in error["reason"]
        # The server closed the connection and said so: the next request
        # goes out on a fresh one. A POST is never re-sent, so this one
        # would raise if it went out on the closed connection.
        status, doc = client.json("POST", "/jobs", body={"tenant": "a"})
        assert status == 400 and doc["error"]["code"] == "bad_request"

    def test_the_request_after_a_413_succeeds(self, served):
        _service, client = served
        status, headers, body = client.request(
            "POST", "/jobs", raw=b" " * (MAX_BODY_BYTES + 1))
        assert status == 413
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"]["code"] == "payload_too_large"
        status, doc = client.json("POST", "/jobs", body={"tenant": "a"})
        assert status == 400 and doc["error"]["code"] == "bad_request"

    def test_an_over_cap_body_is_refused_every_time(self, served):
        """The server answers 413 from the declared length, then drains
        the body it refused before closing: a client still sending the
        body reads the refusal, not a reset, request after request."""
        _service, client = served
        for _ in range(50):
            status, _headers, body = client.request(
                "POST", "/jobs", raw=b" " * (4 * MAX_BODY_BYTES))
            assert status == 413
            assert json.loads(body)["error"]["code"] == "payload_too_large"

    def test_body_at_the_limit_is_read(self, served):
        _service, client = served
        padding = b" " * (MAX_BODY_BYTES - 2)
        status, doc = client.json("POST", "/jobs", raw=b"{" + padding + b"}")
        assert status == 400  # parsed, then refused for missing fields
        assert doc["error"]["code"] == "bad_request"

    def test_missing_fields_are_400(self, served):
        _service, client = served
        status, doc = client.json("POST", "/jobs", body={"tenant": "a"})
        assert status == 400
        assert "missing required field" in doc["error"]["reason"]

    def test_over_quota_is_429_with_structured_body(self, served):
        _service, client = served
        status, doc = client.json("POST", "/jobs",
            body={"tenant": "bob", "algorithm": "cc", "dataset": "g",
                  "use_cache": False},
        )
        assert status == 429
        rejection = doc["error"]
        assert rejection["code"] == "over_memory"
        assert rejection["details"]["allowed_bytes"] == 0

    def test_unknown_algorithm_is_400(self, served):
        _service, client = served
        status, doc = client.json("POST", "/jobs",
            body={"tenant": "alice", "algorithm": "quicksort", "dataset": "g"},
        )
        assert status == 400
        assert doc["error"]["code"] == "unknown_algorithm"

    def test_jobs_listing_and_stats(self, served):
        service, client = served
        _status, record = client.json("POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        service.get(record["job_id"]).wait(WAIT)
        status, listing = client.json("GET", "/jobs")
        assert status == 200
        assert any(job["job_id"] == record["job_id"] for job in listing["jobs"])
        status, stats = client.json("GET", "/stats")
        assert status == 200
        assert stats["jobs"]["succeeded"] >= 1
        assert stats["datasets"]["g"]["files"] == 3

    def test_cluster_scale_endpoint(self, served):
        _service, client = served
        status, doc = client.json("POST", "/cluster/scale", body={"nodes": 4})
        assert status == 200
        assert doc["added"] == ["node3"] and doc["schedulable"] == 4
        status, stats = client.json("GET", "/stats")
        assert stats["cluster"]["schedulable"] == 4
        assert [n["node"] for n in stats["cluster"]["nodes"]] == [
            "node0", "node1", "node2", "node3",
        ]
        status, doc = client.json("POST", "/cluster/scale", body={"nodes": 3})
        assert status == 200 and doc["draining"] == ["node3"]

    def test_cluster_scale_rejects_bad_bodies(self, served):
        service, client = served
        nodes = len(service.cluster.nodes)
        status, doc = client.json("POST", "/cluster/scale", body={"nodes": "x"})
        assert status == 400 and doc["error"]["code"] == "bad_request"
        status, doc = client.json("POST", "/cluster/scale",
                                  raw=b'{"nodes": Infinity}')
        assert status == 400 and doc["error"]["code"] == "bad_request"
        status, doc = client.json("POST", "/cluster/scale", body={"nodes": 0})
        assert status == 400 and doc["error"]["code"] == "bad_scale"
        status, doc = client.json("POST", "/cluster/scale",
                                  body={"nodes": MAX_SCALE_NODES + 1})
        assert status == 400 and doc["error"]["code"] == "bad_scale"
        assert len(service.cluster.nodes) == nodes

    def test_result_of_cached_repeat(self, served):
        service, client = served
        _status, first = client.json("POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        service.get(first["job_id"]).wait(WAIT)
        status, repeat = client.json("POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        assert status == 202
        assert repeat["cache_hit"] is True
        assert repeat["state"] == "succeeded"
        status, result = client.json("GET", "/jobs/%s/result" % repeat["job_id"]
        )
        assert status == 200
        assert result["cache_hit"] is True


class TestServeClient:
    @pytest.mark.parametrize("base", [
        "https://localhost:8080", "ftp://localhost:8080", "localhost:8080",
        "http://", "http://localhost:port",
    ])
    def test_only_http_bases_are_accepted(self, base):
        with pytest.raises(ValueError):
            ServeClient(base, timeout=1)

    def test_the_prefix_leads_every_path(self, served):
        service, _client = served
        with ServeHTTPServer(service, port=0) as server:
            client = ServeClient("http://%s:%d/v1/" % server.address, WAIT)
            try:
                status, doc = client.json("GET", "/healthz")
            finally:
                client.close()
        assert status == 404
        assert doc["error"]["reason"] == "unknown path '/v1/healthz'"
        assert len(client.round_trips) == 1
        assert client.round_trips.maxlen == ROUND_TRIPS_KEPT


class TestCancelRace:
    """A cancel racing a completion answers deterministically."""

    def test_cancel_queued_job_is_200(self, served):
        service, client = served
        release = threading.Event()
        original = service.executor._run
        service.executor._run = lambda members, dataset: release.wait(WAIT)
        try:
            # Two blocked jobs fill both workers; the third stays queued.
            blockers = [
                service.submit({"tenant": "alice", "algorithm": "cc",
                                "dataset": "g", "use_cache": False,
                                "params": {}})
                for _ in range(2)
            ]
            deadline = time.monotonic() + WAIT
            while (
                any(r.state is not JobState.RUNNING for r in blockers)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            _status, queued = client.json("POST", "/jobs",
                body={"tenant": "alice", "algorithm": "pagerank",
                      "dataset": "g", "use_cache": False},
            )
            status, outcome = client.json("POST", "/jobs/%s/cancel" % queued["job_id"]
            )
            assert status == 200
            assert outcome["status"] == "cancelled"
            assert outcome["cancelled"] is True
        finally:
            release.set()
            service.executor._run = original
        for record in blockers:
            record.wait(WAIT)

    def test_cancel_running_job_is_202_cancelling(self, served):
        service, client = served
        release = threading.Event()
        original = service.executor._run
        service.executor._run = lambda members, dataset: release.wait(WAIT)
        try:
            record = service.submit({"tenant": "alice", "algorithm": "cc",
                                     "dataset": "g", "use_cache": False})
            deadline = time.monotonic() + WAIT
            while (record.state is not JobState.RUNNING
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            status, outcome = client.json("POST", "/jobs/%s/cancel" % record.job_id
            )
            assert status == 202
            assert outcome["status"] == "cancelling"
            assert outcome["state"] == "running"
            assert outcome["cancelled"] is False
        finally:
            release.set()
            service.executor._run = original
        record.wait(WAIT)

    def test_cancel_after_completion_is_409_with_the_winner(self, served):
        service, client = served
        _status, record = client.json("POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        assert service.get(record["job_id"]).wait(WAIT) is JobState.SUCCEEDED
        status, outcome = client.json("POST", "/jobs/%s/cancel" % record["job_id"]
        )
        assert status == 409
        assert outcome["status"] == "terminal"
        assert outcome["state"] == "succeeded"
        assert outcome["cancelled"] is False
        # The job's record is untouched by the losing cancel.
        assert service.get(record["job_id"]).state is JobState.SUCCEEDED

    def test_cancel_unknown_job_is_404(self, served):
        _service, client = served
        status, doc = client.json("POST", "/jobs/job-999999/cancel")
        assert status == 404
        assert doc["error"]["code"] == "not_found"


class TestOverloadAndQuarantine:
    def test_shedding_is_503_with_retry_after(self, serve_graph):
        service = JobService(num_nodes=2, workers=1, shed_queue_depth=0)
        service.add_dataset("g", vertices=serve_graph)
        service.start()
        server = ServeHTTPServer(service, port=0)
        client = ServeClient("http://%s:%d" % server.start(), timeout=60)
        try:
            status, headers, body = client.request(
                "POST", "/jobs",
                body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
            )
            assert status == 503
            assert json.loads(body)["error"]["code"] == "overloaded"
            assert headers["Retry-After"] == "1"
            assert service.stats()["shed"] == 1
        finally:
            client.close()
            server.close()
            service.shutdown(timeout=WAIT)

    def test_quarantined_request_is_403(self, served):
        service, client = served
        request = {"tenant": "alice", "algorithm": "cc", "dataset": "g"}
        from repro.serve import JobRecord, JobRequest

        key = JobRequest.from_dict(request).poison_key()
        poison = JobRecord(job_id="job-000001",
                           request=JobRequest.from_dict(request))
        for _ in range(2):
            service.lifecycle.strike(poison, "wedged")
        status, doc = client.json("POST", "/jobs", body=request)
        assert status == 403
        assert doc["error"]["code"] == "quarantined"
        assert doc["error"]["details"]["strikes"] == 2
        service.clear_quarantine(key)
        status, _doc = client.json("POST", "/jobs", body=request)
        assert status == 202


class TestDeadlineOverHTTP:
    def test_timed_out_result_is_410_with_retry_after(self, served):
        service, client = served
        status, record = client.json("POST", "/jobs",
            body={"tenant": "alice", "algorithm": "pagerank", "dataset": "g",
                  "params": {"iterations": 60}, "use_cache": False,
                  "deadline_seconds": 0.02},
        )
        assert status == 202
        assert record["deadline_seconds"] == 0.02
        job_id = record["job_id"]
        assert service.get(job_id).wait(WAIT) is JobState.FAILED
        status, headers, body = client.request(
            "GET", "/jobs/%s/result" % job_id)
        assert status == 410
        assert json.loads(body)["error"]["details"]["error_kind"] == "timeout"
        assert headers["Retry-After"] == "1"
        status, record = client.json("GET", "/jobs/%s" % job_id)
        assert record["state"] == "failed"
        assert record["error_kind"] == "timeout"

    def test_bad_deadline_is_400(self, served):
        _service, client = served
        status, doc = client.json("POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g",
                  "deadline_seconds": -3},
        )
        assert status == 400
        assert "deadline_seconds" in doc["error"]["reason"]

"""The stdlib HTTP front end: real sockets, real status codes."""

from http.client import HTTPConnection
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import JobService, JobState, ServeHTTPServer, TenantQuota
from repro.serve.http import MAX_BODY_BYTES

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
    host, port = server.start()
    yield service, "http://%s:%d" % (host, port)
    server.close()
    service.shutdown(timeout=WAIT)


def http(base, method, path, body=None, raw=None):
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None
    )
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


class TestEndpoints:
    def test_healthz(self, served):
        _service, base = served
        status, doc, _ = http(base, "GET", "/healthz")
        assert status == 200
        assert doc["ok"] is True and doc["state"] == "serving"
        assert doc["degraded"] is False and doc["suspect_nodes"] == []
        assert doc["nodes_schedulable"] == 3

    def test_submit_poll_result_roundtrip(self, served):
        service, base = served
        status, record, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        assert status == 202
        job_id = record["job_id"]
        assert service.get(job_id).wait(WAIT) is not None
        status, record, _ = http(base, "GET", "/jobs/%s" % job_id)
        assert status == 200
        assert record["state"] == "succeeded"
        status, result, _ = http(base, "GET", "/jobs/%s/result" % job_id)
        assert status == 200
        assert result["job_id"] == job_id
        assert result["algorithm"] == "cc"
        assert len(result["results"]) == 40

    def test_unknown_job_is_404(self, served):
        _service, base = served
        status, doc, _ = http(base, "GET", "/jobs/job-999999")
        assert status == 404
        assert "error" in doc
        status, _doc, _ = http(base, "GET", "/jobs/job-999999/result")
        assert status == 404

    def test_unknown_path_is_404(self, served):
        _service, base = served
        status, _doc, _ = http(base, "GET", "/nope")
        assert status == 404

    def test_malformed_body_is_400(self, served):
        _service, base = served
        status, doc, _ = http(base, "POST", "/jobs", raw=b"{not json")
        assert status == 400
        assert "error" in doc

    @pytest.mark.parametrize("declared,status,code", [
        (str(MAX_BODY_BYTES + 1), 413, "payload_too_large"),
        ("-5", 400, "bad_request"),
        ("lots", 400, "bad_request"),
    ])
    @pytest.mark.parametrize("path", ["/jobs", "/cluster/scale"])
    def test_declared_body_size_is_checked_before_reading(
        self, served, path, declared, status, code
    ):
        # Only the headers are sent: the answer must not wait for (or
        # read) a body of the declared size.
        _service, base = served
        host, port = base[len("http://"):].split(":")
        conn = HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", declared)
            conn.endheaders()
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == status
        assert doc["error"]["code"] == code
        assert set(doc["error"]) == {"code", "reason", "details"}

    def test_body_at_the_limit_is_read(self, served):
        _service, base = served
        padding = b" " * (MAX_BODY_BYTES - 2)
        status, doc, _ = http(base, "POST", "/jobs", raw=b"{" + padding + b"}")
        assert status == 400  # parsed, then refused for missing fields
        assert doc["error"]["code"] == "bad_request"

    def test_missing_fields_are_400(self, served):
        _service, base = served
        status, doc, _ = http(base, "POST", "/jobs", body={"tenant": "a"})
        assert status == 400
        assert "missing required field" in doc["error"]["reason"]

    def test_over_quota_is_429_with_structured_body(self, served):
        _service, base = served
        status, doc, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "bob", "algorithm": "cc", "dataset": "g",
                  "use_cache": False},
        )
        assert status == 429
        rejection = doc["error"]
        assert rejection["code"] == "over_memory"
        assert rejection["details"]["allowed_bytes"] == 0

    def test_unknown_algorithm_is_400(self, served):
        _service, base = served
        status, doc, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "alice", "algorithm": "quicksort", "dataset": "g"},
        )
        assert status == 400
        assert doc["error"]["code"] == "unknown_algorithm"

    def test_jobs_listing_and_stats(self, served):
        service, base = served
        _status, record, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        service.get(record["job_id"]).wait(WAIT)
        status, listing, _ = http(base, "GET", "/jobs")
        assert status == 200
        assert any(job["job_id"] == record["job_id"] for job in listing["jobs"])
        status, stats, _ = http(base, "GET", "/stats")
        assert status == 200
        assert stats["jobs"]["succeeded"] >= 1
        assert stats["datasets"]["g"]["files"] == 3

    def test_cluster_scale_endpoint(self, served):
        _service, base = served
        status, doc, _ = http(base, "POST", "/cluster/scale", body={"nodes": 4})
        assert status == 200
        assert doc["added"] == ["node3"] and doc["schedulable"] == 4
        status, stats, _ = http(base, "GET", "/stats")
        assert stats["cluster"]["schedulable"] == 4
        assert [n["node"] for n in stats["cluster"]["nodes"]] == [
            "node0", "node1", "node2", "node3",
        ]
        status, doc, _ = http(base, "POST", "/cluster/scale", body={"nodes": 3})
        assert status == 200 and doc["draining"] == ["node3"]

    def test_cluster_scale_rejects_bad_bodies(self, served):
        _service, base = served
        status, doc, _ = http(base, "POST", "/cluster/scale", body={"nodes": "x"})
        assert status == 400 and doc["error"]["code"] == "bad_request"
        status, doc, _ = http(base, "POST", "/cluster/scale", body={"nodes": 0})
        assert status == 400 and doc["error"]["code"] == "bad_scale"

    def test_result_of_cached_repeat(self, served):
        service, base = served
        _status, first, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        service.get(first["job_id"]).wait(WAIT)
        status, repeat, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        assert status == 202
        assert repeat["cache_hit"] is True
        assert repeat["state"] == "succeeded"
        status, result, _ = http(
            base, "GET", "/jobs/%s/result" % repeat["job_id"]
        )
        assert status == 200
        assert result["cache_hit"] is True


class TestCancelRace:
    """A cancel racing a completion answers deterministically."""

    def test_cancel_queued_job_is_200(self, served):
        service, base = served
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
            _status, queued, _ = http(
                base, "POST", "/jobs",
                body={"tenant": "alice", "algorithm": "pagerank",
                      "dataset": "g", "use_cache": False},
            )
            status, outcome, _ = http(
                base, "POST", "/jobs/%s/cancel" % queued["job_id"]
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
        service, base = served
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
            status, outcome, _ = http(
                base, "POST", "/jobs/%s/cancel" % record.job_id
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
        service, base = served
        _status, record, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
        )
        assert service.get(record["job_id"]).wait(WAIT) is JobState.SUCCEEDED
        status, outcome, _ = http(
            base, "POST", "/jobs/%s/cancel" % record["job_id"]
        )
        assert status == 409
        assert outcome["status"] == "terminal"
        assert outcome["state"] == "succeeded"
        assert outcome["cancelled"] is False
        # The job's record is untouched by the losing cancel.
        assert service.get(record["job_id"]).state is JobState.SUCCEEDED

    def test_cancel_unknown_job_is_404(self, served):
        _service, base = served
        status, doc, _ = http(base, "POST", "/jobs/job-999999/cancel")
        assert status == 404
        assert doc["error"]["code"] == "not_found"


class TestOverloadAndQuarantine:
    def test_shedding_is_503_with_retry_after(self, serve_graph):
        service = JobService(num_nodes=2, workers=1, shed_queue_depth=0)
        service.add_dataset("g", vertices=serve_graph)
        service.start()
        server = ServeHTTPServer(service, port=0)
        host, port = server.start()
        try:
            status, doc, headers = http(
                "http://%s:%d" % (host, port), "POST", "/jobs",
                body={"tenant": "alice", "algorithm": "cc", "dataset": "g"},
            )
            assert status == 503
            assert doc["error"]["code"] == "overloaded"
            assert headers["Retry-After"] == "1"
            assert service.stats()["shed"] == 1
        finally:
            server.close()
            service.shutdown(timeout=WAIT)

    def test_quarantined_request_is_403(self, served):
        service, base = served
        request = {"tenant": "alice", "algorithm": "cc", "dataset": "g"}
        from repro.serve import JobRecord, JobRequest

        key = JobRequest.from_dict(request).poison_key()
        poison = JobRecord(job_id="job-000001",
                           request=JobRequest.from_dict(request))
        for _ in range(2):
            service.lifecycle.strike(poison, "wedged")
        status, doc, _ = http(base, "POST", "/jobs", body=request)
        assert status == 403
        assert doc["error"]["code"] == "quarantined"
        assert doc["error"]["details"]["strikes"] == 2
        service.clear_quarantine(key)
        status, _doc, _ = http(base, "POST", "/jobs", body=request)
        assert status == 202


class TestDeadlineOverHTTP:
    def test_timed_out_result_is_410_with_retry_after(self, served):
        service, base = served
        status, record, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "alice", "algorithm": "pagerank", "dataset": "g",
                  "params": {"iterations": 60}, "use_cache": False,
                  "deadline_seconds": 0.02},
        )
        assert status == 202
        assert record["deadline_seconds"] == 0.02
        job_id = record["job_id"]
        assert service.get(job_id).wait(WAIT) is JobState.FAILED
        status, doc, headers = http(base, "GET", "/jobs/%s/result" % job_id)
        assert status == 410
        assert doc["error"]["details"]["error_kind"] == "timeout"
        assert headers["Retry-After"] == "1"
        status, record, _ = http(base, "GET", "/jobs/%s" % job_id)
        assert record["state"] == "failed"
        assert record["error_kind"] == "timeout"

    def test_bad_deadline_is_400(self, served):
        _service, base = served
        status, doc, _ = http(
            base, "POST", "/jobs",
            body={"tenant": "alice", "algorithm": "cc", "dataset": "g",
                  "deadline_seconds": -3},
        )
        assert status == 400
        assert "deadline_seconds" in doc["error"]["reason"]

"""Live-service observability (DESIGN.md §8).

Per-job distributed traces assembled out of the shared telemetry
session (solo and batched), the span breakdown on the job document,
the Prometheus scrape under concurrent load, its agreement with the
``/stats`` latency section, and the health-history ring buffer.
"""

import time

import pytest

from repro.hyracks.engine import HyracksCluster
from repro.serve import JobService, JobState, ServeHTTPServer
from repro.serve.client import ServeClient
from repro.serve.history import INTERVAL_SECONDS, HistorySampler
from repro.serve.jobtrace import select_job_spans
from repro.telemetry import Telemetry
from repro.telemetry.prometheus import parse_exposition, render_prometheus
from tests.telemetry.test_export import assert_well_formed_chrome

WAIT = 120


def submit(service, algorithm="cc", tenant="alice", **overrides):
    doc = {"tenant": tenant, "algorithm": algorithm, "dataset": "g",
           "use_cache": False}
    doc.update(overrides)
    return service.submit(doc)


@pytest.fixture
def service(serve_graph):
    svc = JobService(num_nodes=3, workers=2)
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


@pytest.fixture
def batched_service(serve_graph):
    svc = JobService(num_nodes=3, workers=1, watchdog=False,
                     batch_max=8, batch_window=0.4)
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


def serve_sssp(service, jobs):
    """Serve ``jobs`` sssp queries one after another; their supersteps."""
    supersteps = 0
    for i in range(jobs):
        record = submit(service, "sssp", params={"source_id": i % 40})
        assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        supersteps += record.result["supersteps"]
    return supersteps


def span_names(trace):
    return [e["name"] for e in trace["traceEvents"] if e.get("ph") == "B"]


class TestJobTrace:
    def test_solo_trace_is_well_formed_and_complete(self, service):
        record = submit(service, "cc")
        assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        trace = service.job_trace(record.job_id)
        assert_well_formed_chrome(
            [e for e in trace["traceEvents"] if e.get("ph") != "M"]
        )
        names = span_names(trace)
        # Synthetic lifecycle phases from the record's trace marks...
        assert "queue-wait" in names
        assert "run" in names
        # ...plus the real engine spans the scoped tracer stamped.
        assert any(n.startswith("superstep:") for n in names)
        assert any(n.startswith("pregelix:") for n in names)
        meta = trace["otherData"]
        assert meta["job_id"] == record.job_id
        assert record.run_id in meta["run_ids"]
        assert meta["state"] == "succeeded"
        assert meta["spans"]["end_to_end_seconds"] is not None
        assert meta["truncated"] is False

    def test_trace_says_when_the_span_ring_dropped_its_spans(self, serve_graph):
        cluster = HyracksCluster(num_nodes=3, telemetry=Telemetry(max_spans=8))
        service = JobService(num_nodes=3, workers=1, cluster=cluster)
        service.add_dataset("g", vertices=serve_graph)
        service.start()
        try:
            record = submit(service, "cc")
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
            trace = service.job_trace(record.job_id)
        finally:
            service.shutdown(timeout=WAIT)
            cluster.close()
        assert trace["otherData"]["truncated"] is True

    def test_trace_contains_only_that_jobs_spans(self, service):
        first = submit(service, "cc")
        assert first.wait(WAIT) is JobState.SUCCEEDED, first.error
        second = submit(service, "pagerank", params={"iterations": 3})
        assert second.wait(WAIT) is JobState.SUCCEEDED, second.error
        for record, other in ((first, second), (second, first)):
            for span in select_job_spans(
                service.telemetry, record.job_id, record.trace_run_ids
            ):
                args = span.args or {}
                assert args.get("job_id") in (record.job_id, None)
                if args.get("job_id") is None:
                    assert args.get("run_id") in record.trace_run_ids
                    assert args.get("run_id") not in other.trace_run_ids
        # The per-superstep spans in each trace belong to that run alone:
        # pagerank(3 iterations) and cc ran different superstep counts.
        first_steps = [
            n for n in span_names(service.job_trace(first.job_id))
            if n.startswith("superstep:")
        ]
        assert len(first_steps) == first.result["supersteps"]

    def test_trace_spans_carry_job_and_run_ids(self, service):
        record = submit(service, "cc")
        assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        spans = select_job_spans(
            service.telemetry, record.job_id, record.trace_run_ids
        )
        supersteps = [s for s in spans if s.name.startswith("superstep:")]
        assert supersteps
        for span in supersteps:
            assert span.args.get("job_id") == record.job_id
            assert span.args.get("run_id") == record.run_id
        admission = [s for s in spans if s.name == "admission"]
        assert len(admission) == 1

    def test_unknown_job_trace_is_none(self, service):
        assert service.job_trace("job-does-not-exist") is None

    def test_batched_members_share_run_but_not_lanes(self, batched_service):
        service = batched_service
        records = [
            submit(service, "sssp", params={"source_id": source})
            for source in (0, 3, 7)
        ]
        for record in records:
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        batched = [r for r in records if r.result.get("batch")]
        assert len(batched) >= 2, "no jobs actually shared a run"
        shared_run = batched[0].run_id
        traces = {r.job_id: service.job_trace(r.job_id) for r in batched}
        for record in batched:
            trace = traces[record.job_id]
            assert_well_formed_chrome(
                [e for e in trace["traceEvents"] if e.get("ph") != "M"]
            )
            names = span_names(trace)
            assert shared_run in trace["otherData"]["run_ids"]
            # The shared engine work appears in every member's trace...
            assert any(n.startswith("superstep:") for n in names)
            # ...but another member's fan-out lane never does: lane
            # spans carry their member's job_id explicitly.
            lanes = {
                e["args"]["job_id"]
                for e in trace["traceEvents"]
                if e.get("ph") == "B" and e["name"].startswith("lane:")
            }
            assert lanes == {record.job_id}
        # Every member saw the same shared superstep spans.
        step_sets = [
            {n for n in span_names(t) if n.startswith("superstep:")}
            for t in traces.values()
        ]
        assert all(steps == step_sets[0] for steps in step_sets)


class TestSpanBreakdown:
    def test_document_breakdown_phases_sum_sanely(self, service):
        record = submit(service, "cc")
        assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        doc = record.to_dict()
        spans = doc["spans"]
        assert spans["queue_wait_seconds"] >= 0.0
        assert spans["run_seconds"] > 0.0
        assert spans["end_to_end_seconds"] >= spans["run_seconds"]
        # A solo run never fanned out.
        assert spans["fanout_seconds"] is None

    def test_breakdown_before_terminal_is_partial(self, service):
        record = submit(service, "cc")
        spans = record.span_breakdown()
        assert spans["end_to_end_seconds"] is None  # not finished yet
        assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        assert record.span_breakdown()["end_to_end_seconds"] is not None


class TestMetricsEndpoint:
    def test_scrape_under_concurrent_jobs(self, serve_graph):
        service = JobService(num_nodes=3, workers=4)
        service.add_dataset("g", vertices=serve_graph)
        service.start()
        server = ServeHTTPServer(service, port=0)
        client = ServeClient("http://%s:%d" % server.start(), timeout=30)
        try:
            records = [
                submit(service, "pagerank",
                       params={"iterations": 4}, tenant="t%d" % (i % 3))
                for i in range(8)
            ]
            def scrape():
                status, headers, body = client.request("GET", "/metrics")
                assert status == 200
                assert "0.0.4" in headers["Content-Type"]
                return body.decode("utf-8")

            scrapes = [scrape()]
            while not all(r.state.terminal for r in records):
                scrapes.append(scrape())
                time.sleep(0.05)
            for record in records:
                assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
            scrapes.append(scrape())
            assert len(scrapes) >= 2
            parsed = [parse_exposition(text) for text in scrapes]  # no torn lines
            submitted = [
                sum(v for k, v in samples.items()
                    if k.startswith("serve_submitted_total"))
                for samples in parsed
            ]
            # Counters never go backwards across scrapes.
            assert submitted == sorted(submitted)
            assert submitted[-1] == 8
            final = parsed[-1]
            assert any(
                k.startswith("serve_latency_e2e_seconds_bucket") for k in final
            )
            assert final["engine_jobs_executed_total"] >= 1
        finally:
            client.close()
            server.close()
            service.shutdown(timeout=WAIT)

    def test_served_jobs_add_no_series(self, serve_graph):
        # A metric label names an operator's kind and relation, never
        # the run (``IndexLeftOuterJoin(vertex)``): once warm, a service
        # exports the same series however many jobs it serves.
        service = JobService(num_nodes=3, workers=1)
        service.add_dataset("g", vertices=serve_graph)
        service.start()
        server = ServeHTTPServer(service, port=0)
        client = ServeClient("http://%s:%d" % server.start(), timeout=30)

        def metric_names():
            status, _headers, body = client.request("GET", "/metrics")
            assert status == 200
            samples = parse_exposition(body.decode("utf-8"))
            return {key.split("{")[0] for key in samples}

        try:
            serve_sssp(service, 5)
            series, names = len(service.telemetry.registry), metric_names()
            serve_sssp(service, 200)
            assert len(service.telemetry.registry) == series
            assert metric_names() == names
            assert service.telemetry.registry.value(
                "pregelix.operator_seconds", operator="IndexLeftOuterJoin(vertex)"
            ) > 0
        finally:
            client.close()
            server.close()
            service.shutdown(timeout=WAIT)

    def test_served_jobs_keep_no_task_spans(self, serve_graph):
        # What a served job leaves in the span ring grows with its
        # supersteps, not with its stage clones or engine jobs: under 2
        # spans a superstep (the superstep's and a share of the per-job
        # ones) where a task span per clone made it about 15.
        spans_per_superstep = 2
        service = JobService(num_nodes=3, workers=1)
        service.add_dataset("g", vertices=serve_graph)
        service.start()
        try:
            serve_sssp(service, 5)
            retained = len(service.telemetry.tracer)
            supersteps = serve_sssp(service, 200)
            spans = service.telemetry.tracer.finished_spans()
        finally:
            service.shutdown(timeout=WAIT)
        assert not [span for span in spans if span.category in ("task", "job")]
        assert len(spans) - retained <= spans_per_superstep * supersteps
        steps = [span for span in spans if span.category == "superstep"]
        assert len(steps) >= supersteps
        for span in steps:
            assert any(kind.startswith("Compute") for kind in span.args["operators"])

    def test_scrape_agrees_with_stats_latency(self, service):
        for _ in range(2):
            record = submit(service, "cc")
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        latency = service.stats()["latency"]
        summary = latency["alice"]["e2e"]
        assert summary["count"] == 2
        samples = parse_exposition(
            render_prometheus(service.telemetry.registry)
        )
        assert samples[
            'serve_latency_e2e_seconds_count{tenant="alice"}'
        ] == summary["count"]
        assert samples[
            'serve_latency_e2e_seconds_sum{tenant="alice"}'
        ] == summary["sum"]
        assert samples[
            'serve_latency_queue_wait_seconds_count{tenant="alice"}'
        ] == latency["alice"]["queue_wait"]["count"]


class TestHistory:
    def test_sampler_unit_sample(self, service):
        sampler = HistorySampler(service)
        sample = sampler.sample()
        assert sample["state"] == "serving"
        assert sample["queue_depth"] == 0
        assert sample["nodes_schedulable"] == 3
        assert sample["nodes_draining"] == 0
        assert "virtual_time" in sample
        assert len(sampler) == 1
        assert sampler.document()["taken"] == 1

    def test_ring_is_bounded(self, service):
        sampler = HistorySampler(service, capacity=4)
        for _ in range(9):
            sampler.sample()
        doc = sampler.document()
        assert doc["taken"] == 9
        assert doc["retained"] == 4
        assert len(doc["samples"]) == 4

    def test_http_history_endpoint(self, service, serve_graph):
        server = ServeHTTPServer(service, port=0)
        client = ServeClient("http://%s:%d" % server.start(), timeout=30)
        try:
            record = submit(service, "cc")
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
            _status, doc = client.poll(
                "/stats/history", lambda doc: doc["taken"] >= 3, interval=0.05)
            assert doc["taken"] >= 3
            assert doc["interval_seconds"] == INTERVAL_SECONDS
            latest = doc["samples"][-1]
            for key in ("ts", "queue_depth", "virtual_time_by_tenant",
                        "nodes_schedulable", "journal_append_seconds"):
                assert key in latest
            _status, windowed = client.json("GET", "/stats/history?n=2")
            assert len(windowed["samples"]) <= 2
        finally:
            client.close()
            server.close()

    @pytest.mark.parametrize("n", ["-3", "two"])
    def test_http_history_refuses_a_bad_window(self, service, n):
        service.history.sample()
        server = ServeHTTPServer(service, port=0)
        client = ServeClient("http://%s:%d" % server.start(), timeout=30)
        try:
            status, doc = client.json("GET", "/stats/history?n=" + n)
            assert status == 400 and doc["error"]["code"] == "bad_request"
            _status, doc = client.json("GET", "/stats/history?n=0")
            assert doc["samples"] == []
        finally:
            client.close()
            server.close()


def test_serve_top_renders_against_a_live_service(monkeypatch):
    """One-shot ``serve top`` render against a live service."""
    import sys
    monkeypatch.setattr(sys, "argv", ["repro"])
    from repro.cli import build_parser, cmd_serve
    from repro.graphs.generators import btc_graph
    service = JobService(num_nodes=2, workers=1)
    service.add_dataset("g", vertices=list(btc_graph(40, seed=3)))
    service.start()
    server = ServeHTTPServer(service, port=0)
    host, port = server.start()
    record = service.submit(
        {"tenant": "alice", "algorithm": "cc", "dataset": "g"})
    record.wait(120)
    args = build_parser().parse_args(
        ["serve", "top", "--url", "http://%s:%d" % (host, port),
         "--count", "2", "--interval", "0.2"])
    lines = []
    code = cmd_serve(args, out=lines.append)
    print("\n".join(lines))
    server.close()
    service.shutdown(timeout=120)
    text = "\n".join(lines)
    assert code == 0, code
    assert "repro serve top" in text and "latency" in text, text

"""End-to-end telemetry: a traced PageRank run through the full stack.

These are the acceptance tests for the telemetry subsystem: one PageRank
run on a real (small-cache) cluster must produce a Chrome trace with
nested pregelix → superstep → job → task spans plus buffer-cache and LSM
storage events, and the registry's ``pregelix.*`` series must total the
statistics collectors of every run on the cluster exactly.
"""

import json

import pytest

from repro.algorithms import pagerank
from repro.graphs.generators import webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.hyracks.storage.lsm_btree import LSMBTree
from repro.pregelix import PregelixDriver
from repro.telemetry import Telemetry

from tests.telemetry.test_export import assert_well_formed_chrome


@pytest.fixture
def traced_run(tmp_path):
    """One PageRank run on a cache-starved cluster, with tracing on
    (task spans included, as a trace file records them)."""
    telemetry = Telemetry(task_spans=True)
    # A tiny buffer cache forces page evictions and dirty-page spills,
    # so the trace carries the storage events the paper's runs show.
    with HyracksCluster(
        num_nodes=2,
        root_dir=str(tmp_path / "cluster"),
        buffer_cache_bytes=2 * 4096,
        telemetry=telemetry,
    ) as cluster:
        dfs = cluster.dfs
        write_graph_to_dfs(dfs, "/in/web", webmap_graph(120, seed=7), num_files=2)
        driver = PregelixDriver(cluster, dfs)
        outcome = driver.run(
            pagerank.build_job(iterations=4), "/in/web", output_path="/out/pr"
        )
        # Drive the LSM lifecycle on the same telemetry session: the
        # in-job trees use the default 1 MB memory component, far larger
        # than this test graph, so flush/merge is exercised directly on
        # a node's (telemetry-bound) buffer cache.
        node = next(iter(cluster.nodes.values()))
        lsm = LSMBTree(node.buffer_cache, memory_budget_bytes=512, name="probe")
        for i in range(200):
            lsm.insert(b"key-%05d" % i, b"x" * 32)
        yield telemetry, outcome


class TestTracedPageRank:
    def test_nested_spans_cover_the_hierarchy(self, traced_run):
        telemetry, outcome = traced_run
        spans = {s.span_id: s for s in telemetry.tracer.finished_spans()}
        pregelix = telemetry.tracer.finished_spans(category="pregelix")
        assert len(pregelix) == 1 and pregelix[0].name == "pregelix:pagerank"
        supersteps = telemetry.tracer.finished_spans(category="superstep")
        assert [s.name for s in supersteps] == [
            "superstep:%d" % i for i in range(1, outcome.supersteps + 1)
        ]
        # superstep spans nest under the pregelix span; per-superstep job
        # spans nest under their superstep; task spans under their job.
        for superstep in supersteps:
            assert spans[superstep.parent_id].category == "pregelix"
        jobs = telemetry.tracer.finished_spans(category="job")
        assert jobs
        superstep_jobs = [
            j for j in jobs if spans.get(j.parent_id, None) in supersteps
        ]
        assert superstep_jobs
        tasks = telemetry.tracer.finished_spans(category="task")
        assert tasks
        assert any(
            spans.get(t.parent_id) in superstep_jobs for t in tasks
        )
        phases = {s.name for s in telemetry.tracer.finished_spans(category="phase")}
        assert phases == {"load", "dump"}

    def test_sim_clock_advanced_by_cost_model(self, traced_run):
        telemetry, outcome = traced_run
        assert telemetry.sim_clock.seconds > 0.0
        supersteps = telemetry.tracer.finished_spans(category="superstep")
        for span in supersteps:
            assert span.sim_duration > 0.0
            assert span.args["sim_seconds"] == pytest.approx(span.sim_duration)

    def test_storage_events_recorded(self, traced_run):
        telemetry, _outcome = traced_run
        counts = telemetry.events.counts()
        assert counts.get("cache.evict", 0) > 0
        assert counts.get("lsm.flush", 0) > 0
        assert counts.get("lsm.merge", 0) > 0
        assert telemetry.registry.value("storage.lsm.flushes") > 0
        # The node label distinguishes each machine's cache counters.
        assert telemetry.registry.value("storage.cache.misses", node="node0") > 0

    def test_chrome_trace_loads_and_is_well_formed(self, traced_run, tmp_path):
        telemetry, _outcome = traced_run
        path = str(tmp_path / "pagerank-trace.json")
        telemetry.write_chrome_trace(path)
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert_well_formed_chrome(events)
        names = {e["name"] for e in events}
        assert "pregelix:pagerank" in names
        assert "superstep:1" in names
        assert "cache.evict" in names
        assert "lsm.flush" in names
        categories = {e["cat"] for e in events}
        assert {"pregelix", "superstep", "job", "task", "storage"} <= categories

    def test_registry_totals_cover_all_runs_each_summary_its_own(self, tmp_path):
        telemetry = Telemetry()
        with HyracksCluster(
            num_nodes=2, root_dir=str(tmp_path / "two-runs"), telemetry=telemetry
        ) as cluster:
            dfs = cluster.dfs
            write_graph_to_dfs(dfs, "/in/web", webmap_graph(60, seed=5), num_files=2)
            driver = PregelixDriver(cluster, dfs)
            runs = [
                driver.run(pagerank.build_job(iterations=n), "/in/web").stats
                for n in (3, 2)
            ]
        # Every run on a cluster shares its registry: pregelix.* is the
        # total over all of them (exactly: same floats, same ints) ...
        registry = telemetry.registry
        elapsed = registry.get("pregelix.superstep_seconds")
        assert elapsed.count == sum(stats.num_supersteps for stats in runs) == 5
        assert registry.value("pregelix.messages_sent") == sum(
            stats.total_messages_sent for stats in runs
        )
        assert registry.value("pregelix.network_bytes") == sum(
            stats.total_network_bytes for stats in runs
        )
        total = 0
        for stats in runs:
            for record in stats.supersteps:
                total += record.elapsed
        assert elapsed.total == total
        # ... while each collector's summary is its own run only.
        for stats in runs:
            summary = stats.summary()
            assert summary["supersteps"] == stats.num_supersteps
            assert summary["total_elapsed"] == stats.total_elapsed
            assert summary["avg_iteration_seconds"] == stats.avg_iteration_seconds
            assert summary["messages_sent"] == stats.total_messages_sent
            assert summary["network_bytes"] == stats.total_network_bytes
            assert summary["spill_bytes"] == stats.total_spill_bytes
        assert runs[0].summary()["supersteps"] == 3
        assert runs[1].summary()["supersteps"] == 2

    def test_engine_counters_flow_into_registry(self, traced_run):
        telemetry, outcome = traced_run
        registry = telemetry.registry
        assert registry.value("engine.jobs_executed") > 0
        assert registry.value("engine.network.network_bytes") > 0
        # Connector accounting is labeled by connector kind.
        connector_tuples = sum(
            metric.value
            for metric in registry.iter_metrics()
            if metric.name == "connector.tuples"
        )
        assert connector_tuples > 0
        assert registry.value("pregelix.vertices_processed") == sum(
            record.vertices_processed for record in outcome.stats.supersteps
        )


class TestDisabledTelemetry:
    def test_disabled_session_still_runs_and_keeps_metrics(self, tmp_path):
        telemetry = Telemetry(enabled=False)
        with HyracksCluster(
            num_nodes=2, root_dir=str(tmp_path / "cluster"), telemetry=telemetry
        ) as cluster:
            dfs = cluster.dfs
            write_graph_to_dfs(dfs, "/in/web", webmap_graph(40, seed=3), num_files=2)
            driver = PregelixDriver(cluster, dfs)
            outcome = driver.run(pagerank.build_job(iterations=2), "/in/web")
        assert outcome.supersteps == 2
        assert len(telemetry.tracer) == 0
        assert len(telemetry.events) == 0
        # Metrics stay on: they are the statistics collector's substrate.
        assert telemetry.registry.value("engine.jobs_executed") > 0

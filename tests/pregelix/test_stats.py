"""Statistics collector unit tests: the field table, summaries, reporting."""

import pytest

from repro.common.accounting import Counters, IOCounters
from repro.hyracks.engine import HyracksCluster, JobResult
from repro.pregelix.stats import StatisticsCollector, SuperstepStats
from repro.telemetry import MetricsRegistry


def fake_result(
    superstep,
    elapsed=0.5,
    messages=100,
    vertices=40,
    combined=25,
    join_tuples=60,
    index_probes=0,
    net_bytes=2048,
    read_bytes=512,
    write_bytes=1024,
    operator_seconds=None,
):
    network = IOCounters()
    network.record_network(net_bytes, messages=3)
    disk = IOCounters()
    disk.record_read(read_bytes)
    disk.record_write(write_bytes)
    counters = Counters()
    counters.add("vertices_processed", vertices)
    counters.add("messages_sent", messages)
    counters.add("combined_messages", combined)
    counters.add("join_tuples", join_tuples)
    counters.add("index_probes", index_probes)
    return JobResult(
        name="ss-%d" % superstep,
        collected={},
        counters=counters,
        network_io=network,
        disk_io=disk,
        elapsed=elapsed,
        operator_seconds=operator_seconds or {"Join": elapsed * 0.6, "GroupBy": elapsed * 0.4},
        cache_misses=7,
        cache_writebacks=2,
    )


class TestRecordSuperstep:
    def test_record_fields(self):
        stats = StatisticsCollector()
        record = stats.record_superstep(1, fake_result(1))
        assert isinstance(record, SuperstepStats)
        assert record.superstep == 1
        assert record.messages_sent == 100
        assert record.network_bytes == 2048
        assert record.disk_write_bytes == 1024
        assert record.join_tuples == 60
        assert record.cache_misses == 7
        # ... and the rest of the field table, each from its own holder.
        assert (record.network_messages, record.disk_read_bytes) == (3, 512)
        assert (record.vertices_processed, record.combined_messages) == (40, 25)
        assert (record.index_probes, record.cache_writebacks) == (0, 2)
        assert record.elapsed == 0.5
        assert set(record.operator_seconds) == {"Join", "GroupBy"}
        assert stats.supersteps == [record]

    def test_supersteps_published_to_registry(self):
        registry = MetricsRegistry()
        stats = StatisticsCollector(registry=registry)
        stats.record_superstep(1, fake_result(1, messages=10))
        stats.record_superstep(2, fake_result(2, messages=30))
        assert registry.value("pregelix.messages_sent") == 40
        assert registry.value("pregelix.network_bytes") == 4096
        assert registry.value("pregelix.join_tuples") == 120
        hist = registry.get("pregelix.superstep_seconds")
        assert hist.count == 2

    def test_operator_seconds_in_registry(self):
        registry = MetricsRegistry()
        stats = StatisticsCollector(registry=registry)
        stats.record_superstep(1, fake_result(1, operator_seconds={"Join": 0.25}))
        stats.record_superstep(2, fake_result(2, operator_seconds={"Join": 0.5}))
        assert registry.value(
            "pregelix.operator_seconds", operator="Join"
        ) == pytest.approx(0.75)
        assert stats.total_operator_seconds == {"Join": pytest.approx(0.75)}


class TestSummary:
    def test_summary_matches_list_derived_properties_exactly(self):
        stats = StatisticsCollector()
        # Deliberately awkward floats: the exported histogram accumulates
        # in arrival order, so it reproduces sum(list) bit-for-bit.
        for step, elapsed in enumerate((0.1, 0.2, 0.30000000004, 1e-9), start=1):
            stats.record_superstep(step, fake_result(step, elapsed=elapsed))
        summary = stats.summary()
        assert summary["supersteps"] == stats.num_supersteps == 4
        assert summary["total_elapsed"] == stats.total_elapsed
        assert summary["avg_iteration_seconds"] == stats.avg_iteration_seconds
        assert summary["messages_sent"] == stats.total_messages_sent
        assert summary["network_bytes"] == stats.total_network_bytes
        assert summary["spill_bytes"] == stats.total_spill_bytes
        assert stats.registry.get("superstep_seconds").total == stats.total_elapsed

    def test_collectors_sharing_a_registry_summarize_only_their_own_run(self):
        # Every run on a cluster and every job of a service shares one
        # registry; a summary read back from it would include the others.
        registry = MetricsRegistry()
        first = StatisticsCollector(registry=registry)
        second = StatisticsCollector(registry=registry)
        for step in (1, 2, 3):
            first.record_superstep(step, fake_result(step, messages=10))
        second.record_superstep(1, fake_result(1, elapsed=0.25, messages=7))
        for stats, supersteps, messages in ((first, 3, 30), (second, 1, 7)):
            summary = stats.summary()
            assert summary["supersteps"] == stats.num_supersteps == supersteps
            assert summary["total_elapsed"] == stats.total_elapsed
            assert summary["messages_sent"] == stats.total_messages_sent == messages
            assert summary["network_bytes"] == stats.total_network_bytes
            assert summary["spill_bytes"] == stats.total_spill_bytes
        # The shared registry holds the total over both runs.
        assert registry.value("pregelix.messages_sent") == 37
        assert registry.get("pregelix.superstep_seconds").count == 4

    def test_empty_collector(self):
        stats = StatisticsCollector()
        summary = stats.summary()
        assert summary["supersteps"] == 0
        assert summary["total_elapsed"] == 0
        assert stats.avg_iteration_seconds == 0.0


class TestRecordCluster:
    def test_cluster_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        stats = StatisticsCollector(registry=registry)
        with HyracksCluster(num_nodes=2, root_dir=str(tmp_path / "c")) as cluster:
            stats.record_cluster(cluster)
        assert stats.live_machines == ["node0", "node1"]
        assert registry.value("pregelix.live_machines") == 2
        assert set(stats.buffer_cache["node0"]) == {
            "hits", "misses", "evictions", "writebacks"
        }
        # The cache counts are exported once, by the node (storage.cache.*).
        assert registry.get("pregelix.buffer_cache.hits", node="node0") is None


class TestReport:
    def collect(self, stats):
        lines = []
        stats.report(out=lines.append)
        return lines

    def test_table_shape_preserved(self):
        stats = StatisticsCollector()
        stats.record_superstep(1, fake_result(1))
        lines = self.collect(stats)
        assert "superstep" in lines[0] and "cache misses" in lines[0]
        assert lines[1].split()[0] == "1"

    def test_access_method_and_operator_lines_appended(self):
        stats = StatisticsCollector()
        stats.record_superstep(1, fake_result(1, join_tuples=60, index_probes=5))
        stats.record_superstep(2, fake_result(2, join_tuples=40, index_probes=7))
        lines = self.collect(stats)
        assert "join tuples: 100, index probes: 12" in lines
        operator_line = [l for l in lines if l.startswith("operator seconds:")]
        assert len(operator_line) == 1
        # Sorted by descending total: Join (0.6/superstep) before GroupBy.
        assert operator_line[0].index("Join=") < operator_line[0].index("GroupBy=")

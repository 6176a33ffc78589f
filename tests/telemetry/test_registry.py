"""Unit tests for the metrics registry: labels, scoping, thread safety."""

import threading

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import format_metric_key


class TestMetricIdentity:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.counter("cache.misses")
        b = registry.counter("cache.misses")
        assert a is b
        a.inc(3)
        assert registry.value("cache.misses") == 3

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        registry.counter("cache.misses", node="node0").inc(2)
        registry.counter("cache.misses", node="node1").inc(5)
        assert registry.value("cache.misses", node="node0") == 2
        assert registry.value("cache.misses", node="node1") == 5
        assert registry.value("cache.misses") == 0  # unlabeled is distinct

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("m", node="n0", op="scan")
        b = registry.counter("m", op="scan", node="n0")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_value_default_for_missing(self):
        registry = MetricsRegistry()
        assert registry.value("nope") == 0
        assert registry.value("nope", default=None) is None
        assert registry.get("nope") is None


class TestMetricKinds:
    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("live_machines")
        gauge.set(4)
        gauge.dec()
        gauge.inc(2)
        assert gauge.value == 5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("superstep_seconds")
        for value in (0.5, 1.5, 1.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(3.0)
        assert hist.min == 0.5
        assert hist.max == 1.5
        assert hist.mean == pytest.approx(1.0)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(3.0)

    def test_histogram_total_matches_sum_exactly(self):
        # Arrival-order accumulation must reproduce sum(list) bit-for-bit;
        # the statistics collector's summary() depends on this.
        values = [0.1 * i + 1e-9 for i in range(50)]
        registry = MetricsRegistry()
        hist = registry.histogram("elapsed")
        for value in values:
            hist.observe(value)
        assert hist.total == sum(values)

    def test_empty_histogram_mean(self):
        assert MetricsRegistry().histogram("h").mean == 0.0


class TestReadCounter:
    def test_value_is_the_holders_field_not_a_copy(self):
        from repro.common.accounting import IOCounters
        from repro.telemetry import render_prometheus

        registry = MetricsRegistry()
        io = IOCounters()
        registry.expose("node.io.disk_read_bytes", io, "disk_read_bytes", node="n0")
        assert registry.value("node.io.disk_read_bytes", node="n0") == 0
        io.record_read(4096)
        assert registry.value("node.io.disk_read_bytes", node="n0") == 4096
        # Every reader sees it as an ordinary counter.
        assert registry.snapshot() == {"node.io.disk_read_bytes{node=n0}": 4096}
        assert 'node_io_disk_read_bytes_total{node="n0"} 4096' in render_prometheus(
            registry
        )

    def test_successor_holder_adds_up_and_kind_conflicts_raise(self):
        from repro.common.accounting import IOCounters

        registry = MetricsRegistry()
        first, second = IOCounters(), IOCounters()
        registry.expose("reads", first, "disk_reads")
        first.record_read(1)
        registry.expose("reads", second, "disk_reads")  # never goes backwards
        second.record_read(1)
        second.record_read(1)
        assert registry.value("reads") == 3
        with pytest.raises(TypeError):
            registry.counter("reads")  # one home: nobody else may write it
        registry.counter("writes")
        with pytest.raises(TypeError):
            registry.expose("writes", first, "disk_writes")


class TestHistogramBuckets:
    def test_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 99.0):
            hist.observe(value)
        bounds, cumulative, count, total = hist.bucket_snapshot()
        assert bounds == (1.0, 2.0, 4.0)
        # le-inclusive: 1.0 falls in the le=1.0 bucket; 99.0 only in the
        # implicit +Inf bucket, which is `count` by construction.
        assert cumulative == [2, 3, 4]
        assert count == 5
        assert total == sum((0.5, 1.0, 1.5, 3.0, 99.0))

    def test_default_buckets_cover_latency_range(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.bucket_bounds[0] == 0.001
        assert hist.bucket_bounds[-1] == 300.0
        assert list(hist.bucket_bounds) == sorted(hist.bucket_bounds)

    def test_bad_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("a", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("b", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("c", buckets=(2.0, 1.0))

    def test_percentiles_interpolate(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(10.0, 20.0, 30.0))
        for value in range(1, 21):  # 1..20 uniform
            hist.observe(float(value))
        assert hist.percentile(0.5) == pytest.approx(10.0, abs=2.0)
        assert hist.percentile(0.95) == pytest.approx(19.0, abs=2.0)
        # Estimates are clamped into the observed [min, max] envelope.
        assert hist.percentile(0.0) >= hist.min
        assert hist.percentile(1.0) <= hist.max

    def test_percentile_empty_and_overflow(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        assert hist.percentile(0.5) is None
        hist.observe(50.0)  # beyond the last bound: +Inf bucket
        assert hist.percentile(0.99) == 50.0  # reported as the max

    def test_summary_includes_percentiles(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.002, 0.004, 0.3):
            hist.observe(value)
        summary = hist.summary()
        for quantile in ("p50", "p95", "p99"):
            assert summary[quantile] is not None
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["sum"] == sum((0.002, 0.004, 0.3))  # exact, always

    def test_custom_buckets_only_shape_distribution(self):
        # Two histograms fed the same stream agree on the exact stats
        # regardless of bucketing; only the percentile estimates differ.
        registry = MetricsRegistry()
        coarse = registry.histogram("coarse", buckets=(1.0, 100.0))
        fine = registry.histogram("fine")
        for value in (0.01, 0.02, 0.5, 2.0):
            coarse.observe(value)
            fine.observe(value)
        assert coarse.total == fine.total
        assert coarse.count == fine.count
        assert (coarse.min, coarse.max) == (fine.min, fine.max)


class TestScoping:
    def test_scoped_prefixes_names(self):
        registry = MetricsRegistry()
        scoped = registry.scoped("pregelix")
        scoped.counter("messages_sent").inc(9)
        assert registry.value("pregelix.messages_sent") == 9
        assert scoped.value("messages_sent") == 9

    def test_nested_scopes_collapse(self):
        registry = MetricsRegistry()
        inner = registry.scoped("storage").scoped("lsm")
        inner.counter("flushes").inc()
        assert registry.value("storage.lsm.flushes") == 1
        assert inner.registry is registry  # views collapse to one level


class TestSnapshot:
    def test_snapshot_keys_and_values(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(1)
        registry.counter("b", node="n0").inc(2)
        registry.histogram("h").observe(4.0)
        snap = registry.snapshot()
        assert snap["a"] == 1
        assert snap["b{node=n0}"] == 2
        # Histograms snapshot to their full summary, not just the total.
        assert snap["h"]["sum"] == 4.0
        assert snap["h"]["count"] == 1
        assert snap["h"]["p50"] == pytest.approx(4.0, rel=0.5)
        assert len(registry) == 3

    def test_format_metric_key(self):
        assert format_metric_key("a", ()) == "a"
        assert format_metric_key("a", (("node", "n0"), ("op", "x"))) == "a{node=n0,op=x}"


class TestThreadSafety:
    def test_concurrent_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def bump():
            for _ in range(5000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 20000

    def test_concurrent_get_or_create(self):
        registry = MetricsRegistry()
        seen = []

        def create():
            seen.append(registry.counter("shared"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(metric is seen[0] for metric in seen)
        assert len(registry) == 1

    def test_concurrent_get_or_create_mixed_kinds_and_labels(self):
        # The service's hot path races counter/histogram creation across
        # worker threads with distinct label sets; every (name, labels)
        # pair must resolve to exactly one live metric and no observation
        # may be lost to a clobbered registration.
        registry = MetricsRegistry()
        barrier = threading.Barrier(8)
        errors = []

        def worker(index):
            tenant = "t%d" % (index % 4)
            try:
                barrier.wait(timeout=10)
                for _ in range(500):
                    registry.counter("serve.submitted", tenant=tenant).inc()
                    registry.histogram(
                        "serve.latency.e2e_seconds", tenant=tenant
                    ).observe(0.01)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(registry) == 8  # 4 tenants x (counter + histogram)
        for index in range(4):
            tenant = "t%d" % index
            assert registry.value("serve.submitted", tenant=tenant) == 1000
            hist = registry.get("serve.latency.e2e_seconds", tenant=tenant)
            assert hist.count == 1000
            _bounds, cumulative, count, _total = hist.bucket_snapshot()
            assert cumulative[-1] == count == 1000

    def test_concurrent_observe_keeps_buckets_consistent(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(0.5, 1.5))

        def observe():
            for i in range(4000):
                hist.observe(1.0 if i % 2 else 2.0)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        bounds, cumulative, count, total = hist.bucket_snapshot()
        assert count == 16000
        assert cumulative == [0, 8000]  # the 2.0s live in +Inf
        assert total == sum([1.0 if i % 2 else 2.0 for i in range(4000)]) * 4

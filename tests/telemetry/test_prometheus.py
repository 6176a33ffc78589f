"""The Prometheus text exporter: names, escaping, histogram families."""

import math
import re
import threading

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.prometheus import (
    CONTENT_TYPE,
    escape_label_value,
    format_value,
    parse_exposition,
    render_prometheus,
    sanitize_label_name,
    sanitize_metric_name,
)


class TestSanitization:
    def test_metric_names(self):
        assert sanitize_metric_name("serve.queue_depth") == "serve_queue_depth"
        assert sanitize_metric_name("a-b c") == "a_b_c"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("") == "_"

    def test_label_names(self):
        assert sanitize_label_name("tenant") == "tenant"
        assert sanitize_label_name("node.id") == "node_id"
        assert sanitize_label_name("1x") == "_1x"

    def test_label_value_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(True) == "1"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"
        assert float(format_value(0.1)) == 0.1  # repr round-trips


class TestRender:
    def test_counter_gets_total_suffix_and_type_line(self):
        registry = MetricsRegistry()
        registry.counter("serve.submitted", tenant="alice").inc(3)
        registry.counter("serve.submitted", tenant="bob").inc(1)
        text = render_prometheus(registry)
        assert "# TYPE serve_submitted_total counter" in text
        assert text.count("# TYPE serve_submitted_total") == 1  # one family
        samples = parse_exposition(text)
        assert samples['serve_submitted_total{tenant="alice"}'] == 3
        assert samples['serve_submitted_total{tenant="bob"}'] == 1

    def test_gauge_renders_plain(self):
        registry = MetricsRegistry()
        registry.gauge("serve.queue_depth").set(7)
        samples = parse_exposition(render_prometheus(registry))
        assert samples["serve_queue_depth"] == 7

    def test_histogram_family_is_internally_consistent(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rpc.seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            hist.observe(value)
        text = render_prometheus(registry)
        assert "# TYPE rpc_seconds histogram" in text
        samples = parse_exposition(text)
        assert samples['rpc_seconds_bucket{le="0.1"}'] == 1
        assert samples['rpc_seconds_bucket{le="1.0"}'] == 3
        # +Inf bucket equals _count, and buckets are monotone cumulative.
        assert samples['rpc_seconds_bucket{le="+Inf"}'] == 4
        assert samples["rpc_seconds_count"] == 4
        assert samples["rpc_seconds_sum"] == sum((0.05, 0.5, 0.7, 5.0))
        buckets = [
            value for series, value in samples.items()
            if series.startswith("rpc_seconds_bucket")
        ]
        assert buckets == sorted(buckets)

    def test_sum_matches_registry_exactly(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        values = [0.1 * i + 1e-9 for i in range(40)]
        for value in values:
            hist.observe(value)
        samples = parse_exposition(render_prometheus(registry))
        # The scrape reports the histogram's exact arrival-order sum.
        assert samples["h_sum"] == hist.total == sum(values)

    def test_empty_registry_renders_empty_body(self):
        assert render_prometheus(MetricsRegistry()) == "\n"

    def test_nan_gauge_renders_parseable(self):
        registry = MetricsRegistry()
        registry.gauge("weird").set(float("nan"))
        line = [
            l for l in render_prometheus(registry).splitlines()
            if l.startswith("weird")
        ][0]
        assert math.isnan(float(line.split(" ")[1]))

    def test_content_type_advertises_004(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestParse:
    def test_reads_back_what_render_wrote(self):
        registry = MetricsRegistry()
        registry.counter("serve.submitted", tenant="alice").inc(2)
        registry.gauge("weird").set(float("inf"))
        samples = parse_exposition(render_prometheus(registry))
        assert samples == {
            'serve_submitted_total{tenant="alice"}': 2,
            "weird": float("inf"),
        }

    @pytest.mark.parametrize("text", [
        "serve_queue_depth 7",  # no final newline: cut short
        "serve_queue_depth\n",  # no value
        'serve_submitted_total{tenant="alice" 3\n',  # unbalanced braces
        "serve_queue_depth 7 8\n",  # two lines run together
        "serve_queue_depth seven\n",  # not a number
    ])
    def test_torn_or_malformed_body_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            parse_exposition(text)


class TestScrapeUnderConcurrency:
    def test_render_during_writes_is_consistent(self):
        # A scrape racing live observers must still see every histogram
        # family internally consistent (+Inf == _count) because the
        # bucket snapshot is taken under the histogram's lock.
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer(tenant):
            value = 0.001
            while not stop.is_set():
                registry.counter("serve.submitted", tenant=tenant).inc()
                registry.histogram(
                    "serve.latency.e2e_seconds", tenant=tenant
                ).observe(value)
                value = value * 1.1 if value < 100 else 0.001

        threads = [
            threading.Thread(target=writer, args=("t%d" % i,))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        try:
            checked = 0
            for _ in range(25):
                samples = parse_exposition(render_prometheus(registry))
                for series, value in samples.items():
                    match = re.match(
                        r'(\w+)_bucket\{(.*?),?le="\+Inf"\}', series
                    )
                    if match is None:
                        continue
                    name, labels = match.groups()
                    count_series = "%s_count%s" % (
                        name, "{%s}" % labels if labels else "",
                    )
                    assert samples[count_series] == value, series
                    checked += 1
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert checked  # the writers registered their histograms

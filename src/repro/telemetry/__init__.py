"""repro.telemetry — unified tracing, metrics, and event logging.

The observability spine of the reproduction (DESIGN.md "Telemetry"):

* :mod:`repro.telemetry.registry` — hierarchical labeled metrics
  (counters, gauges, histograms). It owns the counts written into it
  (serve, LSM, ``pregelix.*``, per-job engine totals, each written once)
  and *reads* the ones that live in a resident holder (a node's I/O
  counters, a buffer cache's stats) through ``expose``.
* :mod:`repro.telemetry.tracing` — nested spans (job → superstep →
  operator task → storage op) with wall-clock and simulated-time stamps.
* :mod:`repro.telemetry.events` — a ring-buffered structured event log
  for discrete occurrences (evictions, LSM flushes, checkpoints,
  failures, optimizer re-plans).
* :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON (Perfetto
  / ``about://tracing``), JSONL, and summary-table sinks.
* :mod:`repro.telemetry.session` — the :class:`Telemetry` facade wiring
  the three together, one per simulated cluster.
"""

from repro.telemetry.events import Event, EventLog
from repro.telemetry.export import (
    chrome_trace,
    chrome_trace_events,
    iter_records,
    metric_record,
    print_summary,
    summary_lines,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ReadCounter,
    ScopedRegistry,
)
from repro.telemetry.session import Telemetry
from repro.telemetry.tracing import SimClock, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ReadCounter",
    "ScopedRegistry",
    "SimClock",
    "Span",
    "Telemetry",
    "Tracer",
    "chrome_trace",
    "chrome_trace_events",
    "iter_records",
    "metric_record",
    "print_summary",
    "render_prometheus",
    "summary_lines",
    "write_chrome_trace",
    "write_jsonl",
]

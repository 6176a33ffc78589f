"""The :class:`Telemetry` facade: one registry + tracer + event log.

A telemetry session is created per :class:`~repro.hyracks.HyracksCluster`
(or handed in by the caller, e.g. the CLI or the benchmark harness, to
export afterwards). It ties together the three collection surfaces and
offers the convenience entry points instrumentation sites use::

    with telemetry.span("superstep:3", category="superstep"):
        ...
    telemetry.event("cache.evict", category="storage", node="node0")
    telemetry.registry.counter("engine.jobs").inc()

``enabled=False`` turns spans and events into no-ops (metrics stay on —
they are the statistics collector's substrate and cost almost nothing),
which keeps hot paths cheap when nobody asked for a trace.

``task_spans=True`` adds one ``task`` span per stage clone. It is off
unless a trace file was asked for: a long-lived session (the job
service's) would otherwise keep a span per clone of every superstep it
ever ran, while each superstep span already carries that superstep's
seconds per operator.
"""

from repro.telemetry.events import EventLog
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import DEFAULT_MAX_SPANS, SimClock, Tracer


class Telemetry:
    """One observability session: metrics, spans, events, sim clock."""

    def __init__(
        self,
        enabled=True,
        max_spans=DEFAULT_MAX_SPANS,
        registry=None,
        task_spans=False,
    ):
        self.enabled = enabled
        self.task_spans = task_spans
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sim_clock = SimClock()
        self.tracer = Tracer(
            sim_clock=self.sim_clock, max_spans=max_spans, enabled=enabled
        )
        self.events = EventLog(enabled=enabled)
        # The two entry points every instrumentation site calls are the
        # collectors' own bound methods: a disabled event costs one call.
        self.span = self.tracer.span
        self.event = self.events.emit

    def __repr__(self):
        return "Telemetry(enabled=%r, %d metrics, %d spans, %d events)" % (
            self.enabled,
            len(self.registry),
            len(self.tracer),
            len(self.events),
        )

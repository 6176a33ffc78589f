"""Telemetry sinks: Chrome trace JSON, JSONL, summary table.

The Chrome exporter emits the ``trace_event`` format that
``about://tracing`` and Perfetto load directly: a ``B``/``E`` duration
pair per completed span plus an instant (``i``) event per event-log
entry, all on one timeline. Only *completed* spans are exported, so
``B``/``E`` pairs are matched by construction; output is sorted so
timestamps are monotone and nesting is well-formed even when events share
a microsecond.
"""

import json

#: pid used for every emitted trace event (one simulated cluster process).
TRACE_PID = 1


def _us(ts, timebase):
    return int(round((ts - timebase) * 1e6))


#: tid the synthetic lifecycle spans render on (its own viewer row).
LIFECYCLE_TID = 0


def chrome_trace_events(telemetry, spans=None, events=None, synthetic=()):
    """The sorted ``traceEvents`` list for one telemetry session.

    :param spans: explicit span subset (default: every finished span) —
        this is how the per-job trace endpoint reuses the exporter over
        just one job's spans.
    :param events: explicit event subset (default: the whole event log).
    :param synthetic: extra duration events built from timestamps the
        tracer never saw (queue-wait, run, fan-out lifecycle phases), as
        dicts with ``name``/``start``/``end`` and optional ``cat``/
        ``tid``/``args``; stamps share the spans' ``perf_counter``
        timebase so they land on the same timeline.
    """
    spans = telemetry.tracer.finished_spans() if spans is None else list(spans)
    events = list(telemetry.events) if events is None else list(events)
    synthetic = list(synthetic)
    candidates = [span.start for span in spans]
    candidates.extend(event.ts for event in events)
    candidates.extend(item["start"] for item in synthetic)
    timebase = min(candidates) if candidates else 0.0
    raw = []
    # Thread-name metadata first, so viewers label the lifecycle row.
    metadata = []
    if synthetic:
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": LIFECYCLE_TID,
            "args": {"name": "job-lifecycle"},
        })
    for item in synthetic:
        common = {
            "name": item["name"],
            "cat": item.get("cat", "lifecycle"),
            "pid": TRACE_PID,
            "tid": item.get("tid", LIFECYCLE_TID),
        }
        begin = dict(common, ph="B", ts=_us(item["start"], timebase))
        if item.get("args"):
            begin["args"] = dict(item["args"])
        end = dict(common, ph="E", ts=_us(item["end"], timebase))
        raw.append(((begin["ts"], item["start"], 0), begin))
        raw.append(((end["ts"], item["end"], 1), end))
    for span in spans:
        args = dict(span.args)
        if span.sim_duration is not None:
            args.setdefault("sim_seconds", span.sim_duration)
        common = {
            "name": span.name,
            "cat": span.category or "span",
            "pid": TRACE_PID,
            "tid": span.tid,
        }
        begin = dict(common, ph="B", ts=_us(span.start, timebase))
        if args:
            begin["args"] = args
        end = dict(common, ph="E", ts=_us(span.end, timebase))
        # Microsecond rounding collapses sub-microsecond spans, so ties
        # on the integer ts are broken by the exact perf_counter stamps
        # (strictly ordered per thread), keeping per-tid nesting
        # well-formed; a span's B precedes its own E even at an exact tie.
        raw.append(((begin["ts"], span.start, 0), begin))
        raw.append(((end["ts"], span.end, 1), end))
    for event in events:
        instant = {
            "name": event.name,
            "cat": event.category or "event",
            "ph": "i",
            "s": "g",
            "ts": _us(event.ts, timebase),
            "pid": TRACE_PID,
            "tid": TRACE_PID,
        }
        if event.args:
            instant["args"] = dict(event.args)
        raw.append(((instant["ts"], event.ts, 0), instant))
    raw.sort(key=lambda pair: pair[0])
    return metadata + [payload for _key, payload in raw]


def chrome_trace(telemetry):
    """The full Chrome ``trace_event`` document (a JSON object)."""
    return {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.telemetry",
            "sim_seconds": telemetry.sim_clock.seconds,
        },
    }


def write_chrome_trace(telemetry, path):
    """Write the trace to ``path``; open it in Perfetto / about://tracing."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(telemetry), handle)
    return path


# ---------------------------------------------------------------------
# record streams (JSONL)
# ---------------------------------------------------------------------
def metric_record(metric):
    """One metric as a flat export record."""
    record = {
        "type": "metric",
        "kind": metric.kind,
        "name": metric.name,
        "value": metric.value,
    }
    if metric.labels:
        record["labels"] = dict(metric.labels)
    if metric.kind == "histogram":
        record["summary"] = metric.summary()
    return record


def iter_records(telemetry):
    """Every span, event, and metric as one flat dict stream."""
    for span in telemetry.tracer.finished_spans():
        yield span.to_record()
    for event in telemetry.events:
        yield event.to_record()
    for metric in telemetry.registry.iter_metrics():
        yield metric_record(metric)


def write_jsonl(telemetry, path_or_file):
    """Dump :func:`iter_records` as JSON lines; returns the record count."""
    handle = path_or_file
    owns = isinstance(path_or_file, str)
    if owns:
        handle = open(path_or_file, "w")
    try:
        count = 0
        for record in iter_records(telemetry):
            handle.write(json.dumps(record, default=str) + "\n")
            count += 1
        return count
    finally:
        if owns:
            handle.close()


# ---------------------------------------------------------------------
# the human-readable summary table
# ---------------------------------------------------------------------
def summary_lines(telemetry):
    """A compact operator/metric/event summary (the ``--stats`` footer).

    Spans are totalled by category and name, the name without its
    operators' run ids and cut at its first remaining ``:``
    (``superstep:3`` counts as ``superstep``).
    """
    from repro.telemetry.registry import format_metric_key, operator_kind

    lines = ["-- telemetry summary --"]
    metrics = telemetry.registry.iter_metrics()
    if metrics:
        lines.append("metrics:")
        for metric in metrics:
            key = format_metric_key(metric.name, metric.labels)
            if metric.kind == "histogram":
                lines.append(
                    "  %-48s n=%d sum=%.6g min=%.6g max=%.6g"
                    % (
                        key,
                        metric.count,
                        metric.total,
                        metric.min if metric.min is not None else 0,
                        metric.max if metric.max is not None else 0,
                    )
                )
            else:
                value = metric.value
                rendered = "%.6g" % value if isinstance(value, float) else str(value)
                lines.append("  %-48s %s" % (key, rendered))
    counts = telemetry.events.counts()
    if counts:
        lines.append("events:")
        for name in sorted(counts):
            lines.append("  %-48s %d" % (name, counts[name]))
        if telemetry.events.dropped:
            lines.append(
                "  (%d older events dropped by the ring buffer)"
                % telemetry.events.dropped
            )
    span_totals = {}
    for span in telemetry.tracer.finished_spans():
        key = (span.category, operator_kind(span.name).split(":")[0])
        count, total = span_totals.get(key, (0, 0.0))
        span_totals[key] = (count + 1, total + (span.duration or 0.0))
    if span_totals:
        lines.append("spans (wall seconds by category/name):")
        for (category, name), (count, total) in sorted(
            span_totals.items(), key=lambda item: -item[1][1]
        ):
            lines.append("  %-48s n=%-6d %.6fs" % ("%s/%s" % (category, name), count, total))
    if telemetry.sim_clock.seconds:
        lines.append("simulated seconds: %.6f" % telemetry.sim_clock.seconds)
    return lines


def print_summary(telemetry, out=print):
    for line in summary_lines(telemetry):
        out(line)

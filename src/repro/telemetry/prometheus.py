"""Prometheus text-format exposition over a :class:`MetricsRegistry`.

Renders exposition format 0.0.4 (the plain-text scrape body): one
``# TYPE`` line per metric family followed by one sample line per
labeled series. Dotted repro names become underscore names
(``serve.queue_depth`` → ``serve_queue_depth``), counters gain the
conventional ``_total`` suffix, and histograms expand to cumulative
``_bucket{le="..."}`` series (including ``+Inf``) plus ``_sum`` and
``_count`` — taken under each histogram's lock so the three always
agree within one scrape.

The whole body is built as one string and written in a single send by
the HTTP layer, so concurrent scrapes never observe torn lines;
:func:`parse_exposition` reads a body back and refuses a torn one.
"""

import re

#: The scrape response Content-Type for exposition format 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")
_SAMPLE_LINE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$")


def sanitize_metric_name(name):
    """A valid Prometheus metric name for a dotted repro name."""
    name = _INVALID_NAME_CHARS.sub("_", str(name))
    if not name:
        return "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def sanitize_label_name(name):
    name = _INVALID_LABEL_CHARS.sub("_", str(name))
    if not name:
        return "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def escape_label_value(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def format_value(value):
    """A sample value as Prometheus text (int, float, +Inf/-Inf/NaN)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def _labels_text(labels, extra=None):
    parts = [
        '%s="%s"' % (sanitize_label_name(key), escape_label_value(val))
        for key, val in labels
    ]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


def render_prometheus(registry):
    """The full exposition body for ``registry`` (ends with a newline).

    Iterates the registry's sorted metric view, so series of one family
    (same name, different labels) are contiguous and each family's
    ``# TYPE`` line precedes all of its samples.
    """
    lines = []
    typed = set()
    for metric in registry.iter_metrics():
        base = sanitize_metric_name(metric.name)
        if metric.kind == "counter":
            family = base if base.endswith("_total") else base + "_total"
            kind = "counter"
        elif metric.kind == "gauge":
            family, kind = base, "gauge"
        else:
            family, kind = base, "histogram"
        if family not in typed:
            typed.add(family)
            lines.append("# TYPE %s %s" % (family, kind))
        labels = metric.labels
        if metric.kind == "histogram":
            bounds, cumulative, count, total = metric.bucket_snapshot()
            for bound, observed in zip(bounds, cumulative):
                le = 'le="%s"' % format_value(float(bound))
                lines.append(
                    "%s_bucket%s %d" % (family, _labels_text(labels, le), observed)
                )
            lines.append(
                '%s_bucket%s %d' % (family, _labels_text(labels, 'le="+Inf"'), count)
            )
            lines.append("%s_sum%s %s" % (family, _labels_text(labels), format_value(total)))
            lines.append("%s_count%s %d" % (family, _labels_text(labels), count))
        else:
            lines.append(
                "%s%s %s" % (family, _labels_text(labels), format_value(metric.value))
            )
    return "\n".join(lines) + "\n"


def parse_exposition(text):
    """``{series-with-labels: float value}`` for every sample line of an
    exposition body; ``ValueError`` when a line is torn or malformed."""
    if not text.endswith("\n"):
        raise ValueError("exposition body does not end with a newline")
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not _SAMPLE_LINE.match(line):
            raise ValueError("malformed sample line: %r" % line)
        series, value = line.rsplit(" ", 1)
        samples[series] = float(value)
    return samples

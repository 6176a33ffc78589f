"""The hierarchical metrics registry (counters, gauges, histograms).

One :class:`MetricsRegistry` per telemetry session holds every metric the
system records. Metrics are identified by a dotted name plus an optional
set of labels (``registry.counter("cache.misses", node="node0")``), so
one registry serves the whole simulated cluster without per-component
counter classes. ``scoped("pregelix")`` returns a view that prefixes
names, which is how each subsystem gets its own branch of the hierarchy.

Every number has one home. Counts the registry owns (serve, LSM,
``pregelix.*``, per-job engine totals) are written here once, by the
code that produces them. Counts that live in a resident structure — a
node's :class:`~repro.common.accounting.IOCounters`, a buffer cache's
stats — stay there: :meth:`MetricsRegistry.expose` registers a
:class:`ReadCounter` whose ``value`` reads the holder's field at export
time, so the hot path pays nothing for being observable and the
exported number cannot drift from the one the system acts on.
"""

import bisect
import re
import threading

#: Default histogram bucket upper bounds (seconds). Roughly exponential,
#: spanning sub-millisecond operator work to minutes-long served jobs —
#: the same scheme Prometheus client libraries default to, extended at
#: the top end because graph jobs run long.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def _label_key(labels):
    return tuple(sorted(labels.items()))


def format_metric_key(name, labels):
    """Render ``name`` + labels as ``name{k=v,...}`` (stable order)."""
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % (k, v) for k, v in labels))


#: The run part of a relation name inside an operator's, as in
#: ``IndexLeftOuterJoin(vertex:sssp-0001)``.
_RUN_OF_RELATION = re.compile(r":[^()]*(?=\))")


def operator_kind(name):
    """An operator's metric label: its kind and relation, never its run
    (``IndexLeftOuterJoin(vertex)``), so a long-lived service exports a
    fixed set of series however many runs it serves. A stage's name
    (``A(x:run)+B``) loses every operator's run."""
    return _RUN_OF_RELATION.sub("", name)


class Counter:
    """A monotonically increasing value (int or float increments)."""

    kind = "counter"

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return "Counter(%s=%r)" % (format_metric_key(self.name, self.labels), self._value)


class ReadCounter:
    """A counter that lives elsewhere: ``value`` reads ``holder.field``.

    A series exposed again by a successor holder (a bench sweep runs
    fresh clusters, each with a ``node0``, on one session) reports the
    sum over its holders, so an exported counter never goes backwards.
    """

    kind = "counter"

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = labels
        self._sources = []

    def watch(self, holder, field):
        self._sources.append((holder, field))

    @property
    def value(self):
        return sum(getattr(holder, field) for holder, field in self._sources)

    def __repr__(self):
        return "ReadCounter(%s=%r)" % (format_metric_key(self.name, self.labels), self.value)


class Gauge:
    """A value that can move in both directions (e.g. cached bytes)."""

    kind = "gauge"

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value):
        with self._lock:
            self._value = value

    def inc(self, amount=1):
        with self._lock:
            self._value += amount

    def dec(self, amount=1):
        self.inc(-amount)

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return "Gauge(%s=%r)" % (format_metric_key(self.name, self.labels), self._value)


class Histogram:
    """Streaming distribution summary with bucketed percentile estimates.

    ``total`` accumulates observations in arrival order, so a histogram
    fed the per-superstep elapsed times reproduces ``sum(list)`` exactly
    (bit-for-bit float equality) — so the exported
    ``pregelix.superstep_seconds`` sum equals the statistics collectors'
    own list-derived totals without drift.
    Bucket counting is additive bookkeeping on the side: it never
    touches the exact-sum path.

    :param buckets: increasing upper bounds (``le``-inclusive, Prometheus
        style); an implicit +Inf bucket catches the overflow. ``None``
        uses :data:`DEFAULT_BUCKETS`.
    """

    kind = "histogram"

    def __init__(self, name, labels=(), buckets=None):
        self.name = name
        self.labels = labels
        bounds = tuple(float(b) for b in (DEFAULT_BUCKETS if buckets is None else buckets))
        if not bounds or any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bucket_bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    def observe(self, value):
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._bucket_counts[bisect.bisect_left(self.bucket_bounds, value)] += 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    @property
    def value(self):
        """Histograms summarize to their total (for uniform snapshots)."""
        return self.total

    def bucket_snapshot(self):
        """One consistent ``(bounds, cumulative_counts, count, sum)``.

        Taken under the histogram's lock so an exporter never sees a
        ``_count`` that disagrees with the +Inf bucket or the ``_sum``.
        ``cumulative_counts`` covers the finite bounds; the +Inf bucket
        is ``count`` by construction.
        """
        with self._lock:
            cumulative = []
            running = 0
            for observed in self._bucket_counts[:-1]:
                running += observed
                cumulative.append(running)
            return self.bucket_bounds, cumulative, self.count, self.total

    def percentile(self, quantile):
        """Estimated value at ``quantile`` (0..1), or ``None`` when empty.

        Prometheus-style: find the bucket the target rank falls in and
        interpolate linearly inside it, clamped to the observed
        ``[min, max]`` so a sparse histogram never reports a value
        outside what it actually saw. Ranks past the last finite bound
        report ``max``.
        """
        with self._lock:
            return self._percentile_locked(quantile)

    def _percentile_locked(self, quantile):
        if not self.count:
            return None
        target = quantile * self.count
        cumulative = 0
        for index, bound in enumerate(self.bucket_bounds):
            previous = cumulative
            cumulative += self._bucket_counts[index]
            if cumulative >= target and self._bucket_counts[index]:
                lower = self.bucket_bounds[index - 1] if index else 0.0
                fraction = (target - previous) / self._bucket_counts[index]
                estimate = lower + (bound - lower) * fraction
                return min(max(estimate, self.min), self.max)
        return self.max

    def summary(self):
        with self._lock:
            count = self.count
            return {
                "count": count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.total / count if count else 0.0,
                "p50": self._percentile_locked(0.50),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
            }

    def __repr__(self):
        return "Histogram(%s: n=%d sum=%r)" % (
            format_metric_key(self.name, self.labels),
            self.count,
            self.total,
        )


class MetricsRegistry:
    """Get-or-create store of named, labeled metrics."""

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, labels, options=None):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **(options or {}))
                self._metrics[key] = metric
            elif type(metric) is not cls:
                raise TypeError(
                    "metric %r already registered as %s, requested %s"
                    % (format_metric_key(name, key[1]), type(metric).__name__, cls.__name__)
                )
            return metric

    def counter(self, name, **labels):
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get_or_create(Gauge, name, labels)

    def expose(self, name, holder, field, **labels):
        """Export ``holder.field`` as counter ``name``, read on demand."""
        self._get_or_create(ReadCounter, name, labels).watch(holder, field)

    def histogram(self, name, buckets=None, **labels):
        """``buckets`` (first caller wins) sets the bound scheme; it is
        registry plumbing, never a label."""
        options = {"buckets": buckets} if buckets is not None else None
        return self._get_or_create(Histogram, name, labels, options)

    def scoped(self, prefix):
        """A view of this registry that prefixes every name with ``prefix.``."""
        return ScopedRegistry(self, prefix)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def get(self, name, **labels):
        """The registered metric, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name, default=0, **labels):
        metric = self.get(name, **labels)
        return metric.value if metric is not None else default

    def iter_metrics(self):
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda m: (m.name, m.labels))

    def snapshot(self):
        """Flat ``{"name{labels}": value}`` view of every metric.

        Histograms expand to their full :meth:`Histogram.summary` dict
        (count/sum/min/max/mean/percentiles) instead of collapsing to
        the bare total, so ``/stats`` and JSONL exports keep the
        distribution shape.
        """
        return {
            format_metric_key(metric.name, metric.labels): (
                metric.summary() if metric.kind == "histogram" else metric.value
            )
            for metric in self.iter_metrics()
        }

    def __len__(self):
        return len(self._metrics)


class ScopedRegistry:
    """A prefixing view over a :class:`MetricsRegistry` (hierarchical names)."""

    def __init__(self, registry, prefix):
        while isinstance(registry, ScopedRegistry):
            prefix = "%s.%s" % (registry.prefix, prefix)
            registry = registry.registry
        self.registry = registry
        self.prefix = prefix

    def _full(self, name):
        return "%s.%s" % (self.prefix, name)

    def counter(self, name, **labels):
        return self.registry.counter(self._full(name), **labels)

    def gauge(self, name, **labels):
        return self.registry.gauge(self._full(name), **labels)

    def histogram(self, name, buckets=None, **labels):
        return self.registry.histogram(self._full(name), buckets=buckets, **labels)

    def scoped(self, prefix):
        return ScopedRegistry(self, prefix)

    def get(self, name, **labels):
        return self.registry.get(self._full(name), **labels)

    def value(self, name, default=0, **labels):
        return self.registry.value(self._full(name), default=default, **labels)

"""The statistics collector (paper Section 5.7).

Gathers per-superstep system counters (elapsed time, network and disk
volume) and Pregel-specific counters (vertices processed, messages sent
and combined), plus cluster-wide snapshots such as the live machine set
and buffer-cache behaviour. The benchmark harness reads these to produce
the paper's figures.

Where the numbers live: a superstep's counts are produced by the
engine's holders and handed over on its ``JobResult``;
:class:`SuperstepStats` — the one field table — says where on a
``JobResult`` each count is read from, and the collector's ``supersteps``
list is what every summary, report and figure is computed from. Each
recorded superstep is also added, once, to the ``pregelix``-scoped
branch of the metrics registry for export; the collector never reads it
back, so collectors sharing a registry (every run on one cluster, every
job of a service) stay independent.
"""

from dataclasses import dataclass, field, fields

from repro.common import costmodel
from repro.telemetry.registry import MetricsRegistry, operator_kind


def _counter(holder=None):
    """A counter field, read from ``JobResult.<holder>`` (or the result)."""
    return field(default=0, metadata={"holder": holder})


@dataclass
class SuperstepStats:
    """Everything recorded about one executed superstep."""

    superstep: int
    elapsed: float
    network_bytes: int = _counter("network_io")
    network_messages: int = _counter("network_io")
    disk_read_bytes: int = _counter("disk_io")
    disk_write_bytes: int = _counter("disk_io")
    vertices_processed: int = _counter("counters")
    messages_sent: int = _counter("counters")
    combined_messages: int = _counter("counters")
    join_tuples: int = _counter("counters")
    index_probes: int = _counter("counters")
    cache_misses: int = _counter()
    cache_writebacks: int = _counter()
    operator_seconds: dict = field(default_factory=dict)
    #: ``operator_seconds`` keyed by :func:`operator_kind`, never by run.
    kind_seconds: dict = field(default_factory=dict)


#: SuperstepStats counter name -> the JobResult holder it is read from.
_COUNTERS = {
    spec.name: spec.metadata["holder"]
    for spec in fields(SuperstepStats)
    if "holder" in spec.metadata
}


def _read(job_result, name, holder):
    source = getattr(job_result, holder) if holder else job_result
    return source.get(name) if holder == "counters" else getattr(source, name)


class StatisticsCollector:
    """Accumulates superstep and cluster statistics for one job run.

    :param registry: a :class:`~repro.telemetry.MetricsRegistry` (or a
        scoped view) to publish into; a private one is created when the
        collector runs stand-alone.
    """

    def __init__(self, registry=None):
        self.supersteps = []
        self.live_machines = []
        self.buffer_cache = {}
        self.rebalances = []  # (superstep, seconds, moved_partitions)
        self.optimizer_trace = None  # set when the job auto-optimizes
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry.scoped("pregelix")
        self._elapsed = self.registry.histogram("superstep_seconds")

    def record_superstep(self, superstep, job_result):
        counts = {
            name: _read(job_result, name, holder)
            for name, holder in _COUNTERS.items()
        }
        kinds = {}
        for name, seconds in job_result.operator_seconds.items():
            kind = operator_kind(name)
            kinds[kind] = kinds.get(kind, 0.0) + seconds
        record = SuperstepStats(
            superstep=superstep,
            elapsed=job_result.elapsed,
            operator_seconds=dict(job_result.operator_seconds),
            kind_seconds=kinds,
            **counts,
        )
        self.supersteps.append(record)
        self._elapsed.observe(record.elapsed)
        for name, amount in counts.items():
            if amount:
                self.registry.counter(name).inc(amount)
        for kind, seconds in kinds.items():
            self.registry.counter("operator_seconds", operator=kind).inc(seconds)
        return record

    def record_rebalance(self, superstep, seconds, moved_partitions):
        """One elastic partition handoff at a superstep boundary."""
        self.rebalances.append((superstep, seconds, moved_partitions))
        self.registry.counter("rebalances").inc()
        self.registry.counter("rebalance_seconds").inc(seconds)

    def record_cluster(self, cluster):
        """Snapshot the live machine set and buffer-cache counters."""
        self.live_machines = cluster.alive_node_ids()
        self.buffer_cache = {
            node_id: node.buffer_cache.stats.snapshot()
            for node_id, node in cluster.nodes.items()
        }
        self.registry.gauge("live_machines").set(len(self.live_machines))

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    @property
    def num_supersteps(self):
        return len(self.supersteps)

    @property
    def total_elapsed(self):
        return sum(stats.elapsed for stats in self.supersteps)

    @property
    def avg_iteration_seconds(self):
        if not self.supersteps:
            return 0.0
        return self.total_elapsed / len(self.supersteps)

    @property
    def total_messages_sent(self):
        return sum(stats.messages_sent for stats in self.supersteps)

    @property
    def total_network_bytes(self):
        return sum(stats.network_bytes for stats in self.supersteps)

    @property
    def total_spill_bytes(self):
        return sum(stats.disk_write_bytes for stats in self.supersteps)

    @property
    def total_operator_seconds(self):
        """Wall seconds by operator name, summed over all supersteps."""
        totals = {}
        for record in self.supersteps:
            for operator, seconds in record.operator_seconds.items():
                totals[operator] = totals.get(operator, 0.0) + seconds
        return totals

    def summary(self):
        """The headline numbers of this run."""
        return {
            "supersteps": self.num_supersteps,
            "total_elapsed": self.total_elapsed,
            "avg_iteration_seconds": self.avg_iteration_seconds,
            "messages_sent": self.total_messages_sent,
            "network_bytes": self.total_network_bytes,
            "spill_bytes": self.total_spill_bytes,
        }

    def report(self, out=print):
        """Print the per-superstep statistics table (the collector's UI)."""
        header = (
            "superstep",
            "seconds",
            "processed",
            "messages",
            "combined",
            "net KB",
            "spill KB",
            "cache misses",
        )
        out("  ".join("%12s" % column for column in header))
        for record in self.supersteps:
            out(
                "  ".join(
                    "%12s" % value
                    for value in (
                        record.superstep,
                        "%.3f" % record.elapsed,
                        record.vertices_processed,
                        record.messages_sent,
                        record.combined_messages,
                        record.network_bytes // 1024,
                        (record.disk_read_bytes + record.disk_write_bytes) // 1024,
                        record.cache_misses,
                    )
                )
            )
        if self.live_machines:
            out("live machines: %s" % ", ".join(self.live_machines))
        if self.optimizer_trace is not None:
            for index, decision in enumerate(self.optimizer_trace.decisions):
                out(
                    "plan ss%d: %s/%s/%s (%s)"
                    % (
                        index + 1, decision.join_strategy.value,
                        decision.groupby_strategy.value,
                        decision.connector_policy.value, decision.reason,
                    )
                )
        # Access-method and operator-time detail (collected since the
        # seed but previously never printed).
        join_tuples = sum(record.join_tuples for record in self.supersteps)
        index_probes = sum(record.index_probes for record in self.supersteps)
        out("join tuples: %d, index probes: %d" % (join_tuples, index_probes))
        operator_totals = self.total_operator_seconds
        if operator_totals:
            out(
                "operator seconds: "
                + ", ".join(
                    "%s=%.3f" % (operator, seconds)
                    for operator, seconds in sorted(
                        operator_totals.items(), key=lambda item: -item[1]
                    )
                )
            )


def pregelix_sim_cost(record, job, workers):
    """(cpu, disk, net) simulated seconds for one Pregelix superstep.

    Derived from the superstep's actual operation counts: scanned join
    tuples (full-outer plans) or index probes (left-outer plans), compute
    calls with their in-place index updates, messages through the
    two-stage group-by and Msg files, plus the job's real spill and
    shuffle byte counters.
    """
    from repro.pregelix.api import ConnectorPolicy

    # Probe counts are nonzero exactly when the superstep ran the
    # left-outer-join plan (plan-independent, so per-superstep plan
    # switching under the optimizer is charged correctly).
    if record.index_probes:
        access_cpu = record.index_probes * costmodel.PREGELIX_PROBE
    else:
        access_cpu = record.join_tuples * costmodel.PREGELIX_SCAN_TUPLE
    message_cost = costmodel.PREGELIX_MESSAGE
    if job.connector_policy == ConnectorPolicy.MERGED:
        # Receiver-side merging skips the re-grouping work but must
        # coordinate one sorted stream per sender; the wait grows with
        # the cluster (the tech-report tradeoff the paper cites in 7.5).
        message_cost = costmodel.PREGELIX_MESSAGE * (0.75 + 0.04 * workers)
    cpu = (
        access_cpu
        + record.vertices_processed
        * (costmodel.PREGELIX_COMPUTE + costmodel.PREGELIX_UPDATE)
        + record.messages_sent * message_cost
    ) / workers
    paged_bytes = (record.cache_misses + record.cache_writebacks) * 4096
    sequential_bytes = max(
        0, record.disk_read_bytes + record.disk_write_bytes - paged_bytes
    )
    disk = costmodel.disk_seconds(sequential_bytes, workers) + (
        costmodel.paged_disk_seconds(paged_bytes, workers)
    )
    net = costmodel.network_seconds(record.network_bytes, workers)
    return (cpu, disk, net)

"""The service's read-only documents: ``/stats``, ``/healthz``, job traces.

:class:`ServiceDocuments` is mixed into
:class:`~repro.serve.service.JobService`. It owns no state: every
figure is read through a collaborator's public surface (the executor's
load snapshot, the lifecycle's job listing and quarantine ledger, the
queue, the caches, the journal, the shared metrics registry), so these
projections can never drift from what those owners would report.
"""

import collections
import time

from repro.serve.jobtrace import job_trace_document


class ServiceDocuments:
    """Stats / health / trace projections of a job service."""

    def cluster_stats(self):
        """Per-node membership + liveness (the ``/stats`` cluster section).

        A node that is down has missed its heartbeat; declaring it dead
        is the driver's decision (DESIGN.md §5), not this document's.
        """
        nodes = []
        for node_id, node in list(self.cluster.nodes.items()):
            nodes.append({
                "node": node_id,
                "alive": node.alive,
                "draining": node.draining,
                "inflight": node.inflight,
                "missed_heartbeats": 0 if node.alive else 1,
                "suspect": not node.alive,
            })
        doc = {
            "nodes": nodes,
            "schedulable": len(self.cluster.schedulable_node_ids()),
            "draining": len(self.cluster.draining_node_ids()),
            "retired": list(self.cluster.retired_nodes),
            "epoch": self.cluster.membership_epoch,
            "virtual_partitions": self.cluster.num_partitions,
        }
        if self.autoscaler is not None:
            doc["autoscaler"] = dict(
                self.autoscaler.state(),
                running=self.housekeeping_state()["running"],
            )
        return doc

    def stats(self):
        # Refusal totals come from the registry counters /metrics
        # exposes (summed over their tenant/code labels), so the two
        # surfaces cannot disagree.
        totals = dict.fromkeys(
            ("serve.rejected", "serve.shed", "serve.deadline_exceeded"), 0
        )
        for metric in self.telemetry.registry.iter_metrics():
            if metric.kind == "counter" and metric.name in totals:
                totals[metric.name] += metric.value
        load = self.executor.load()
        records = self.lifecycle.listing()
        doc = {
            "state": self.state,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "workers": self.config.workers,
            "nodes": len(self.cluster.alive_node_ids()),
            "cluster": self.cluster_stats(),
            "jobs": dict(collections.Counter(r.state.value for r in records)),
            "jobs_total": len(records),
            "rejected": totals["serve.rejected"],
            "shed": totals["serve.shed"],
            "deadline_exceeded": totals["serve.deadline_exceeded"],
            "quarantine": self.lifecycle.quarantine(),
            "running": load["running"],
            "queue_depth": len(self.queue),
            "queue_by_tenant": self.queue.depth_by_tenant(),
            "reserved_bytes": load["reserved_bytes"],
            "datasets": {
                name: ds.to_dict() for name, ds in self.datasets.items()
            },
            "plan_cache_entries": len(self.plan_cache),
        }
        for section, source in (
            ("batch", self.batcher),
            ("result_cache", self.result_cache),
            ("journal", self.journal),
        ):
            if source is not None:
                doc[section] = source.stats()
        if self.watchdog is not None:
            doc["watchdog"] = dict(
                self.watchdog.state(), **self.housekeeping_state()
            )
        doc["jobs_executed"] = self.cluster.jobs_executed
        doc["latency"] = self.latency_stats()
        return doc

    def latency_stats(self):
        """Per-tenant latency summaries (the ``/stats`` latency section).

        Read from the same histograms ``/metrics`` exposes, so the two
        surfaces always agree on the distribution's sum and count.
        """
        doc = {}
        prefix = "serve.latency."
        for metric in self.telemetry.registry.iter_metrics():
            if metric.kind != "histogram" or not metric.name.startswith(prefix):
                continue
            which = metric.name[len(prefix):]
            if which.endswith("_seconds"):
                which = which[: -len("_seconds")]
            tenant = dict(metric.labels).get("tenant", "")
            doc.setdefault(tenant, {})[which] = metric.summary()
        return doc

    def job_trace(self, job_id):
        """The assembled per-job Chrome trace document, or ``None``.

        Contains the job's engine/driver spans (selected by the scoped
        tracer's ``job_id``/``run_id`` stamps — batched jobs get the
        shared run's spans plus only their own lane) and synthetic
        queue-wait/run/fan-out lifecycle spans from the record's trace
        marks.
        """
        record = self.get(job_id)
        if record is None:
            return None
        return job_trace_document(self.telemetry, record)

    def healthy(self):
        return self.state in ("serving", "draining") and bool(
            self.cluster.alive_node_ids()
        )

    def health_document(self):
        """The ``/healthz`` payload: liveness plus per-node degradation.

        ``ok`` means the service can serve at all; ``degraded`` flags
        suspect machines — a node that is down — without failing the
        probe, so orchestrators keep routing while operators get paged.
        """
        cluster_doc = self.cluster_stats()
        suspects = [n["node"] for n in cluster_doc["nodes"] if n["suspect"]]
        return {
            "ok": self.healthy(),
            "state": self.state,
            "degraded": bool(suspects),
            "suspect_nodes": suspects,
            "nodes_alive": sum(1 for n in cluster_doc["nodes"] if n["alive"]),
            "nodes_schedulable": cluster_doc["schedulable"],
            "nodes_draining": cluster_doc["draining"],
        }

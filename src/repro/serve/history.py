"""Ring-buffered health history for the job service.

A :class:`HistorySampler` snapshots the service's operational vitals
every :data:`INTERVAL_SECONDS` — queue depth (total and per tenant),
running/executing job counts, schedulable vs draining nodes,
result-cache hit ratio, rolling journal-append latency, and each
tenant's fair-share virtual time — into a bounded deque. ``GET /stats/history`` serves the retained
window and ``repro serve top`` renders it live, so an operator can see
*trends* (a queue filling up, a tenant starving, append latency
creeping toward the shed threshold) instead of one instant.

Sampling is read-only; the service's housekeeping thread drops a
sample that throws instead of letting it reach the serving path.
"""

import threading
import time
from collections import deque

#: Seconds between samples: the housekeeping thread samples on every
#: ``INTERVAL_SECONDS / serve.service.TICK_SECONDS``-th tick.
INTERVAL_SECONDS = 0.5
DEFAULT_CAPACITY = 600


class HistorySampler:
    """Samples one health snapshot per call into a bounded ring.

    :param service: the :class:`~repro.serve.service.JobService` to watch.
    :param capacity: retained samples (oldest dropped first).
    """

    def __init__(self, service, capacity=DEFAULT_CAPACITY):
        self.service = service
        self.capacity = int(capacity)
        self._samples = deque(maxlen=self.capacity)
        self._taken = 0
        self._lock = threading.Lock()

    def sample(self):
        """Take one snapshot now; returns the sample dict."""
        service = self.service
        sample = {"ts": time.time()}
        load = service.executor.load()
        sample["state"] = service.state
        sample["running"] = len(load["running"])
        sample["executing"] = load["executing"]
        sample["reserved_bytes"] = load["reserved_bytes"]
        sample["queue_depth"] = len(service.queue)
        sample["queue_by_tenant"] = service.queue.depth_by_tenant()
        virtual = service.queue.virtual_times()
        sample["virtual_time"] = virtual["global"]
        sample["virtual_time_by_tenant"] = virtual["tenants"]
        cluster = service.cluster
        sample["nodes_schedulable"] = len(cluster.schedulable_node_ids())
        sample["nodes_draining"] = len(cluster.draining_node_ids())
        sample["cache_hit_ratio"] = None
        if service.result_cache is not None:
            cache = service.result_cache.stats()
            lookups = cache["hits"] + cache["misses"]
            if lookups:
                sample["cache_hit_ratio"] = cache["hits"] / lookups
        sample["journal_append_seconds"] = (
            service.journal.avg_append_seconds()
            if service.journal is not None
            else None
        )
        with self._lock:
            self._samples.append(sample)
            self._taken += 1
        return sample

    def samples(self, last=None):
        """The retained samples, oldest first (optionally the last N >= 0)."""
        with self._lock:
            items = list(self._samples)
        if last is not None:
            items = items[-last:] if last else []
        return items

    def document(self, last=None):
        """The ``GET /stats/history`` payload."""
        with self._lock:
            taken = self._taken
            retained = len(self._samples)
        return {
            "interval_seconds": INTERVAL_SECONDS,
            "capacity": self.capacity,
            "taken": taken,
            "retained": retained,
            "samples": self.samples(last=last),
        }

    def __len__(self):
        with self._lock:
            return len(self._samples)

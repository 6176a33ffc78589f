"""Autoscaling the resident serve cluster between a min and max size.

The policy is deliberately boring (threshold + hysteresis), because the
interesting property is *not* the policy — it is that scaling is safe
and invisible: membership changes only take effect at superstep
boundaries, where running jobs hand their partitions off through the
checkpoint/restore path, so a cluster that breathed between min and max
all day produces byte-identical results to one that never moved.

* **scale up** one node per decision when the fair-share queue's backlog
  exceeds ``up_backlog`` and the schedulable node count is below
  ``max_nodes``;
* **scale down** (drain the newest schedulable node) after
  ``down_idle_ticks`` consecutive idle observations — no queued and no
  executing jobs — while above ``min_nodes``. Draining nodes keep
  serving pinned partitions until every run has handed off, then retire;
* a ``cooldown_ticks`` pause after every action damps oscillation.

The service's housekeeping thread calls :meth:`Autoscaler.tick`; tests
call it directly for determinism. Draining nodes are retired by the
cluster itself.
"""

import threading


class AutoscalePolicy:
    """Scaling thresholds; see the module docstring for semantics."""

    def __init__(self, min_nodes, max_nodes, up_backlog=2, down_idle_ticks=10,
                 cooldown_ticks=2):
        if min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if max_nodes < min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")
        self.min_nodes = int(min_nodes)
        self.max_nodes = int(max_nodes)
        self.up_backlog = int(up_backlog)
        self.down_idle_ticks = max(int(down_idle_ticks), 1)
        self.cooldown_ticks = max(int(cooldown_ticks), 0)

    @classmethod
    def parse(cls, text, **kwargs):
        """``MIN:MAX`` (the ``repro serve --autoscale`` argument)."""
        parts = str(text).split(":")
        if len(parts) != 2:
            raise ValueError("autoscale range must look like MIN:MAX, got %r" % text)
        return cls(int(parts[0]), int(parts[1]), **kwargs)

    def to_dict(self):
        return {
            "min_nodes": self.min_nodes,
            "max_nodes": self.max_nodes,
            "up_backlog": self.up_backlog,
            "down_idle_ticks": self.down_idle_ticks,
            "cooldown_ticks": self.cooldown_ticks,
        }


class Autoscaler:
    """Drives a :class:`~repro.serve.service.JobService`'s cluster size.

    :param service: the owning JobService (provides queue depth, the
        executing-job count and the cluster).
    :param policy: an :class:`AutoscalePolicy`.
    """

    def __init__(self, service, policy):
        self.service = service
        self.policy = policy
        self.scale_ups = 0
        self.scale_downs = 0
        self._idle_ticks = 0
        self._cooldown = 0
        self._lock = threading.Lock()

    def tick(self, backlog=None, executing=None):
        """One scaling decision; returns ``("up"|"down", node_id)`` or None.

        ``backlog`` and ``executing`` default to the live queue depth and
        executing-job count. Tests inject explicit observations instead
        (the same pattern as ``Watchdog.scan(now=...)``): the live reads
        race the worker threads, so a manually-ticked schedule is only
        deterministic when the tick is told what it observed.
        """
        service = self.service
        cluster = service.cluster
        if backlog is None:
            backlog = len(service.queue)
        if executing is None:
            executing = service.executor.load()["executing"]
        with self._lock:
            if self._cooldown > 0:
                self._cooldown -= 1
                return None
            schedulable = cluster.schedulable_node_ids()
            if backlog > self.policy.up_backlog and len(schedulable) < self.policy.max_nodes:
                node_id = cluster.add_node()
                self.scale_ups += 1
                self._cooldown = self.policy.cooldown_ticks
                self._idle_ticks = 0
                self._emit("up", node_id, backlog)
                return ("up", node_id)
            if backlog == 0 and executing == 0:
                self._idle_ticks += 1
                if (
                    self._idle_ticks >= self.policy.down_idle_ticks
                    and len(schedulable) > self.policy.min_nodes
                ):
                    node_id = schedulable[-1]
                    cluster.drain_node(node_id)
                    self.scale_downs += 1
                    self._cooldown = self.policy.cooldown_ticks
                    self._idle_ticks = 0
                    self._emit("down", node_id, backlog)
                    return ("down", node_id)
            else:
                self._idle_ticks = 0
        return None

    def _emit(self, direction, node_id, backlog):
        self.service.telemetry.event(
            "serve.scale",
            category="serve",
            direction=direction,
            node=node_id,
            backlog=backlog,
            schedulable=len(self.service.cluster.schedulable_node_ids()),
        )
        self.service.telemetry.registry.counter(
            "serve.scale_%s" % direction
        ).inc()

    def state(self):
        with self._lock:
            return {
                "policy": self.policy.to_dict(),
                "scale_ups": self.scale_ups,
                "scale_downs": self.scale_downs,
                "idle_ticks": self._idle_ticks,
                "cooldown": self._cooldown,
            }

"""Heartbeat-based liveness detection for the simulated cluster.

In the real system the Hyracks cluster controller learns of a dead node
controller through missed heartbeats, not by waiting for one of its
tasks to fail. :class:`HeartbeatMonitor` reproduces that: a periodic
``observe()`` sweep refreshes the last-seen time of every responsive
machine and accrues *misses* for silent ones, declaring a machine dead
once it crosses the miss threshold. Consumers (the Pregelix driver)
sweep at superstep boundaries, treating one boundary as one heartbeat
interval.
"""


class HeartbeatMonitor:
    """Missed-beat liveness detection over the simulated cluster.

    One superstep boundary is one heartbeat interval: every alive node
    "beats" (its last-seen sim time is refreshed); a node that fails to
    beat accrues misses and is declared dead after ``miss_threshold``
    of them, without waiting for one of its tasks to fail or for the
    scheduler to trip over a pinned placement. Each miss is emitted as a
    ``heartbeat.missed`` event and each declaration as ``heartbeat.dead``,
    so liveness decisions are visible in every trace.
    """

    def __init__(self, cluster, miss_threshold=1, telemetry=None):
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.cluster = cluster
        self.miss_threshold = int(miss_threshold)
        self.telemetry = (
            telemetry if telemetry is not None else getattr(cluster, "telemetry", None)
        )
        self.last_beat = {}
        self.missed = {}
        self.dead = set()

    def _now(self):
        if self.telemetry is not None:
            return self.telemetry.sim_clock.seconds
        return 0.0

    def observe(self):
        """One liveness sweep; returns nodes newly declared dead.

        Alive nodes beat and clear their miss counters (a revived node
        is welcomed back); silent nodes accrue misses until declared.
        """
        now = self._now()
        newly_dead = []
        for node_id, node in self.cluster.nodes.items():
            if node.alive:
                self.last_beat[node_id] = now
                self.missed[node_id] = 0
                self.dead.discard(node_id)
                continue
            if node_id in self.dead:
                continue
            self.missed[node_id] = self.missed.get(node_id, 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "heartbeat.missed",
                    category="failure",
                    node=node_id,
                    missed=self.missed[node_id],
                    last_beat=round(self.last_beat.get(node_id, 0.0), 6),
                )
            if self.missed[node_id] >= self.miss_threshold:
                self.dead.add(node_id)
                newly_dead.append(node_id)
                if self.telemetry is not None:
                    self.telemetry.event(
                        "heartbeat.dead",
                        category="failure",
                        node=node_id,
                        missed=self.missed[node_id],
                    )
        return newly_dead

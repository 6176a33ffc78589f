"""Heartbeat-based liveness detection for the simulated cluster.

In the real system the Hyracks cluster controller learns of a dead node
controller through missed heartbeats, not by waiting for one of its
tasks to fail. :class:`HeartbeatMonitor` reproduces that: a periodic
``observe()`` sweep refreshes the last-seen time of every responsive
machine and declares a silent one dead at its first missed beat.
Consumers (the Pregelix driver) sweep at superstep boundaries, treating
one boundary as one heartbeat interval.
"""


class HeartbeatMonitor:
    """Missed-beat liveness detection over the simulated cluster.

    One superstep boundary is one heartbeat interval: every alive node
    "beats" (its last-seen sim time is refreshed); a node that fails to
    beat is declared dead at its first miss, without waiting for one of
    its tasks to fail or for the scheduler to trip over a pinned
    placement. The miss is emitted as a ``heartbeat.missed`` event and
    the declaration as ``heartbeat.dead`` into the cluster's telemetry
    session, so liveness decisions are visible in every trace.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.telemetry = cluster.telemetry
        self.last_beat = {}
        self.dead = set()

    def observe(self):
        """One liveness sweep; returns nodes newly declared dead.

        Alive nodes beat (a revived node is welcomed back); a silent
        node is declared once.
        """
        now = self.telemetry.sim_clock.seconds
        newly_dead = []
        for node_id, node in self.cluster.nodes.items():
            if node.alive:
                self.last_beat[node_id] = now
                self.dead.discard(node_id)
                continue
            if node_id in self.dead:
                continue
            self.telemetry.event(
                "heartbeat.missed",
                category="failure",
                node=node_id,
                missed=1,
                last_beat=round(self.last_beat.get(node_id, 0.0), 6),
            )
            self.dead.add(node_id)
            newly_dead.append(node_id)
            self.telemetry.event(
                "heartbeat.dead", category="failure", node=node_id, missed=1
            )
        return newly_dead

"""The failure manager (paper Section 5.7).

Analyzes job failures: machine interruptions and I/O errors are
recoverable (the node is blacklisted and the driver replays from the
latest checkpoint); application exceptions are forwarded to the user.

Beyond the paper's binary recoverable/fatal split, :func:`failure_kind`
classifies failures three ways: transient faults (a flaky DFS write)
are distinguished from permanent-but-recoverable machine losses and from
application bugs. Transients are first absorbed in place by the
infrastructure's :class:`~repro.hdfs.retry.RetryPolicy` (seeded
exponential backoff); only exhausted ones reach this manager, and they
trigger checkpoint replay *without* blacklisting anybody — the machine
is healthy, its I/O path was flaky. A machine is lost when one of the
run's pinned locations is no longer alive (:meth:`FailureManager.lost`);
the driver asks at every superstep boundary and when a pinned plan
cannot be scheduled.
"""

from repro.hdfs.retry import failure_cause, is_transient

__all__ = ["RECOVERABLE_KINDS", "FailureManager", "failure_kind"]

#: Failure kinds the manager will try to recover from. ``transient_io``
#: reaches the recovery path only after in-place retries are exhausted.
RECOVERABLE_KINDS = ("interruption", "io", "transient_io")


def failure_kind(error):
    """``"transient"`` / ``"recoverable"`` / ``"fatal"`` for ``error``.

    Transient faults deserve in-place retry with backoff; recoverable
    ones (machine interruptions, disk I/O errors) warrant checkpoint
    replay; everything else is an application error forwarded to the
    user.
    """
    if is_transient(error):
        return "transient"
    cause = failure_cause(error)
    if cause is not None and cause.kind in RECOVERABLE_KINDS:
        return "recoverable"
    return "fatal"


class FailureManager:
    """One run's failure owner: blames lost machines (once each),
    reporting into its cluster's telemetry session, and lists the
    survivors recovery may use."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.telemetry = cluster.telemetry
        self.blacklist = set()

    def lost(self, locations):
        """The machines among ``locations`` (a pinned partition map's)
        that are no longer alive, first-pinned first, each once."""
        lost = []
        for loc in locations:
            node = self.cluster.nodes.get(loc)
            if (node is None or not node.alive) and loc not in lost:
                lost.append(loc)
        return lost

    def record(self, failure):
        """Blacklist the failed machine through :meth:`suspect`; returns
        its node id.

        Failures whose cause carries no ``node_id`` (e.g. application
        exceptions that slipped past classification) cannot blacklist a
        machine: they are logged as unattributed and ``None`` is
        returned instead of raising. Exhausted transients are likewise
        not blamed on a machine — the node is healthy, its I/O path was
        flaky — so they trigger checkpoint replay without shrinking the
        cluster.
        """
        cause = getattr(failure, "cause", None)
        node_id = getattr(cause, "node_id", None)
        if getattr(cause, "kind", None) == "transient_io":
            self.telemetry.event(
                "failure.transient_exhausted",
                category="failure",
                node=node_id,
                site=getattr(cause, "site", ""),
                error=str(failure),
            )
            return None
        if node_id is None:
            self.telemetry.event(
                "failure.unattributed",
                category="failure",
                error=str(failure),
                kind=getattr(cause, "kind", "unknown"),
            )
            return None
        self.suspect(node_id, reason=getattr(cause, "kind", "unknown"))
        return node_id

    def suspect(self, node_id, reason="heartbeat"):
        """Blacklist a machine and power it off; ``reason`` is the
        evidence — ``heartbeat`` for a pinned machine found dead at a
        superstep boundary, or the kind of a task failure :meth:`record`
        attributed to it.

        Idempotent: a machine already blacklisted is not blamed twice.
        """
        if node_id in self.blacklist:
            return
        self.blacklist.add(node_id)
        node = self.cluster.nodes.get(node_id)
        if node is not None and node.alive:
            self.cluster.kill_node(node_id)
        self.telemetry.event(
            "failure.blacklist",
            category="failure",
            node=node_id,
            kind=reason,
        )
        self.telemetry.registry.counter("pregelix.failures").inc()

    def healthy_nodes(self):
        """Alive, non-blacklisted machines available for recovery.

        Deterministically sorted so re-placed partition maps — and hence
        recovered runs — are stable across runs with identical seeds.
        """
        return sorted(
            node_id
            for node_id in self.cluster.alive_node_ids()
            if node_id not in self.blacklist
        )

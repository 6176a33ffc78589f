"""Constraint-based task placement (paper Section 4).

Hyracks lets a client attach scheduling constraints to each operator; the
scheduler is a small constraint solver that produces a placement
satisfying them. Pregelix uses *absolute* location constraints to keep the
join and group-by clones sticky on the nodes that store the corresponding
``Vertex`` partitions across all supersteps (Section 5.3.4), and *choice*
constraints to place HDFS scans near their blocks (Section 5.7).

The scheduler decides only *where* clones run; the engine runs one
stage's clones one after another in partition order (DESIGN.md §4).
"""

from repro.common.errors import SchedulingError


class PartitionConstraint:
    """Base class for operator partition constraints."""

    def solve(self, alive_nodes, preferred_nodes=None):
        """Return the node id for each partition, as a list.

        ``preferred_nodes`` (default: all of ``alive_nodes``) is the
        subset unpinned work should land on — the elastic cluster passes
        its schedulable (non-draining) nodes here. Absolute constraints
        ignore it: a pinned partition runs where its data lives even on
        a draining node (healthy-until-handoff).
        """
        raise NotImplementedError


class AbsoluteLocationConstraint(PartitionConstraint):
    """Partition ``i`` must run exactly on ``locations[i]``."""

    def __init__(self, locations):
        if not locations:
            raise SchedulingError("absolute constraint needs at least one location")
        self.locations = list(locations)

    def solve(self, alive_nodes, preferred_nodes=None):
        alive = set(alive_nodes)
        missing = [node for node in self.locations if node not in alive]
        if missing:
            raise SchedulingError(
                "absolute constraint requires dead/unknown nodes: %r" % (missing,)
            )
        return list(self.locations)


class ChoiceLocationConstraint(PartitionConstraint):
    """Partition ``i`` may run on any node in ``choices[i]``.

    The solver picks the feasible choice with the lowest load so far,
    which is how HDFS-scan clones end up next to their blocks while still
    balancing across replicas.

    :param fallback: with no alive candidate for a partition, place it
        on the least-loaded preferred node instead of failing. Loading
        plans opt in — an elastic cluster may have retired every
        datanode a split was local to, and a remote read beats a dead
        job; placements that *must* be local keep the default error.
    """

    def __init__(self, choices, fallback=False):
        if not choices:
            raise SchedulingError("choice constraint needs at least one partition")
        self.choices = [list(options) for options in choices]
        self.fallback = bool(fallback)

    def solve(self, alive_nodes, preferred_nodes=None):
        alive = set(alive_nodes)
        preferred = [
            node for node in (preferred_nodes or alive_nodes) if node in alive
        ]
        load = {node: 0 for node in alive_nodes}
        placement = []
        for index, options in enumerate(self.choices):
            feasible = [node for node in options if node in alive]
            if not feasible:
                if not (self.fallback and preferred):
                    raise SchedulingError(
                        "partition %d has no alive candidate among %r"
                        % (index, options)
                    )
                feasible = list(preferred)
            chosen = min(feasible, key=lambda node: (load[node], node))
            load[chosen] += 1
            placement.append(chosen)
        return placement


class CountConstraint(PartitionConstraint):
    """Run ``count`` partitions anywhere; the solver balances round-robin."""

    def __init__(self, count):
        if count <= 0:
            raise SchedulingError("count constraint must be positive")
        self.count = int(count)

    def solve(self, alive_nodes, preferred_nodes=None):
        nodes = list(preferred_nodes or alive_nodes)
        if not nodes:
            raise SchedulingError("no alive nodes to place a count constraint on")
        return [nodes[i % len(nodes)] for i in range(self.count)]


class Scheduler:
    """Solves the placement of every operator in a job."""

    def __init__(self, default_partitions_per_node=1):
        self.default_partitions_per_node = default_partitions_per_node

    def place(self, job_spec, alive_nodes, preferred_nodes=None):
        """Return ``{op_id: [node_id per partition]}`` for ``job_spec``.

        Operators without an explicit constraint default to one partition
        per alive node (the "as many partitions as cores" policy of the
        Pregelix scheduler, with one simulated core per node).

        :param preferred_nodes: where unpinned work should go (the
            elastic cluster's schedulable nodes); defaults to every
            alive node, and falls back to them when empty.
        """
        alive = list(alive_nodes)
        if not alive:
            raise SchedulingError("cluster has no alive nodes")
        preferred = [node for node in (preferred_nodes or ()) if node in set(alive)]
        if not preferred:
            preferred = alive
        placement = {}
        for operator in job_spec.operators:
            constraint = operator.partition_constraint
            if constraint is None:
                constraint = CountConstraint(
                    len(preferred) * self.default_partitions_per_node
                )
            placement[operator.op_id] = constraint.solve(alive, preferred)
        self._check_one_to_one_edges(job_spec, placement)
        return placement

    @staticmethod
    def _check_one_to_one_edges(job_spec, placement):
        from repro.hyracks.connectors import OneToOneConnector

        for edge in job_spec.edges:
            if isinstance(edge.connector, OneToOneConnector):
                producers = len(placement[edge.producer.op_id])
                consumers = len(placement[edge.consumer.op_id])
                if producers != consumers:
                    raise SchedulingError(
                        "one-to-one connector between %r (%d parts) and %r (%d parts)"
                        % (edge.producer, producers, edge.consumer, consumers)
                    )

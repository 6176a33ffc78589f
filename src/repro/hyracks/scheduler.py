"""Constraint-based task placement and task execution (paper Section 4).

Hyracks lets a client attach scheduling constraints to each operator; the
scheduler is a small constraint solver that produces a placement
satisfying them. Pregelix uses *absolute* location constraints to keep the
join and group-by clones sticky on the nodes that store the corresponding
``Vertex`` partitions across all supersteps (Section 5.3.4), and *choice*
constraints to place HDFS scans near their blocks (Section 5.7).

Besides *where* clones run, this module also decides *how* they run: a
:class:`TaskRunner` executes the per-partition clones of one operator.
:class:`SequentialTaskRunner` preserves the historical single-threaded
order; :class:`ThreadPoolTaskRunner` runs clones concurrently on a
persistent worker pool — the simulated counterpart of Hyracks running one
task per core per node. Both return results in partition order, so the
engine's merge points see inputs ordered by partition id regardless of
completion order (the determinism invariant DESIGN.md §13 relies on).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.common.errors import SchedulingError


class TaskOutcome:
    """What running one clone produced: a value or the error it raised."""

    __slots__ = ("partition", "value", "error")

    def __init__(self, partition, value=None, error=None):
        self.partition = partition
        self.value = value
        self.error = error

    @property
    def failed(self):
        return self.error is not None


class TaskRunner:
    """Executes one operator's partition clones; see subclasses."""

    #: How many clones can make progress at once.
    concurrency = 1

    def map(self, tasks):
        """Run every callable in ``tasks``; return a list of
        :class:`TaskOutcome` in task (= partition) order.

        Errors are captured per task, never raised here: the engine
        decides which failure wins (the lowest partition id, matching
        the sequential engine's first-failure semantics).
        """
        raise NotImplementedError

    def close(self):
        """Release worker threads (no-op for sequential runners)."""


class SequentialTaskRunner(TaskRunner):
    """Runs clones one after another on the calling thread.

    Matches the pre-parallel engine exactly: a failing clone stops the
    operator, and clones for later partitions never run.
    """

    def map(self, tasks):
        outcomes = []
        for partition, task in enumerate(tasks):
            try:
                outcomes.append(TaskOutcome(partition, value=task()))
            except Exception as error:  # captured, classified by the engine
                outcomes.append(TaskOutcome(partition, error=error))
                break
        return outcomes


class ThreadPoolTaskRunner(TaskRunner):
    """Runs clones concurrently on a persistent thread pool.

    :param num_threads: pool size ("cores" of the simulated cluster).
    :param telemetry: optional :class:`~repro.telemetry.Telemetry`; worker
        threads register a stable ``hyx-worker-N`` name with its tracer so
        Chrome traces label the per-thread rows.

    Unlike the sequential runner, every submitted clone runs to
    completion even when a sibling fails — a real cluster's tasks do not
    observe each other's failures mid-flight either; the engine raises
    the lowest-partition failure once all clones settled.
    """

    def __init__(self, num_threads, telemetry=None):
        if num_threads < 1:
            raise SchedulingError("thread pool needs at least one thread")
        self.concurrency = int(num_threads)
        self.telemetry = telemetry
        self._executor = ThreadPoolExecutor(
            max_workers=self.concurrency,
            thread_name_prefix="hyx-worker",
            initializer=self._register_worker,
        )

    def _register_worker(self):
        if self.telemetry is not None:
            self.telemetry.tracer.register_thread(threading.current_thread().name)

    def map(self, tasks):
        # Carry the submitting thread's tracer context (job_id/run_id
        # correlation args) into the workers, so spans recorded by
        # parallel clones are attributable to the job that spawned them.
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        context = tracer.current_context() if tracer is not None else None

        def guarded(partition, task):
            try:
                if context:
                    with tracer.context(**context):
                        return TaskOutcome(partition, value=task())
                return TaskOutcome(partition, value=task())
            except Exception as error:
                return TaskOutcome(partition, error=error)

        futures = [
            self._executor.submit(guarded, partition, task)
            for partition, task in enumerate(tasks)
        ]
        return [future.result() for future in futures]

    def close(self):
        self._executor.shutdown(wait=True)


def make_task_runner(parallelism, telemetry=None):
    """A runner for ``parallelism`` concurrent clones (1 = sequential)."""
    if parallelism is None or int(parallelism) <= 1:
        return SequentialTaskRunner()
    return ThreadPoolTaskRunner(int(parallelism), telemetry=telemetry)


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

"""The simulated Hyracks cluster: node contexts and job execution.

A :class:`HyracksCluster` owns a set of worker :class:`NodeContext`\\ s —
each with a private memory budget, file manager, and buffer cache — plus
a master-side scheduler. :meth:`HyracksCluster.execute` runs a
:class:`~repro.hyracks.job.JobSpec`: operators execute in topological
order, one clone per partition, with connectors redistributing tuples in
between; every clone sees only its own node's local services and storage,
preserving the shared-nothing discipline.

Substitution note (see DESIGN.md): clones run in one Python process
rather than as JVM tasks on separate machines. All byte-level behaviour —
budgets, spills, network volume — is accounted per node, so
dataset-size-versus-RAM phenomena survive the substitution; wall-clock
numbers are simulation-scale. An operator's clones run one after another
on the calling thread, in partition order; each splits and accounts its
own output per outgoing connector, and consumers assemble their input
from the per-sender lists in partition-id order (DESIGN.md §13). The
only concurrency is between whole jobs: the serving tier runs several
``execute`` calls at once against the shared nodes.
"""

import collections
import os
import tempfile
import threading
import time

from repro.common.accounting import Counters, IOCounters, MemoryBudget
from repro.common.errors import JobFailure, SchedulingError, WorkerFailure
from repro.hyracks.scheduler import Scheduler
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.telemetry import Telemetry

#: Default per-node RAM budget: 64 MB of simulated worker memory.
DEFAULT_NODE_MEMORY = 64 << 20
#: Default buffer-cache share of node memory (the paper uses RAM/4).
DEFAULT_CACHE_FRACTION = 0.25
DEFAULT_PAGE_SIZE = 4096


class NodeContext:
    """One shared-nothing worker: budget, local disk, cache, services."""

    def __init__(self, node_id, root_dir, memory_bytes, cache_bytes, page_size,
                 telemetry=None):
        self.node_id = node_id
        self.telemetry = telemetry
        self.io = IOCounters()  # this node's disk traffic
        self.files = FileManager(os.path.join(root_dir, str(node_id)), self.io)
        self.budget = MemoryBudget(memory_bytes, name=str(node_id))
        self.buffer_cache = BufferCache(
            cache_bytes, page_size, self.files, telemetry=telemetry, node_id=node_id
        )
        if telemetry is not None:
            # The two resident holders are exported by reference: the
            # registry reads them, nothing is counted twice.
            expose, stats = telemetry.registry.expose, self.buffer_cache.stats
            for field in IOCounters.DISK_FIELDS:
                expose("node.io.%s" % field, self.io, field, node=node_id)
            for field in stats.FIELDS:
                expose("storage.cache.%s" % field, stats, field, node=node_id)
        self.services = {}
        self.alive = True
        #: Draining nodes stay alive and keep serving their pinned
        #: partitions ("healthy-until-handoff") but receive no *new*
        #: placements; the cluster retires them once nothing references
        #: them. Both fields are guarded by the cluster's membership lock.
        self.draining = False
        self.inflight = 0
        self.fault_injector = None

    def check_failure(self):
        """A clone placed on a powered-off machine fails before it runs."""
        if not self.alive:
            raise WorkerFailure(self.node_id)

    def reset_storage(self):
        """Wipe local state (what losing a machine loses): the registry,
        every handle and file under the node's directory, the cache.

        The cache's counters are history, not state: they carry over, so
        an exported count never goes backwards.
        """
        self.services.clear()
        self.files.wipe()
        old = self.buffer_cache
        self.buffer_cache = BufferCache(
            old.capacity, old.page_size, self.files,
            telemetry=self.telemetry, node_id=self.node_id,
        )
        self.buffer_cache.stats = old.stats
        self.buffer_cache.fault_injector = old.fault_injector
        self.budget.reset()


class TaskContext:
    """What one operator clone sees while running."""

    __slots__ = ("node", "job", "partition", "num_partitions")

    @property
    def telemetry(self):
        return self.job.telemetry

    def __init__(self, node, job, partition, num_partitions):
        self.node = node
        self.job = job
        self.partition = partition
        self.num_partitions = num_partitions

    @property
    def files(self):
        return self.node.files

    @property
    def budget(self):
        return self.node.budget

    @property
    def buffer_cache(self):
        return self.node.buffer_cache

    @property
    def services(self):
        return self.node.services

    @property
    def io(self):
        return self.node.io

    @property
    def fault_injector(self):
        return self.node.fault_injector


class JobContext:
    """Master-side per-job state shared by connectors and sinks."""

    def __init__(self, name, telemetry=None):
        self.name = name
        self.telemetry = telemetry
        self.io = IOCounters()  # network traffic (connector accounting)
        self.counters = Counters()
        self.collected = {}


class JobResult:
    """What :meth:`HyracksCluster.execute` returns."""

    def __init__(self, name, collected, counters, network_io, disk_io, elapsed, operator_seconds, cache_misses=0, cache_writebacks=0):
        self.name = name
        self.collected = collected
        self.counters = counters
        self.network_io = network_io
        self.disk_io = disk_io
        self.elapsed = elapsed
        self.operator_seconds = operator_seconds
        self.cache_misses = cache_misses
        self.cache_writebacks = cache_writebacks

    def gather(self, key):
        """Concatenate a CollectSink's per-partition output lists."""
        merged = []
        for partition in sorted(self.collected.get(key, {})):
            merged.extend(self.collected[key][partition])
        return merged

    def __repr__(self):
        return "JobResult(%s, %.3fs)" % (self.name, self.elapsed)


class HyracksCluster:
    """A simulated shared-nothing cluster executing operator DAG jobs.

    :param num_nodes: worker count ("machines" on the figures' x-axes).
    :param node_memory_bytes: per-worker simulated RAM budget.
    :param buffer_cache_bytes: per-worker cache budget; defaults to a
        quarter of node memory, the paper's default.
    :param partitions_per_node: data partitions per worker (the paper
        assigns one per core).
    :param parallelism: must be 1 and ``io_latency_scale`` must be 0:
        clones run one after another on the calling thread and simulated
        transfers never sleep. Both are accepted only so that callers
        still passing those values keep working.
    :param virtual_partitions: fix the cluster's data-partition count
        independently of its (elastic) node count. With it set, every
        run keeps the same ``hash(vid) % num_partitions`` function no
        matter how many nodes join or drain, so results are byte-stable
        across scaling; partitions are merely re-assigned round-robin
        over the schedulable nodes at superstep boundaries.
    """

    def __init__(
        self,
        num_nodes=4,
        node_memory_bytes=DEFAULT_NODE_MEMORY,
        buffer_cache_bytes=None,
        page_size=DEFAULT_PAGE_SIZE,
        root_dir=None,
        partitions_per_node=1,
        telemetry=None,
        parallelism=1,
        io_latency_scale=0.0,
        virtual_partitions=None,
    ):
        if parallelism != 1 or io_latency_scale:
            raise ValueError(
                "clones run one after another without simulated sleeps: "
                "parallelism must be 1 and io_latency_scale 0, got %r and %r"
                % (parallelism, io_latency_scale)
            )
        if buffer_cache_bytes is None:
            buffer_cache_bytes = int(node_memory_bytes * DEFAULT_CACHE_FRACTION)
        self.root_dir = root_dir or tempfile.mkdtemp(prefix="repro-hyracks-")
        self._owns_root = root_dir is None
        self.node_memory_bytes = int(node_memory_bytes)
        self.buffer_cache_bytes = int(buffer_cache_bytes)
        self.page_size = int(page_size)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.nodes = collections.OrderedDict()
        for i in range(num_nodes):
            node_id = "node%d" % i
            self.nodes[node_id] = NodeContext(
                node_id,
                self.root_dir,
                node_memory_bytes,
                buffer_cache_bytes,
                page_size,
                telemetry=self.telemetry,
            )
        self.scheduler = Scheduler(partitions_per_node)
        self.jobs_executed = 0
        # Concurrent execute() calls (repro.serve runs whole jobs in
        # parallel) make the counter bump a read-modify-write.
        self._jobs_executed_lock = threading.Lock()
        #: Optional chaos hook (see repro.chaos.faults.FaultInjector).
        self.fault_injector = None
        self.virtual_partitions = (
            int(virtual_partitions) if virtual_partitions else None
        )
        # Elastic membership state. The membership lock serializes
        # add/drain/retire against placement (execute) and the per-run
        # partition-map pins registered by drivers; an RLock because
        # scale_to -> add_node/drain_node nest.
        self._membership_lock = threading.RLock()
        self._node_seq = num_nodes
        self._placements = {}  # run_id -> tuple of pinned node ids
        self.membership_epoch = 0
        self.retired_nodes = []

    # ------------------------------------------------------------------
    # cluster membership
    # ------------------------------------------------------------------
    def node_ids(self):
        return list(self.nodes)

    def alive_node_ids(self):
        return [node_id for node_id, node in self.nodes.items() if node.alive]

    def schedulable_node_ids(self):
        """Alive nodes that may receive *new* work (excludes draining)."""
        return [
            node_id
            for node_id, node in self.nodes.items()
            if node.alive and not node.draining
        ]

    def draining_node_ids(self):
        return [
            node_id
            for node_id, node in self.nodes.items()
            if node.alive and node.draining
        ]

    def kill_node(self, node_id):
        """Simulate a machine loss: mark dead and wipe its local state."""
        node = self.nodes[node_id]
        node.alive = False
        node.reset_storage()

    def revive_node(self, node_id):
        self.nodes[node_id].alive = True

    @property
    def num_partitions(self):
        if self.virtual_partitions:
            return self.virtual_partitions
        return len(self.alive_node_ids()) * self.scheduler.default_partitions_per_node

    def aggregate_memory_bytes(self):
        """Aggregated RAM of alive workers (the figures' denominator)."""
        return self.node_memory_bytes * len(self.alive_node_ids())

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def add_node(self, node_id=None):
        """Join a fresh worker; schedulable immediately, but partition
        maps only move onto it at the next superstep boundary (drivers
        rebalance there). Returns the new node's id."""
        with self._membership_lock:
            if node_id is None:
                node_id = "node%d" % self._node_seq
                self._node_seq += 1
            if node_id in self.nodes:
                raise ValueError("node %r already exists" % node_id)
            node = NodeContext(
                node_id,
                self.root_dir,
                self.node_memory_bytes,
                self.buffer_cache_bytes,
                self.page_size,
                telemetry=self.telemetry,
            )
            # A chaos injector armed before the node joined must see it.
            node.fault_injector = self.fault_injector
            node.buffer_cache.fault_injector = self.fault_injector
            self.nodes[node_id] = node
            self.membership_epoch += 1
        self.telemetry.event(
            "cluster.scale", category="cluster", action="add", node=node_id
        )
        return node_id

    def drain_node(self, node_id):
        """Begin removing a worker: no new placements land on it, but it
        keeps serving partitions pinned to it until every run has handed
        off (rebalanced away or finished) — then it is retired."""
        with self._membership_lock:
            node = self.nodes[node_id]
            if not node.draining:
                node.draining = True
                self.membership_epoch += 1
        self.telemetry.event(
            "cluster.scale", category="cluster", action="drain", node=node_id
        )
        self.reap_draining_nodes()
        return node_id

    def scale_to(self, target):
        """Make the schedulable node count ``target``: add fresh nodes or
        drain the newest schedulable ones. Returns (added, draining)."""
        target = int(target)
        if target < 1:
            raise ValueError("cannot scale below one node")
        added, draining = [], []
        with self._membership_lock:
            schedulable = self.schedulable_node_ids()
            for _ in range(target - len(schedulable)):
                added.append(self.add_node())
            excess = len(schedulable) - target
            if excess > 0:
                for node_id in list(reversed(schedulable))[:excess]:
                    draining.append(self.drain_node(node_id))
        return added, draining

    def register_placement(self, run_id, locations):
        """Pin a run's partition map: the named nodes cannot retire while
        the pin is held. Raises SchedulingError if a location is gone
        (the caller rebuilds its map and retries)."""
        with self._membership_lock:
            missing = [loc for loc in set(locations) if loc not in self.nodes]
            if missing:
                raise SchedulingError(
                    "cannot pin partition map to retired node(s): %r" % (missing,)
                )
            self._placements[run_id] = tuple(locations)
        self.reap_draining_nodes()

    def release_placement(self, run_id):
        with self._membership_lock:
            self._placements.pop(run_id, None)
        self.reap_draining_nodes()

    def reap_draining_nodes(self):
        """Retire draining nodes no placement pins and no job is using.

        Retirement removes the node from the cluster, wipes its local
        storage, and closes its file handles; returns the retired ids.
        """
        retired = []
        with self._membership_lock:
            pinned = set()
            for locations in self._placements.values():
                pinned.update(locations)
            for node_id, node in list(self.nodes.items()):
                if not node.draining or node_id in pinned or node.inflight > 0:
                    continue
                del self.nodes[node_id]
                retired.append((node_id, node))
            if retired:
                self.membership_epoch += 1
                self.retired_nodes.extend(node_id for node_id, _ in retired)
        for node_id, node in retired:
            node.alive = False
            node.reset_storage()
            self.telemetry.event(
                "cluster.scale", category="cluster", action="retire", node=node_id
            )
        return [node_id for node_id, _ in retired]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, job_spec):
        """Run ``job_spec`` to completion and return a :class:`JobResult`."""
        started = time.perf_counter()
        # Placement and the in-flight bump are atomic with membership
        # changes: a draining node a plan lands on cannot retire under
        # the running job, and unpinned (count/choice) placements prefer
        # schedulable nodes so drains converge.
        with self._membership_lock:
            placement = self.scheduler.place(
                job_spec,
                self.alive_node_ids(),
                preferred_nodes=self.schedulable_node_ids(),
            )
            used_nodes = set()
            for locations in placement.values():
                used_nodes.update(locations)
            for node_id in used_nodes:
                self.nodes[node_id].inflight += 1
        try:
            return self._execute_placed(job_spec, placement, used_nodes, started)
        finally:
            with self._membership_lock:
                for node_id in used_nodes:
                    node = self.nodes.get(node_id)
                    if node is not None:
                        node.inflight -= 1
            self.reap_draining_nodes()

    def _execute_placed(self, job_spec, placement, used_nodes, started):
        job_ctx = JobContext(job_spec.name, telemetry=self.telemetry)
        # Only the job's own nodes: they hold ``inflight > 0`` so they
        # cannot retire mid-job, while any other node may be reaped (and
        # vanish from ``self.nodes``) between the two snapshots.
        job_nodes = [self.nodes[node_id] for node_id in used_nodes]
        before = self._node_totals(job_nodes)
        operator_seconds = {}
        # edge -> staged[consumer][sender] tuple lists, from the moment
        # the producer's clones returned until the consumer assembles.
        staged = {}
        with self.telemetry.span("job:%s" % job_spec.name, category="job"):
            for operator in job_spec.topological_order():
                locations = placement[operator.op_id]
                num_partitions = len(locations)
                routed_inputs = [
                    edge.connector.assemble(staged.pop(edge))
                    for edge in job_spec.inputs_of(operator)
                ]
                out_edges = [
                    (edge, len(placement[edge.consumer.op_id]))
                    for edge in job_spec.outputs_of(operator)
                ]
                operator.initialize(job_ctx)
                injector = self.fault_injector
                spent, sent = 0.0, []
                # Partition order: each consumer's sender lists are in
                # partition-id order, and the first failing clone stops
                # the operator (later partitions never start).
                for partition, node_id in enumerate(locations):
                    try:
                        seconds, per_edge = self._run_clone(
                            operator,
                            partition,
                            self.nodes[node_id],
                            num_partitions,
                            [routed[partition] for routed in routed_inputs],
                            out_edges,
                            job_ctx,
                            injector,
                        )
                    except WorkerFailure as error:
                        self.telemetry.event(
                            "node.failure",
                            category="failure",
                            node=node_id,
                            kind=error.kind,
                            operator=operator.name,
                        )
                        raise JobFailure(str(error), cause=error) from error
                    spent += seconds
                    sent.append(per_edge)
                operator.finalize(job_ctx)
                operator_seconds[operator.name] = (
                    operator_seconds.get(operator.name, 0.0) + spent
                )
                for index, (edge, num_consumers) in enumerate(out_edges):
                    staged[edge] = [
                        [per_edge[index][dest] for per_edge in sent]
                        for dest in range(num_consumers)
                    ]
        with self._jobs_executed_lock:
            self.jobs_executed += 1
        # The job's own totals go to the registry once, from its private
        # holders: overlapping jobs on shared nodes cannot double-count.
        registry = self.telemetry.registry
        registry.counter("engine.jobs_executed").inc()
        for field, amount in job_ctx.io.snapshot().items():
            registry.counter("engine.network.%s" % field).inc(amount)
        for name, amount in job_ctx.counters.snapshot().items():
            if amount:
                registry.counter("engine.counters.%s" % name).inc(amount)
        # Disk and cache use is what the job's nodes did meanwhile.
        used = self._node_totals(job_nodes)
        used.subtract(before)
        disk_io = IOCounters()
        for field in IOCounters.DISK_FIELDS:
            setattr(disk_io, field, used[field])
        return JobResult(
            name=job_spec.name,
            collected=job_ctx.collected,
            counters=job_ctx.counters,
            network_io=job_ctx.io,
            disk_io=disk_io,
            elapsed=time.perf_counter() - started,
            operator_seconds=operator_seconds,
            cache_misses=used["misses"],
            cache_writebacks=used["writebacks"],
        )

    def _run_clone(self, operator, partition, node, num_partitions,
                   clone_inputs, out_edges, job_ctx, injector):
        """Run one partition clone.

        Dead-node check, injector probes at open/next/close, a task span
        around ``run``; then the clone splits its port outputs across
        each outgoing edge's consumers and accounts what it ships.
        Returns ``(run seconds, [per-consumer lists of out_edges[i]])``.
        """
        clone_started = time.perf_counter()
        ctx = TaskContext(node, job_ctx, partition, num_partitions)
        node.check_failure()
        if injector is not None:
            injector.check(
                "operator.open",
                node=node.node_id,
                operator=operator.name,
                partition=partition,
            )
        with self.telemetry.span(
            operator.name,
            category="task",
            partition=partition,
            node=node.node_id,
        ):
            result = operator.run(ctx, partition, clone_inputs) or {}
        if injector is not None:
            # "next": output produced, not yet handed on — a fault
            # here loses the clone's work exactly like a crash
            # mid-stream would.
            injector.check(
                "operator.next",
                node=node.node_id,
                operator=operator.name,
                partition=partition,
                tuples=sum(len(t) for t in result.values()),
            )
        elapsed = time.perf_counter() - clone_started
        sent = []
        for edge, num_consumers in out_edges:
            per_dest = edge.connector.split(
                partition, result.get(edge.port, []), num_consumers
            )
            for dest, tuples in enumerate(per_dest):
                edge.connector._account(job_ctx, partition, dest, tuples)
            sent.append(per_dest)
        if injector is not None:
            injector.check(
                "operator.close",
                node=node.node_id,
                operator=operator.name,
                partition=partition,
            )
        return elapsed, sent

    @staticmethod
    def _node_totals(nodes):
        """Disk and cache counts summed over ``nodes``, as one flat Counter."""
        totals = collections.Counter()
        for node in nodes:
            totals.update(node.io.snapshot())
            totals.update(node.buffer_cache.stats.snapshot())
        return totals

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self):
        import shutil

        for node in self.nodes.values():
            node.files.close()
        if self._owns_root:
            shutil.rmtree(self.root_dir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

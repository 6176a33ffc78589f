"""The simulated Hyracks cluster: node contexts and job execution.

A :class:`HyracksCluster` owns a set of worker :class:`NodeContext`\\ s —
each with a private memory budget, file manager, and buffer cache — plus
a master-side scheduler and the :class:`~repro.hdfs.MiniDFS` its jobs
read from and write to. :meth:`HyracksCluster.execute` runs a
:class:`~repro.hyracks.job.JobSpec` as stages: the operators one-to-one
connectors join run back to back in one clone per partition, and the
other connectors redistribute tuples between stages; every clone sees
only its own node's local services and storage, preserving the
shared-nothing discipline.

Substitution note (see DESIGN.md): clones run in one Python process
rather than as JVM tasks on separate machines. All byte-level behaviour —
budgets, spills, network volume — is accounted per node, so
dataset-size-versus-RAM phenomena survive the substitution; wall-clock
numbers are simulation-scale. A stage's clones run one after another
on the calling thread, in partition order; each splits and accounts its
output per connector that leaves the stage, and consumers assemble their
input from the per-sender lists in partition-id order (DESIGN.md §4).
The only concurrency is between whole jobs: the serving tier runs
several ``execute`` calls at once against the shared nodes.
"""

import collections
import contextlib
import os
import tempfile
import threading
import time

from repro.chaos.faults import FaultInjector
from repro.common.accounting import Counters, IOCounters, MemoryBudget
from repro.common.errors import JobFailure, SchedulingError, WorkerFailure
from repro.hdfs import MiniDFS
from repro.hyracks.scheduler import Scheduler
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.telemetry import Telemetry

#: Default per-node RAM budget: 64 MB of simulated worker memory.
DEFAULT_NODE_MEMORY = 64 << 20
#: Default buffer-cache share of node memory (the paper uses RAM/4).
DEFAULT_CACHE_FRACTION = 0.25
DEFAULT_PAGE_SIZE = 4096
#: What a stage clone runs under when its session keeps no task spans.
_NO_SPAN = contextlib.nullcontext()


class NodeContext:
    """One shared-nothing worker: budget, local disk, cache, services."""

    def __init__(self, node_id, root_dir, memory_bytes, cache_bytes, page_size,
                 telemetry, fault_injector):
        self.node_id = node_id
        self.telemetry = telemetry
        self.fault_injector = fault_injector
        self.io = IOCounters()  # this node's disk traffic
        self.files = FileManager(os.path.join(root_dir, str(node_id)), self.io)
        self.budget = MemoryBudget(memory_bytes, name=str(node_id))
        self.buffer_cache = BufferCache(
            cache_bytes, page_size, self.files, telemetry=telemetry,
            node_id=node_id, fault_injector=fault_injector,
        )
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
            fault_injector=self.fault_injector,
        )
        self.buffer_cache.stats = old.stats
        self.budget.reset()


class TaskContext:
    """What the operators of one stage clone see while running."""

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
    """Master-side per-job state shared by connectors and sinks.

    ``telemetry`` is the executing cluster's session; a context built
    standalone records into a private disabled one.
    """

    def __init__(self, name, telemetry=None):
        self.name = name
        self.telemetry = telemetry or Telemetry(enabled=False)
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
        self.telemetry = telemetry or Telemetry()
        #: The one chaos hook every node, cache and service host of this
        #: cluster consults; unarmed until ``fault_injector.arm(plan)``.
        self.fault_injector = FaultInjector(self)
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
                fault_injector=self.fault_injector,
            )
        #: Blocks spread over the starting nodes; every write checks the injector.
        self.dfs = MiniDFS(self.node_ids(), fault_injector=self.fault_injector)
        self.scheduler = Scheduler(partitions_per_node)
        self.jobs_executed = 0
        # Concurrent execute() calls (repro.serve runs whole jobs in
        # parallel) make the counter bump a read-modify-write.
        self._jobs_executed_lock = threading.Lock()
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
                fault_injector=self.fault_injector,
            )
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
        # boundary edge -> staged[consumer][sender] tuple lists, from the
        # moment the producer's stage returned until the consumer's
        # stage assembles them.
        staged = {}
        with self.telemetry.span("job:%s" % job_spec.name, category="job"):
            for stage in job_spec.stages(placement):
                self._run_stage(stage, staged, job_ctx, operator_seconds)
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
        disk_io = IOCounters()
        (
            disk_io.disk_reads, disk_io.disk_writes, disk_io.disk_read_bytes,
            disk_io.disk_write_bytes, cache_misses, cache_writebacks,
        ) = [
            after - prior
            for after, prior in zip(self._node_totals(job_nodes), before)
        ]
        return JobResult(
            name=job_spec.name,
            collected=job_ctx.collected,
            counters=job_ctx.counters,
            network_io=job_ctx.io,
            disk_io=disk_io,
            elapsed=time.perf_counter() - started,
            operator_seconds=operator_seconds,
            cache_misses=cache_misses,
            cache_writebacks=cache_writebacks,
        )

    def _run_stage(self, stage, staged, job_ctx, operator_seconds):
        """Run one clone of ``stage`` per partition, in partition order.

        A clone runs the stage's operators back to back, handing each
        internal edge's list straight to its consumer; the first failing
        clone stops the stage. An edge leaving the stage is split per
        sender into ``staged``. Each operator's seconds go to
        ``operator_seconds``; a clone opens a task span only in a session
        that asks for them (``Telemetry.task_spans``).
        """
        operators = stage.operators
        task_spans = self.telemetry.task_spans
        routed = {
            edge: edge.connector.assemble(staged.pop(edge)) for edge in stage.entering
        }
        sent = {edge: [] for edge in stage.leaving}
        seconds = [0.0] * len(operators)
        for operator in operators:
            operator.initialize(job_ctx)
        for partition, node_id in enumerate(stage.locations):
            ctx = TaskContext(
                self.nodes[node_id], job_ctx, partition, len(stage.locations)
            )
            piped = {}  # internal edge -> its list, until its consumer runs
            timings = {} if task_spans else None  # seconds per operator name
            span = self.telemetry.span(
                stage.name, category="task", partition=partition, node=node_id,
                operators=timings,
            ) if task_spans else _NO_SPAN
            with span:
                try:
                    for index, operator in enumerate(operators):
                        inputs = [
                            piped.pop(edge) if edge in piped else routed[edge][partition]
                            for edge in stage.inputs[index]
                        ]
                        spent = self._run_operator(stage, index, ctx, inputs, piped, sent)
                        seconds[index] += spent
                        if task_spans:
                            timings[operator.name] = timings.get(operator.name, 0.0) + spent
                except WorkerFailure as error:
                    self.telemetry.event(
                        "node.failure",
                        category="failure",
                        node=node_id,
                        kind=error.kind,
                        operator=operator.name,
                    )
                    raise JobFailure(str(error), cause=error) from error
        for operator, spent in zip(operators, seconds):
            operator.finalize(job_ctx)
            operator_seconds[operator.name] = (
                operator_seconds.get(operator.name, 0.0) + spent
            )
        for edge, per_sender in sent.items():
            staged[edge] = [list(per_consumer) for per_consumer in zip(*per_sender)]

    def _run_operator(self, stage, index, ctx, inputs, piped, sent):
        """Run operator ``index`` of a stage clone; return its seconds.

        Dead-node check and injector probes at open/next/close around
        ``run``. Each internal edge gets its own list in ``piped`` (a port
        feeding several gets copies); an edge leaving the stage is split
        across its consumers, each part accounted, into ``sent``.
        """
        started = time.perf_counter()
        operator, node, partition = stage.operators[index], ctx.node, ctx.partition
        name, node_id, check = operator.name, node.node_id, self.fault_injector.check
        node.check_failure()
        check("operator.open", node=node_id, operator=name, partition=partition)
        result = operator.run(ctx, partition, inputs) or {}
        # "next": output produced, not yet handed on — a fault here
        # loses the clone's work exactly like a crash mid-stream would.
        check(
            "operator.next", node=node_id, operator=name, partition=partition,
            tuples=sum(map(len, result.values())),
        )
        elapsed = time.perf_counter() - started
        handed = set()
        for edge in stage.outputs[index]:
            tuples = result.get(edge.port, [])
            if edge in sent:
                per_dest = edge.connector.split(partition, tuples, stage.leaving[edge])
                for dest, part in enumerate(per_dest):
                    edge.connector._account(ctx.job, partition, dest, part)
                sent[edge].append(per_dest)
            else:
                piped[edge] = list(tuples) if edge.port in handed else tuples
                handed.add(edge.port)
        check("operator.close", node=node_id, operator=name, partition=partition)
        return elapsed

    @staticmethod
    def _node_totals(nodes):
        """Disk reads, writes, read bytes, write bytes, cache misses and
        cache writebacks, each summed over ``nodes``."""
        reads = writes = read_bytes = write_bytes = misses = writebacks = 0
        for node in nodes:
            io, cache = node.io, node.buffer_cache.stats
            reads += io.disk_reads
            writes += io.disk_writes
            read_bytes += io.disk_read_bytes
            write_bytes += io.disk_write_bytes
            misses += cache.misses
            writebacks += cache.writebacks
        return reads, writes, read_bytes, write_bytes, misses, writebacks

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

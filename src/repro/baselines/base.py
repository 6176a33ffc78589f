"""The one BSP loop every process-centric comparison system runs.

The engines run the *same* user vertex programs (the
:class:`repro.pregelix.api.Vertex` subclasses) with full Pregel
semantics — combiners, global aggregators, halting, reactivation, graph
mutations — so their outputs are comparable with Pregelix's.
:meth:`ProcessCentricBase.run` is that loop, once; an engine is the
hooks where the systems really differ (DESIGN.md §9): what holding a
vertex charges, how a worker's vertices meet their incoming messages,
what a send and the barrier charge and release, and the per-superstep
``(cpu, disk, net)`` work. That is where the paper's failure thresholds
and speed differences come from.

Memory accounting uses serialized sizes times an object-overhead factor:
a JVM heap holding a parsed vertex spends several times its serialized
footprint on object headers, boxed fields, and collection internals
(the paper cites the bloat-aware-design work [14] on exactly this). The
Pregelix engine never pays this factor because its operators work on
serialized records behind a buffer cache.
"""

import time
from dataclasses import dataclass, field

from repro.common import costmodel
from repro.common.accounting import MemoryBudget
from repro.common.errors import ReproError
from repro.graphs.io import parse_adjacency_line, read_graph_from_dfs

#: Heap bloat of JVM object graphs relative to serialized bytes: 3x on
#: our packed records lands at ~6x the on-disk text size — the in-memory
#: footprint at which the paper's Giraph stops fitting (it fails once
#: dataset/RAM exceeds ~0.15).
JVM_OBJECT_OVERHEAD = 2.8
#: Heap bloat of C++ in-memory structures (GraphLab).
NATIVE_OBJECT_OVERHEAD = 2.3


@dataclass
class BaselineOutcome:
    """What a baseline engine reports for one run.

    ``load_cost`` and ``superstep_costs`` carry ``(cpu, disk, network)``
    simulated-second components (see :mod:`repro.common.costmodel`) at
    simulation scale; the benchmark harness rescales them to paper scale
    (:func:`repro.bench.harness.fold_costs`). ``*_seconds`` fields are
    raw Python wall-clock, kept for tests.
    """

    engine: str
    supersteps: int
    load_seconds: float
    superstep_seconds: list = field(default_factory=list)
    vertices: dict = field(default_factory=dict)  # vid -> final value
    aggregate: object = None
    peak_memory_bytes: int = 0
    load_cost: tuple = (0.0, 0.0, 0.0)
    superstep_costs: list = field(default_factory=list)

    @property
    def total_seconds(self):
        return self.load_seconds + sum(self.superstep_seconds)

    @property
    def avg_iteration_seconds(self):
        if not self.superstep_seconds:
            return 0.0
        return sum(self.superstep_seconds) / len(self.superstep_seconds)


class BoundVertexState:
    """The mutable per-vertex state a process-centric worker holds."""

    __slots__ = ("vid", "value", "edges", "halted")

    def __init__(self, vid, value, edges, halted=False):
        self.vid = vid
        self.value = value
        self.edges = list(edges)
        self.halted = halted

    def row(self):
        """The value a job's vertex codec serializes (the vid is the key)."""
        return (self.halted, self.value, [tuple(e) for e in self.edges])


def message_serialized_size(job, payload):
    return 8 + job.msg_serde.sizeof(payload)


class ProcessCentricBase:
    """The BSP loop, budgets, and the simplest message store.

    Subclasses say what holding a vertex charges (:meth:`charge_vertex`)
    and what a superstep's work costs (:meth:`work`); the message store
    here — one global inbox of raw payloads, combined at the receiver —
    is the one GraphLab and GraphX use, and Giraph and Hama replace
    (:meth:`begin_superstep`, :meth:`deliveries`, :meth:`send`,
    :meth:`barrier`). An engine instance runs one job.
    """

    name = "process-centric"
    #: The side structure built once at load that cannot follow a graph
    #: mutation, if the architecture has one.
    built_at_load = None

    def __init__(self, num_workers, worker_memory_bytes):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = int(num_workers)
        self.worker_memory_bytes = int(worker_memory_bytes)
        self.budgets = [
            MemoryBudget(worker_memory_bytes, name="%s-w%d" % (self.name, i))
            for i in range(self.num_workers)
        ]
        self.job = None
        self.codec = None  # the job's vertex codec, built once per run
        self.stores = [dict() for _ in range(self.num_workers)]  # vid -> state
        self.inbox = {}  # target vid -> raw payloads

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, job, dfs, input_path, parse_line=None, max_supersteps=None):
        self.job = job
        self.codec = job.vertex_codec()
        started = self.now()
        partitions = self.read_input(dfs, input_path, parse_line)
        self.load(partitions)
        load_seconds = self.now() - started

        num_vertices = sum(len(store) for store in self.stores)
        num_edges = sum(len(edges) for rows in partitions for _v, _val, edges in rows)
        max_supersteps = max_supersteps or job.max_supersteps
        program = job.vertex_class()
        program.configure(job.config)
        aggregators = job.aggregator_set()
        aggregate = None
        superstep = 0
        superstep_seconds = []
        superstep_costs = []

        while max_supersteps is None or superstep < max_supersteps:
            superstep += 1
            tick = self.now()
            self.begin_superstep()
            # No live-vertex index: every held vertex is visited.
            touched = num_vertices
            computes = messages = 0
            any_active = False
            contributions = []
            mutations = []
            for worker in range(self.num_workers):
                for state, payloads in self.deliveries(worker):
                    if state.halted and not payloads:
                        continue
                    computes += 1
                    program._bind(
                        state.vid,
                        state.value,
                        list(state.edges),
                        superstep,
                        aggregate,
                        num_vertices,
                        num_edges,
                    )
                    program.compute(iter(payloads or ()))
                    state.value = program.value
                    state.edges = program._edges
                    state.halted = program._halted
                    self.keep(worker, state)
                    if not state.halted or program._outbox:
                        any_active = True
                    contributions.extend(program._agg_contribs)
                    mutations.extend(program._mutations)
                    messages += len(program._outbox)
                    for target, payload in program._outbox:
                        self.send(worker, target, payload)
            wire_bytes = self.barrier()
            if mutations:
                any_active = True
                num_vertices, num_edges = self.apply_mutations(
                    superstep, mutations, num_vertices, num_edges
                )
            aggregate = None
            if aggregators:
                aggregate = aggregators.finish(
                    aggregators.accumulate_all(
                        aggregators.init_states(), contributions
                    )
                )
            # The whole CPU side degrades super-linearly with heap
            # pressure (measured after the barrier's charges).
            cpu, disk = self.work(touched, computes, messages)
            cpu = cpu / self.num_workers * costmodel.pressure_penalty(
                self.heap_pressure(), 1.0
            )
            net = costmodel.network_seconds(wire_bytes, self.num_workers)
            superstep_costs.append((cpu, disk, net))
            superstep_seconds.append(self.now() - tick)
            if not any_active:  # all halted, nothing sent, nothing mutated
                break

        return BaselineOutcome(
            engine=self.name,
            supersteps=superstep,
            load_seconds=load_seconds,
            superstep_seconds=superstep_seconds,
            vertices={
                vid: self.state_of(worker, vid).value
                for worker, store in enumerate(self.stores)
                for vid in store
            },
            aggregate=aggregate,
            peak_memory_bytes=max(budget.peak for budget in self.budgets),
            load_cost=costmodel.load_cost(
                num_vertices, dfs.total_bytes(input_path), self.num_workers
            ),
            superstep_costs=superstep_costs,
        )

    def apply_mutations(self, superstep, mutations, num_vertices, num_edges):
        """Resolve the superstep's requests per vid and apply them through
        the hooks loading uses; returns the new (vertex, edge) counts."""
        if self.built_at_load:
            raise ReproError(
                "%s cannot follow the graph mutations of superstep %d: its %s "
                "are built once at load" % (self.name, superstep, self.built_at_load)
            )
        by_vid = {}
        for mutation in mutations:
            by_vid.setdefault(mutation[1], []).append(mutation)
        for vid, requests in by_vid.items():
            worker = self.worker_of(vid)
            exists = vid in self.stores[worker]
            outcome = self.job.resolver.resolve(vid, requests, exists)
            if outcome is None:
                continue
            if exists:
                num_vertices -= 1
                num_edges -= len(self.state_of(worker, vid).edges)
            if outcome[0] == "insert":
                state = BoundVertexState(vid, outcome[1], outcome[2] or [])
                if exists:
                    self.keep(worker, state)
                else:
                    self.admit(worker, state)
                num_vertices += 1
                num_edges += len(state.edges)
            elif exists:
                del self.stores[worker][vid]
        return num_vertices, num_edges

    # ------------------------------------------------------------------
    # loading and the vertex store
    # ------------------------------------------------------------------
    def worker_of(self, vid):
        return hash(vid) % self.num_workers

    def read_input(self, dfs, input_path, parse_line=None):
        """Read and partition the text input; returns per-worker lists."""
        parse_line = parse_line or parse_adjacency_line
        partitions = [[] for _ in range(self.num_workers)]
        for vid, value, edges in read_graph_from_dfs(dfs, input_path, parse_line):
            partitions[self.worker_of(vid)].append((vid, value, edges))
        return partitions

    def load(self, partitions):
        for worker, rows in enumerate(partitions):
            for vid, value, edges in rows:
                self.admit(worker, BoundVertexState(vid, value, edges))

    def admit(self, worker, state):
        """Charge what holding a new vertex costs this architecture, then
        hold it (loading, and insertions by graph mutation)."""
        # The accounting unit: the serialized row, 8 bytes of vid included.
        self.charge_vertex(worker, 8 + self.codec.sizeof(state.row()), state)
        self.keep(worker, state)

    def charge_vertex(self, worker, nbytes, state):
        """Charge ``worker`` for a vertex of ``nbytes`` serialized bytes."""
        raise NotImplementedError

    def keep(self, worker, state):
        """Put ``state`` (back) into ``worker``'s store."""
        self.stores[worker][state.vid] = state

    def state_of(self, worker, vid):
        return self.stores[worker][vid]

    # ------------------------------------------------------------------
    # the message store: a global inbox, combined at the receiver
    # ------------------------------------------------------------------
    def begin_superstep(self):
        self.outbox = {}
        self.sent_bytes = 0

    def deliveries(self, worker):
        """Every vertex ``worker`` holds with its incoming payloads (falsy
        when there are none), in the store's visiting order."""
        combiner = self.job.combiner
        for state in self.stores[worker].values():
            payloads = self.inbox.get(state.vid)
            if payloads:
                bundle = combiner.init()
                for payload in payloads:
                    bundle = combiner.accumulate(bundle, payload)
                payloads = list(combiner.expand(bundle))
            yield state, payloads

    def send(self, worker, target, payload):
        self.outbox.setdefault(target, []).append(payload)
        # Wire buffers hold serialized values, not objects.
        self.sent_bytes += message_serialized_size(self.job, payload)

    def barrier(self):
        """Exchange: what was sent becomes deliverable. Returns the bytes
        that crossed worker boundaries."""
        self.inbox = self.outbox
        return self.sent_bytes * self.remote_fraction()

    def work(self, touched, computes, messages):
        """``(cpu, disk)`` simulated seconds of one superstep's work, the
        CPU part before it is spread over the workers."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # budgets
    # ------------------------------------------------------------------
    def charge(self, worker, nbytes, what):
        """Charge ``nbytes`` to ``worker``'s heap; raises when over."""
        self.budgets[worker].allocate(int(nbytes), what=what)

    def release(self, worker, nbytes):
        self.budgets[worker].release(int(nbytes))

    def heap_pressure(self):
        """Worst current heap occupancy across workers (0..1)."""
        return max(
            budget.used / budget.capacity if budget.capacity else 0.0
            for budget in self.budgets
        )

    def remote_fraction(self):
        """Expected fraction of uniformly addressed messages that cross
        worker boundaries."""
        return (self.num_workers - 1) / self.num_workers

    @staticmethod
    def now():
        return time.perf_counter()

"""Job specifications: DAGs of operator and connector descriptors.

A :class:`JobSpec` is what a client (the Pregelix plan generator) submits
to the cluster: operators declare *what* runs, connectors declare *how
tuples move* between them, and partition constraints declare *where*
clones run. The engine clones each operator once per partition and wires
clones together according to the connectors, exactly like Hyracks.

:meth:`JobSpec.stages` groups the operators that one-to-one connectors
join into stages; the engine runs a stage's operators back to back in
one clone per partition (DESIGN.md §4).
"""

import heapq
from itertools import chain

from repro.common.errors import SchedulingError


class OperatorDescriptor:
    """Base class for all operators.

    Subclasses implement :meth:`run`, which the engine calls once per
    partition (clone). ``inputs`` is one list of tuples per incoming
    connector, in the order the connectors were attached; the return
    value maps output port names to lists of tuples (most operators use
    the single default port ``"out"``).
    """

    #: Default output port name.
    OUT = "out"

    def __init__(self, name=None):
        self.name = name or type(self).__name__
        self.op_id = None  # assigned by JobSpec.add
        self.partition_constraint = None

    def run(self, ctx, partition, inputs):
        raise NotImplementedError

    def initialize(self, job_ctx):
        """Hook called once per job before any clone runs."""

    def finalize(self, job_ctx):
        """Hook called once per job after every clone finished."""

    def __repr__(self):
        return "%s(id=%r)" % (self.name, self.op_id)


class ConnectorDescriptor:
    """Base class for connectors; see :mod:`repro.hyracks.connectors`.

    A connector across a stage boundary redistributes in two halves: each
    producer clone calls :meth:`split` on its own output and
    :meth:`_account` for what it ships, and each consumer's input is built
    by :meth:`assemble` from the per-``(consumer, sender)`` lists.
    """

    PIPELINED = "pipelined"
    SENDER_SIDE_MATERIALIZED = "sender-side-materialized"

    def __init__(self, materialization=PIPELINED):
        self.materialization = materialization

    def validate(self, num_senders, num_consumers):
        """Reject impossible sender/consumer pairings (one-to-one only)."""

    def split(self, sender, batch, num_consumers):
        """One sender's batch as a list of per-consumer tuple lists."""
        raise NotImplementedError

    def _account(self, ctx, producer_partition, consumer_partition, tuples):
        """Charge what one sender ships to one consumer: nothing, unless
        the connector measures its volume."""

    def assemble(self, staged):
        """Each consumer's input from ``staged[consumer][sender]`` lists.

        The default concatenates senders in partition-id order; the
        merging connector overrides with a heap merge.
        """
        return [list(chain.from_iterable(per_sender)) for per_sender in staged]

    def route(self, producer_outputs, num_consumers, ctx):
        """Redistribute producer partition outputs to consumer partitions.

        The engine's hand-off in one call, for direct callers: split and
        account every sender in partition order, then assemble.

        :param producer_outputs: list (one per producer partition) of
            tuple lists.
        :param num_consumers: consumer partition count.
        :param ctx: the :class:`JobContext`, for byte accounting.
        :returns: list (one per consumer partition) of tuple lists.
        """
        self.validate(len(producer_outputs), num_consumers)
        staged = [[] for _ in range(num_consumers)]
        for sender, batch in enumerate(producer_outputs):
            for dest, tuples in enumerate(self.split(sender, batch, num_consumers)):
                self._account(ctx, sender, dest, tuples)
                staged[dest].append(tuples)
        return self.assemble(staged)


class Edge:
    """One connector application: producer (op, port) -> consumer op."""

    __slots__ = ("connector", "producer", "port", "consumer")

    def __init__(self, connector, producer, port, consumer):
        self.connector = connector
        self.producer = producer
        self.port = port
        self.consumer = consumer


class JobSpec:
    """An operator/connector DAG plus per-operator location constraints."""

    def __init__(self, name="job"):
        self.name = name
        self.operators = []
        self.edges = []
        self._next_id = 0

    def add(self, operator):
        """Register an operator; returns it for chaining."""
        operator.op_id = self._next_id
        self._next_id += 1
        self.operators.append(operator)
        return operator

    def connect(self, connector, producer, consumer, port=OperatorDescriptor.OUT):
        """Wire ``producer``'s ``port`` into ``consumer`` through ``connector``.

        The order of ``connect`` calls targeting the same consumer defines
        the order of that consumer's input lists.
        """
        for operator in (producer, consumer):
            if operator.op_id is None or self.operators[operator.op_id] is not operator:
                raise SchedulingError(
                    "operator %r is not part of this job spec" % (operator,)
                )
        self.edges.append(Edge(connector, producer, port, consumer))

    def edges_by_operator(self):
        """``(inputs, outputs)``: each operator's incoming and outgoing
        edges by ``op_id``, in attach order (the order of a consumer's
        input lists)."""
        inputs = {operator.op_id: [] for operator in self.operators}
        outputs = {operator.op_id: [] for operator in self.operators}
        for edge in self.edges:
            inputs[edge.consumer.op_id].append(edge)
            outputs[edge.producer.op_id].append(edge)
        return inputs, outputs

    def describe(self):
        """Human-readable plan rendering: one line per operator with its
        incoming connectors (used by the CLI's ``explain`` command)."""
        inputs, _outputs = self.edges_by_operator()
        lines = []
        for operator in self.topological_order():
            incoming = inputs[operator.op_id]
            if not incoming:
                lines.append("%s" % operator.name)
                continue
            for edge in incoming:
                port = "" if edge.port == OperatorDescriptor.OUT else ".%s" % edge.port
                lines.append(
                    "%s%s --[%s]--> %s"
                    % (
                        edge.producer.name,
                        port,
                        type(edge.connector).__name__,
                        operator.name,
                    )
                )
        return lines

    def topological_order(self):
        """Operators sorted so producers precede consumers."""
        _inputs, outputs = self.edges_by_operator()
        indegree = {op.op_id: 0 for op in self.operators}
        for edge in self.edges:
            indegree[edge.consumer.op_id] += 1
        ready = [op for op in self.operators if indegree[op.op_id] == 0]
        order = []
        while ready:
            operator = ready.pop(0)
            order.append(operator)
            for edge in outputs[operator.op_id]:
                indegree[edge.consumer.op_id] -= 1
                if indegree[edge.consumer.op_id] == 0:
                    ready.append(edge.consumer)
        if len(order) != len(self.operators):
            raise SchedulingError("job spec contains a cycle")
        return order

    def stages(self, placement):
        """The operators grouped into :class:`Stage`\\ s, in run order.

        A one-to-one edge whose ends have identical placements joins them
        into one stage, unless that would put another kind of edge inside
        a stage or make a cycle among stages; every other edge is a stage
        boundary. Stages run in topological order, the one holding the
        earliest operator (in :meth:`topological_order`) first.
        """
        from repro.hyracks.connectors import OneToOneConnector

        order = self.topological_order()
        fusable = [
            edge for edge in self.edges
            if isinstance(edge.connector, OneToOneConnector)
            and placement[edge.producer.op_id] == placement[edge.consumer.op_id]
        ]
        # op_id -> its stage, named by the rank of the stage's first operator
        alone = {operator.op_id: rank for rank, operator in enumerate(order)}
        stage_of = self._fuse(alone, fusable)
        run_order = self._stage_order(stage_of, fusable)
        if run_order is None:
            # Fusing every such edge fails: fuse them one at a time,
            # keeping each fusion after which the stages are still sound.
            stage_of, run_order = alone, self._stage_order(alone, fusable)
            for edge in fusable:
                fused = self._fuse(stage_of, [edge])
                fused_order = self._stage_order(fused, fusable)
                if fused_order is not None:
                    stage_of, run_order = fused, fused_order
        members = {stage: [] for stage in run_order}
        for operator in order:
            members[stage_of[operator.op_id]].append(operator)
        inputs, outputs = self.edges_by_operator()
        return [
            Stage(members[stage], placement, inputs, outputs) for stage in run_order
        ]

    @staticmethod
    def _fuse(stage_of, edges):
        """A copy of ``stage_of`` with each edge's two ends in one stage."""
        stage_of = dict(stage_of)
        for edge in edges:
            first, second = sorted(
                (stage_of[edge.producer.op_id], stage_of[edge.consumer.op_id])
            )
            if first != second:
                for op_id, stage in stage_of.items():
                    if stage == second:
                        stage_of[op_id] = first
        return stage_of

    def _stage_order(self, stage_of, fusable):
        """The stages of ``stage_of`` in run order, or ``None`` when a
        stage would hold an edge not in ``fusable`` or the stages would
        form a cycle."""
        successors = {stage: set() for stage in stage_of.values()}
        indegree = dict.fromkeys(successors, 0)
        for edge in self.edges:
            source = stage_of[edge.producer.op_id]
            target = stage_of[edge.consumer.op_id]
            if source == target:
                if edge not in fusable:
                    return None
            elif target not in successors[source]:
                successors[source].add(target)
                indegree[target] += 1
        ready = [stage for stage, degree in indegree.items() if not degree]
        heapq.heapify(ready)
        run_order = []
        while ready:
            stage = heapq.heappop(ready)
            run_order.append(stage)
            for target in successors[stage]:
                indegree[target] -= 1
                if not indegree[target]:
                    heapq.heappush(ready, target)
        return run_order if len(run_order) == len(successors) else None


class Stage:
    """Operators that one clone per partition runs back to back.

    ``operators`` are in the spec's topological order and share one
    placement, ``locations``. ``inputs[i]`` and ``outputs[i]`` are
    operator ``i``'s edges in attach order. ``entering`` are the edges
    from other stages; ``leaving`` maps each edge to another stage to its
    consumer count. Every other edge joins two of the stage's operators.
    """

    __slots__ = ("name", "operators", "locations", "inputs", "outputs",
                 "entering", "leaving")

    def __init__(self, operators, placement, inputs, outputs):
        self.name = "+".join(operator.name for operator in operators)
        self.operators = operators
        self.locations = placement[operators[0].op_id]
        self.inputs = [inputs[operator.op_id] for operator in operators]
        self.outputs = [outputs[operator.op_id] for operator in operators]
        members = set(operators)
        self.entering = [
            edge for edges in self.inputs for edge in edges
            if edge.producer not in members
        ]
        self.leaving = {
            edge: len(placement[edge.consumer.op_id])
            for edges in self.outputs for edge in edges
            if edge.consumer not in members
        }

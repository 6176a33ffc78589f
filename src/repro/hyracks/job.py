"""Job specifications: DAGs of operator and connector descriptors.

A :class:`JobSpec` is what a client (the Pregelix plan generator) submits
to the cluster: operators declare *what* runs, connectors declare *how
tuples move* between them, and partition constraints declare *where*
clones run. The engine clones each operator once per partition and wires
clones together according to the connectors, exactly like Hyracks.
"""

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

    A connector redistributes in two halves: each producer clone calls
    :meth:`split` on its own output and ``_account`` for what it ships,
    and each consumer's input is built by :meth:`assemble` from the
    per-``(consumer, sender)`` lists.
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

    def inputs_of(self, operator):
        """Incoming edges of ``operator`` in attach order."""
        return [edge for edge in self.edges if edge.consumer is operator]

    def outputs_of(self, operator):
        return [edge for edge in self.edges if edge.producer is operator]

    def describe(self):
        """Human-readable plan rendering: one line per operator with its
        incoming connectors (used by the CLI's ``explain`` command)."""
        lines = []
        for operator in self.topological_order():
            incoming = self.inputs_of(operator)
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
        indegree = {op.op_id: 0 for op in self.operators}
        for edge in self.edges:
            indegree[edge.consumer.op_id] += 1
        ready = [op for op in self.operators if indegree[op.op_id] == 0]
        order = []
        while ready:
            operator = ready.pop(0)
            order.append(operator)
            for edge in self.outputs_of(operator):
                indegree[edge.consumer.op_id] -= 1
                if indegree[edge.consumer.op_id] == 0:
                    ready.append(edge.consumer)
        if len(order) != len(self.operators):
            raise SchedulingError("job spec contains a cycle")
        return order

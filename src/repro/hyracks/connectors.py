"""Connectors: inter-operator data redistribution (paper Section 4).

Three patterns from the paper are implemented:

* :class:`MToNPartitioningConnector` — repartition by a key function;
  fully pipelined. Used with the re-grouping group-bys.
* :class:`MToNPartitioningMergingConnector` — same routing, but assumes
  each sender's stream is sorted and *merges* at the receiver so the
  downstream pre-clustered group-by sees globally sorted input. The paper
  pairs it with a sender-side materializing policy to avoid the
  scheduling deadlocks known from the query-processing literature.
* :class:`MToOneAggregatorConnector` — funnels every partition into one,
  used by the second stage of global aggregation.

Plus :class:`OneToOneConnector` for local pipelines: the engine fuses
the operators it joins into one stage and hands their lists straight on.

Across a stage boundary a connector redistributes in two halves. Each
producer clone calls :meth:`~ConnectorDescriptor.split` on its own output
(one tuple list per consumer) and ``_account`` for what it ships; each
consumer's input is then built by :meth:`~ConnectorDescriptor.assemble`
from the per-``(consumer, sender)`` lists, consuming senders in
partition-id order (DESIGN.md §4). :meth:`~ConnectorDescriptor.route` is
the same hand-off in one call, for callers that already hold every
sender's output.

A partitioning connector routes a **batch per call**: its
``destinations_fn(batch, n)`` names the consumer of every tuple of a
sender's output at once — the Pregelix plans pass one that decodes all
the batch's key images with a single ``unpack`` and hashes the vids
(:meth:`~repro.pregelix.physical.PartitionMap.partitions_of_keyed`) —
and the merging connector checks a sender's sortedness in one pass over
the sort keys. A per-tuple ``key_fn``/``partition_fn`` pair is still all
a connector needs; it is what ``destinations_fn`` defaults to.

Byte accounting: a connector constructed with a ``tuple_serde`` measures
the serialized volume it moves and charges the job's network counters —
that is the signal behind the paper's observation that combiners become
less effective as the cluster grows.
"""

import itertools
import operator

from repro.hyracks.job import ConnectorDescriptor
from repro.hyracks.storage.run_file import merge_sorted


class OneToOneConnector(ConnectorDescriptor):
    """Partition ``i`` of the producer feeds partition ``i`` of the consumer.

    Inside a stage the engine never calls :meth:`split`: it is what
    :meth:`route` and a one-to-one edge left at a stage boundary (its ends
    placed apart, or fusing it would close a cycle) hand over with.
    """

    def validate(self, num_senders, num_consumers):
        if num_senders != num_consumers:
            raise ValueError(
                "one-to-one connector with %d producers and %d consumers"
                % (num_senders, num_consumers)
            )

    def split(self, sender, batch, num_consumers):
        per_dest = [[] for _ in range(num_consumers)]
        per_dest[sender] = list(batch)
        return per_dest


class _AccountingMixin:
    _counters = (None, {})  # (registry, metric name -> this kind's counter)

    def _counter(self, registry, name):
        """``name{kind=<this connector's class>}`` in ``registry``, looked
        up once per connector and registry."""
        owner, counters = self._counters
        if owner is not registry:
            counters = {}
            self._counters = (registry, counters)
        counter = counters.get(name)
        if counter is None:
            counter = counters[name] = registry.counter(
                name, kind=type(self).__name__
            )
        return counter

    def _account(self, ctx, producer_partition, consumer_partition, tuples):
        if ctx is None or not tuples:
            return
        remote = producer_partition != consumer_partition
        if self.tuple_serde is not None:
            nbytes = self.tuple_serde.sizeof_many(tuples)
        else:
            nbytes = 0
        if remote:
            ctx.io.record_network(nbytes, messages=len(tuples))
        telemetry = ctx.telemetry
        registry = telemetry.registry
        self._counter(registry, "connector.tuples").inc(len(tuples))
        if nbytes:
            self._counter(registry, "connector.bytes").inc(nbytes)
        if self.materialization == ConnectorDescriptor.SENDER_SIDE_MATERIALIZED:
            # The sender writes its outgoing stream to a local temp file
            # and trickles it out; count the extra disk round trip.
            ctx.io.record_write(nbytes)
            ctx.io.record_read(nbytes)
            telemetry.event(
                "connector.materialize",
                category="connector",
                kind=type(self).__name__,
                sender=producer_partition,
                receiver=consumer_partition,
                bytes=nbytes,
                tuples=len(tuples),
            )


class _PartitioningMixin(_AccountingMixin):
    """Routing shared by the two partitioning connectors: a batch is
    routed by one call that names the consumer of each of its tuples."""

    def _route_by(self, key_fn, partition_fn, destinations_fn):
        if key_fn is None and destinations_fn is None:
            raise ValueError("a partitioning connector needs key_fn or destinations_fn")
        self.key_fn = key_fn
        self.partition_fn = partition_fn or (lambda key, n: hash(key) % n)
        self.destinations_fn = destinations_fn or self._destinations_per_tuple

    def _destinations_per_tuple(self, batch, num_consumers):
        key_fn, partition_fn = self.key_fn, self.partition_fn
        return [partition_fn(key_fn(item), num_consumers) for item in batch]

    def _scatter(self, batch, num_consumers):
        per_dest = [[] for _ in range(num_consumers)]
        for dest, item in zip(self.destinations_fn(batch, num_consumers), batch):
            per_dest[dest].append(item)
        return per_dest


class MToNPartitioningConnector(_PartitioningMixin, ConnectorDescriptor):
    """Hash-partition tuples to consumers with a user partitioning function.

    :param key_fn: extracts the partitioning key from a tuple.
    :param tuple_serde: optional serde used purely for byte accounting.
    :param partition_fn: maps ``(key, n)`` to a partition; defaults to
        ``hash(key) % n`` (the paper's default hash partitioning).
    :param destinations_fn: maps ``(batch, n)`` to the partition of every
        tuple of a batch (a list), in order; defaults to ``partition_fn``
        of ``key_fn`` tuple by tuple, which it supersedes.
    """

    def __init__(self, key_fn=None, tuple_serde=None, partition_fn=None,
                 destinations_fn=None):
        super().__init__(ConnectorDescriptor.PIPELINED)
        self.tuple_serde = tuple_serde
        self._route_by(key_fn, partition_fn, destinations_fn)

    def split(self, sender, batch, num_consumers):
        return self._scatter(batch, num_consumers)


class MToNPartitioningMergingConnector(_PartitioningMixin, ConnectorDescriptor):
    """Partitioning connector that merge-sorts at the receiver side.

    Senders must emit streams already sorted by ``sort_key_fn`` (which
    defaults to ``key_fn``); each receiver heap-merges the per-sender
    streams, so its output is sorted without any re-grouping work
    downstream. Always sender-side materializing, matching Section
    5.3.1's deadlock-avoidance policy. Routing is
    :class:`MToNPartitioningConnector`'s.
    """

    def __init__(self, key_fn=None, sort_key_fn=None, tuple_serde=None,
                 partition_fn=None, destinations_fn=None):
        super().__init__(ConnectorDescriptor.SENDER_SIDE_MATERIALIZED)
        self.sort_key_fn = sort_key_fn or key_fn
        self.tuple_serde = tuple_serde
        self._route_by(key_fn, partition_fn, destinations_fn)

    def split(self, sender, batch, num_consumers):
        sort_keys = list(map(self.sort_key_fn, batch))
        # sort_keys[i + 1] < sort_keys[i] anywhere, in one pass.
        if any(map(operator.lt, itertools.islice(sort_keys, 1, None), sort_keys)):
            raise ValueError("merging connector requires sorted sender streams")
        return self._scatter(batch, num_consumers)

    def assemble(self, staged):
        return [
            list(merge_sorted(per_sender, key=self.sort_key_fn))
            for per_sender in staged
        ]


class MToOneAggregatorConnector(_AccountingMixin, ConnectorDescriptor):
    """Reduces every producer partition into consumer partition 0."""

    def __init__(self, tuple_serde=None):
        super().__init__(ConnectorDescriptor.PIPELINED)
        self.tuple_serde = tuple_serde

    def split(self, sender, batch, num_consumers):
        per_dest = [[] for _ in range(num_consumers)]
        per_dest[0] = list(batch)
        return per_dest

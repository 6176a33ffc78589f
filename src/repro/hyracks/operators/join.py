"""The two index join strategies for message delivery (Section 5.3.2).

* :class:`IndexFullOuterJoinOperator` merges the vid-sorted combined
  message stream with a single sequential scan of the ``Vertex`` index —
  cheap when most vertices receive messages or are live (PageRank).
* :class:`IndexLeftOuterJoinOperator` probes the ``Vertex`` index once
  per incoming tuple, skipping the full scan — a large win when messages
  are sparse (single source shortest paths), at the cost of a
  root-to-leaf search per leaf the sorted probes land on.
* :class:`MergeChooseOperator` implements the ``Merge (choose())`` box of
  the left-outer-join plan: it merges the message stream with the ``Vid``
  live-vertex stream, preferring the message tuple on key collisions.

Join outputs are ``(key, payload, vertex_value)`` with ``None`` standing
in for SQL NULL on the non-matching side.
"""

from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.operators.index_ops import get_index


class IndexFullOuterJoinOperator(OperatorDescriptor):
    """Full outer join of a sorted ``(key, payload)`` stream with an index."""

    def __init__(self, index_name, name=None):
        super().__init__(name or "IndexFullOuterJoin(%s)" % index_name)
        self.index_name = index_name

    def run(self, ctx, partition, inputs):
        (messages,) = inputs
        index = get_index(ctx, self.index_name, partition)
        return {self.OUT: list(self._merge(messages, index.scan()))}

    @staticmethod
    def _merge(messages, index_entries):
        messages = iter(messages)
        index_entries = iter(index_entries)
        message = next(messages, None)
        entry = next(index_entries, None)
        while message is not None or entry is not None:
            if entry is None or (message is not None and message[0] < entry[0]):
                # Left-outer case: a message for a non-existent vertex.
                yield message[0], message[1], None
                message = next(messages, None)
            elif message is None or entry[0] < message[0]:
                # Right-outer case: a vertex with no messages.
                yield entry[0], None, entry[1]
                entry = next(index_entries, None)
            else:
                yield message[0], message[1], entry[1]
                message = next(messages, None)
                entry = next(index_entries, None)


class IndexLeftOuterJoinOperator(OperatorDescriptor):
    """Probe-based left outer join: one index search per input tuple."""

    def __init__(self, index_name, name=None):
        super().__init__(name or "IndexLeftOuterJoin(%s)" % index_name)
        self.index_name = index_name

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        index = get_index(ctx, self.index_name, partition)
        # The stream is in key order: consecutive probes mostly land on
        # the leaf the last one found.
        with index.positioned():
            output = [(key, payload, index.lookup(key)) for key, payload in stream]
        ctx.job.counters.add("index_probes", len(output))
        return {self.OUT: output}


class MergeChooseOperator(OperatorDescriptor):
    """Merge two sorted keyed streams, choosing input 0 on collisions.

    Input 0 carries ``(key, payload)`` message tuples; input 1 carries
    ``(key, _)`` live-vertex (``Vid``) tuples. The output is the sorted
    union of keys with a payload when one exists, ``None`` otherwise —
    exactly the transformed
    ``V.halt = false || M.payload != NULL`` filter of the logical plan.
    """

    def __init__(self, name=None):
        super().__init__(name or "MergeChoose")

    def run(self, ctx, partition, inputs):
        messages, live = inputs
        return {self.OUT: list(self._merge(iter(messages), iter(live)))}

    @staticmethod
    def _merge(messages, live):
        message = next(messages, None)
        vid = next(live, None)
        while message is not None or vid is not None:
            if vid is None or (message is not None and message[0] < vid[0]):
                yield message[0], message[1]
                message = next(messages, None)
            elif message is None or vid[0] < message[0]:
                yield vid[0], None
                vid = next(live, None)
            else:
                # choose(): the message tuple wins over the Vid tuple.
                yield message[0], message[1]
                message = next(messages, None)
                vid = next(live, None)

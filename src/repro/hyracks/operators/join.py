"""The two index join strategies for message delivery (Section 5.3.2).

* :class:`IndexFullOuterJoinOperator` merges the vid-sorted combined
  message stream with a single sequential scan of the ``Vertex`` index —
  cheap when most vertices receive messages or are live (PageRank).
* :class:`IndexLeftOuterJoinOperator` probes the ``Vertex`` index with
  the incoming keys, skipping the full scan — a large win when messages
  are sparse (single source shortest paths), at the cost of a
  root-to-leaf search per leaf the sorted probes land on
  (``Index.lookup_sorted``).
* :class:`MergeChooseOperator` implements the ``Merge (choose())`` box of
  the left-outer-join plan: it merges the message stream with the ``Vid``
  live-vertex stream, preferring the message tuple on key collisions.

Join outputs are ``(key, payload, vertex_value)`` with ``None`` standing
in for SQL NULL on the non-matching side.
"""

from itertools import filterfalse, repeat
from operator import itemgetter

from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.operators.index_ops import get_index

_KEY = itemgetter(0)
_VALUE = itemgetter(1)


def _outer_merge(left, right):
    """Full outer merge of two streams of ``(key, value)`` in key order,
    keys unique within each: yields ``(key, left value, right value)``
    in key order, ``None`` for the side that lacks the key."""
    left = iter(left)
    right = iter(right)
    a = next(left, None)
    b = next(right, None)
    while a is not None or b is not None:
        if b is None or (a is not None and a[0] < b[0]):
            yield a[0], a[1], None
            a = next(left, None)
        elif a is None or b[0] < a[0]:
            yield b[0], None, b[1]
            b = next(right, None)
        else:
            yield a[0], a[1], b[1]
            a = next(left, None)
            b = next(right, None)


def _full_outer_join(messages, scanned):
    """:func:`_outer_merge` of the list ``messages`` with the list
    ``scanned`` (an index's rows: unique keys), built by C-level maps
    instead of a step per row: each scanned key pops its payload off a
    dict of the messages, and the payloads left over — messages to keys
    the index lacks — are sorted back in by key. Keys repeated among the
    messages take the merge."""
    payloads = dict(messages)
    if len(payloads) != len(messages):
        return list(_outer_merge(messages, scanned))
    keys = list(map(_KEY, scanned))
    bundles = map(payloads.pop, keys, repeat(None)) if payloads else repeat(None)
    joined = list(zip(keys, bundles, map(_VALUE, scanned)))
    if payloads:
        joined += zip(payloads.keys(), payloads.values(), repeat(None))
        joined.sort(key=_KEY)
    return joined


def _choose_merge(messages, live):
    """The ``(key, payload)`` projection of :func:`_outer_merge` of the
    list ``messages`` with the list ``live`` (an index's rows: unique
    keys), built by C-level maps instead of a step per key: the live keys
    no message is addressed to join the messages with a ``None``
    payload, and one sort by key puts them in place. Keys repeated among
    the messages take the merge."""
    payloads = dict(messages)
    if len(payloads) != len(messages):
        return [(key, payload) for key, payload, _vid in _outer_merge(messages, live)]
    idle = filterfalse(payloads.__contains__, map(_KEY, live))
    merged = list(messages)
    merged += zip(idle, repeat(None))
    merged.sort(key=_KEY)
    return merged


class IndexFullOuterJoinOperator(OperatorDescriptor):
    """Full outer join of a sorted ``(key, payload)`` stream with an index
    (left-outer case: a message for a non-existent vertex; right-outer:
    a vertex with no messages)."""

    def __init__(self, index_name, name=None):
        super().__init__(name or "IndexFullOuterJoin(%s)" % index_name)
        self.index_name = index_name

    def run(self, ctx, partition, inputs):
        (messages,) = inputs
        index = get_index(ctx, self.index_name, partition)
        return {self.OUT: _full_outer_join(messages, list(index.scan()))}


class IndexLeftOuterJoinOperator(OperatorDescriptor):
    """Probe-based left outer join: the input's keys looked up in one
    ``lookup_sorted`` call (the stream is in key order, so consecutive
    probes mostly land on the leaf the last one found)."""

    def __init__(self, index_name, name=None):
        super().__init__(name or "IndexLeftOuterJoin(%s)" % index_name)
        self.index_name = index_name

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        index = get_index(ctx, self.index_name, partition)
        keys = list(map(_KEY, stream))
        output = list(zip(keys, map(_VALUE, stream), index.lookup_sorted(keys)))
        ctx.job.counters.add("index_probes", len(output))
        return {self.OUT: output}


class MergeChooseOperator(OperatorDescriptor):
    """Merge two sorted keyed streams, choosing input 0 on collisions.

    Input 0 carries ``(key, payload)`` message tuples; input 1 carries
    ``(key, _)`` live-vertex (``Vid``) tuples. The output is the sorted
    union of keys with a payload when one exists, ``None`` otherwise —
    exactly the transformed
    ``V.halt = false || M.payload != NULL`` filter of the logical plan:
    the outer merge of the two, projected onto the message side
    (``choose()``: the message tuple wins over the ``Vid`` tuple).
    """

    def __init__(self, name=None):
        super().__init__(name or "MergeChoose")

    def run(self, ctx, partition, inputs):
        messages, live = inputs
        return {self.OUT: _choose_merge(messages, live)}

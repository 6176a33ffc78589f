"""External sort: memory-bounded run generation plus multiway merge.

This is the substrate under the sort-based group-by and under index bulk
loading. Tuples are collected until the operator's memory budget fills,
sorted, and spilled as a run file; runs are then heap-merged. With
in-memory inputs no run file is ever written, so small jobs stay fast —
the same graceful degradation story as the rest of the storage layer.
"""

import heapq
import itertools
import operator

from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.storage.run_file import RunFileReader, RunFileWriter

#: The paper's default per-operator sort/group-by buffer (64 MB).
DEFAULT_SORT_MEMORY = 64 << 20

# The two fields of a replayed run record ``(sort key, tuple)``.
_KEY = operator.itemgetter(0)
_ITEM = operator.itemgetter(1)


def budgeted_batches(stream, tuple_serde, memory_limit):
    """Cut ``stream`` into lists of its items.

    A batch is cut as soon as the serialized bytes of its tuples reach
    ``memory_limit``; the last batch yielded is whatever was left over
    (possibly nothing) and is the only one under the limit. A fixed-width
    ``tuple_serde`` turns the byte budget into a tuple count, so nothing
    is sized per tuple.
    """
    stream = iter(stream)
    width = tuple_serde.fixed_size
    if width:
        per_batch = max(1, -(-memory_limit // width))
        while True:
            batch = list(itertools.islice(stream, per_batch))
            yield batch
            if len(batch) < per_batch:
                return
    batch = []
    batch_bytes = 0
    sizeof = tuple_serde.sizeof
    for item in stream:
        batch.append(item)
        batch_bytes += sizeof(item)
        if batch_bytes >= memory_limit:
            yield batch
            batch = []
            batch_bytes = 0
    yield batch


class ExternalSortOperator(OperatorDescriptor):
    """Sorts its input by a byte-string sort key.

    :param sort_key_fn: extracts the (bytes) sort key from a tuple.
    :param tuple_serde: serializes tuples for spill runs and sizes them
        for the memory budget.
    :param memory_limit_bytes: run-generation budget.
    """

    def __init__(
        self,
        sort_key_fn,
        tuple_serde,
        memory_limit_bytes=DEFAULT_SORT_MEMORY,
        name=None,
    ):
        super().__init__(name or "ExternalSort")
        self.sort_key_fn = sort_key_fn
        self.tuple_serde = tuple_serde
        self.memory_limit = int(memory_limit_bytes)

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        return {self.OUT: list(self.sorted_stream(ctx, stream))}

    # The guts are reusable by the group-by operators.
    def sorted_stream(self, ctx, stream):
        """Yield the tuples of ``stream`` in sort-key order."""
        runs = []
        batches = budgeted_batches(stream, self.tuple_serde, self.memory_limit)
        try:
            buffer = next(batches)
            for following in batches:
                runs.append(self._spill(ctx, buffer))
                buffer = following
            if not runs:
                buffer.sort(key=self.sort_key_fn)
                yield from buffer
                return
            if buffer:
                runs.append(self._spill(ctx, buffer))
            streams = [self._replay(ctx, path) for path in runs]
            yield from map(_ITEM, heapq.merge(*streams, key=_KEY))
        finally:
            for path in runs:
                ctx.files.delete_path(path)

    def _spill(self, ctx, buffer):
        # Keys once per tuple; the run is written in the (stable) order
        # of the positions sorted by them.
        keys = list(map(self.sort_key_fn, buffer))
        order = sorted(range(len(buffer)), key=keys.__getitem__)
        path = ctx.files.create_temp_path("sort-run")
        with RunFileWriter(path, ctx.files) as writer:
            writer.extend(zip(
                map(keys.__getitem__, order),
                map(self.tuple_serde.dumps, map(buffer.__getitem__, order)),
            ))
        return path

    def _replay(self, ctx, path):
        for key, data in RunFileReader(path, ctx.files):
            yield key, self.tuple_serde.loads(data)

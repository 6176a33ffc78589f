"""External sort: memory-bounded run generation plus multiway merge.

The base case of one skeleton (DESIGN.md §3): cut the input into
batches that fit the memory budget, turn every full batch into sorted
``(key, value)`` pairs and spill it as a run, merge the runs with what
is still in memory — inside one
:class:`~repro.hyracks.storage.run_file.SortedRuns` scope, which owns
the run file. The sort's batch policy sorts raw tuples and folds nothing;
the re-grouping group-bys are the same skeleton with a fold. In-memory
inputs never write a run, so small jobs stay fast.
"""

import itertools
import operator

from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.storage.run_file import LEAD, SortedRuns

#: The paper's default per-operator sort/group-by buffer (64 MB).
DEFAULT_SORT_MEMORY = 64 << 20

# The tuple of a merged run pair ``(sort key, tuple)``.
_ITEM = operator.itemgetter(1)


def spill_full_batches(stream, tuple_serde, memory_limit, spill):
    """Cut ``stream`` into lists of its items, hand every full one to
    ``spill`` and return the rest.

    A batch is full as soon as the serialized bytes of its tuples reach
    ``memory_limit``; what is returned is whatever was left over
    (possibly nothing), the only batch under the limit and the one that
    may stay in memory. A fixed-width ``tuple_serde`` turns the byte
    budget into a tuple count, so nothing is sized per tuple.
    """
    stream = iter(stream)
    width = tuple_serde.fixed_size
    if width:
        per_batch = max(1, -(-memory_limit // width))
        while True:
            batch = list(itertools.islice(stream, per_batch))
            if len(batch) < per_batch:
                return batch
            spill(batch)
    batch = []
    batch_bytes = 0
    sizeof = tuple_serde.sizeof
    for item in stream:
        batch.append(item)
        batch_bytes += sizeof(item)
        if batch_bytes >= memory_limit:
            spill(batch)
            batch = []
            batch_bytes = 0
    return batch


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

    def sorted_stream(self, ctx, stream):
        """Yield the tuples of ``stream`` in sort-key order."""
        with SortedRuns(ctx, "sort-run", self.tuple_serde) as runs:
            buffer = spill_full_batches(
                stream, self.tuple_serde, self.memory_limit,
                lambda full: runs.spill(self._sorted_pairs(full)),
            )
            if not runs.extents:
                buffer.sort(key=self.sort_key_fn)
                yield from buffer
                return
            if buffer:
                runs.spill(self._sorted_pairs(buffer))
            yield from map(_ITEM, runs.merged())

    def _sorted_pairs(self, buffer):
        """``(sort key, tuple)`` in key order (stable: arrival order
        inside a key), the key computed once per tuple."""
        return sorted(zip(map(self.sort_key_fn, buffer), buffer), key=LEAD)

"""The message path as it was when every hop worked tuple by tuple.

The group-bys decorated every tuple with ``key_fn(item)``, sorted the
pairs through a lambda, folded through ``aggregator.step`` and framed run
records one ``append`` at a time; the partitioning connectors called
``partition_fn(key_fn(item), n)`` per tuple. Those loops are kept here,
unchanged but for living outside the operators (as
``test_btree_overwrite.RemoveThenInsertBTree`` keeps the old overwrite),
so that tests can hold the batch kernels to them: same output tuples,
same runs byte for byte, same per-consumer lists, same exceptions.
A reference run is a file of its own; an operator's runs are extents of
one file, which :func:`record_extents` lets :class:`RecordingFiles` cut
apart.

Nothing here calls the code under test: aggregators, serdes and
``key_fn``/``partition_fn`` callables are handed in.
"""

import heapq
import struct

from repro.common.errors import StorageError
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.run_file import SortedRuns

_RECORD_HEADER = struct.Struct(">II")


def framed(records):
    """One record, one header, one concatenation at a time."""
    for key, value in records:
        yield _RECORD_HEADER.pack(len(key), len(value)) + key + value


def write_run(ctx, hint, records):
    """One framed record written at a time."""
    path = ctx.files.create_temp_path(hint)
    written = 0
    with open(path, "wb") as handle:
        for record in framed(records):
            handle.write(record)
            written += len(record)
    ctx.files.record_run_write(written)
    return path


def parse(data):
    """``run_file._parse`` as it was: one header unpacked, and one record
    sliced, at a time."""
    size = len(data)
    records = []
    offset = 0
    while offset < size:
        body = offset + _RECORD_HEADER.size
        if body > size:
            return records, offset, body - size
        key_len, value_len = _RECORD_HEADER.unpack_from(data, offset)
        value_at = body + key_len
        end = value_at + value_len
        if end > size:
            return records, offset, end - size
        records.append((data[body:value_at], data[value_at:end]))
        offset = end
    return records, offset, 0


def read_run(ctx, path):
    """Three reads per record."""
    total = 0
    with open(path, "rb") as handle:
        while True:
            header = handle.read(_RECORD_HEADER.size)
            if not header:
                break
            key_len, value_len = _RECORD_HEADER.unpack(header)
            key = handle.read(key_len)
            value = handle.read(value_len)
            total += _RECORD_HEADER.size + key_len + value_len
            yield key, value
    if total:
        ctx.files.record_run_read(total)


def sort_spill(ctx, decorated, tuple_serde):
    """``ExternalSortOperator._spill`` over ``(key, item)`` pairs."""
    decorated.sort(key=lambda pair: pair[0])
    return write_run(
        ctx, "sort-run", ((key, tuple_serde.dumps(item)) for key, item in decorated)
    )


def spill_states(ctx, name, aggregator, sorted_states):
    serde = aggregator.state_serde()
    if serde is None:
        raise StorageError(
            "%s exceeded its memory budget but the aggregator cannot spill" % name
        )
    return write_run(
        ctx, "groupby-run", ((key, serde.dumps(state)) for key, state in sorted_states)
    )


def aggregate_sorted(aggregator, decorated):
    """Sort ``(key, item)`` pairs and fold adjacent equal keys."""
    decorated.sort(key=lambda pair: pair[0])
    aggregated = []
    current_key = None
    current_state = None
    for key, item in decorated:
        if key != current_key:
            if current_key is not None:
                aggregated.append((current_key, current_state))
            current_key = key
            current_state = aggregator.create()
        current_state = aggregator.step(current_state, item)
    if current_key is not None:
        aggregated.append((current_key, current_state))
    return aggregated


def merge_all(ctx, aggregator, runs, in_memory_sorted):
    serde = aggregator.state_serde()

    def replay(path):
        for key, data in read_run(ctx, path):
            yield key, serde.loads(data)

    streams = [replay(path) for path in runs]
    if in_memory_sorted:
        streams.append(iter(in_memory_sorted))
    merged = heapq.merge(*streams, key=lambda pair: pair[0])
    current_key = None
    current_state = None
    try:
        for key, state in merged:
            if key == current_key:
                current_state = aggregator.merge(current_state, state)
            else:
                if current_key is not None:
                    yield aggregator.finish(current_key, current_state)
                current_key, current_state = key, state
        if current_key is not None:
            yield aggregator.finish(current_key, current_state)
    finally:
        for path in runs:
            ctx.files.delete_path(path)


def _finish_or_merge(ctx, aggregator, runs, in_memory):
    if not runs:
        for key, state in in_memory:
            yield aggregator.finish(key, state)
        return
    for output in merge_all(ctx, aggregator, runs, in_memory):
        yield output


def sort_groupby(ctx, stream, key_fn, aggregator, tuple_serde, memory_limit,
                 name="SortGroupBy"):
    """``SortGroupByOperator.grouped_stream``, sizing every tuple."""
    runs, buffer, buffered_bytes = [], [], 0
    for item in stream:
        buffer.append((key_fn(item), item))
        buffered_bytes += len(tuple_serde.dumps(item))
        if buffered_bytes >= memory_limit:
            runs.append(
                spill_states(ctx, name, aggregator, aggregate_sorted(aggregator, buffer))
            )
            buffer, buffered_bytes = [], 0
    in_memory = aggregate_sorted(aggregator, buffer) if buffer else []
    return _finish_or_merge(ctx, aggregator, runs, in_memory)


def hashsort_groupby(ctx, stream, key_fn, aggregator, memory_limit,
                     name="HashSortGroupBy", state_size=None):
    """``HashSortGroupByOperator.grouped_stream``, sizing every state
    before and after every step (with ``state_size``, by default the
    aggregator's)."""
    state_size = state_size or aggregator.state_size
    runs, table, table_bytes = [], {}, 0
    for item in stream:
        key = key_fn(item)
        state = table.get(key)
        if state is None:
            state = aggregator.create()
            table_bytes += len(key)
        before = state_size(state)
        state = aggregator.step(state, item)
        table[key] = state
        table_bytes += state_size(state) - before
        if table_bytes >= memory_limit:
            runs.append(spill_states(ctx, name, aggregator, sorted(table.items())))
            table, table_bytes = {}, 0
    return _finish_or_merge(ctx, aggregator, runs, sorted(table.items()))


def preclustered_groupby(stream, key_fn, aggregator):
    current_key = None
    current_state = None
    seen = set()
    for item in stream:
        key = key_fn(item)
        if key != current_key:
            if current_key is not None:
                yield aggregator.finish(current_key, current_state)
                seen.add(current_key)
            if key in seen:
                raise StorageError(
                    "preclustered group-by saw key %r in two clusters" % (key,)
                )
            current_key = key
            current_state = aggregator.create()
        current_state = aggregator.step(current_state, item)
    if current_key is not None:
        yield aggregator.finish(current_key, current_state)


def split(batch, key_fn, partition_fn, num_consumers):
    per_dest = [[] for _ in range(num_consumers)]
    for item in batch:
        per_dest[partition_fn(key_fn(item), num_consumers)].append(item)
    return per_dest


def merging_split(batch, key_fn, sort_key_fn, partition_fn, num_consumers):
    per_dest = [[] for _ in range(num_consumers)]
    previous = None
    for item in batch:
        sort_key = sort_key_fn(item)
        if previous is not None and sort_key < previous:
            raise ValueError("merging connector requires sorted sender streams")
        previous = sort_key
        per_dest[partition_fn(key_fn(item), num_consumers)].append(item)
    return per_dest


class SenderCombine:
    """Stage one of message combination: one ``step`` → ``accumulate``
    per raw ``(vid, payload)``; ``key_fn`` encoded the vid per tuple."""

    def __init__(self, combiner, bundle_serde):
        self.combiner = combiner
        self.bundle_serde = bundle_serde

    def create(self):
        return self.combiner.init()

    def step(self, state, item):
        return self.combiner.accumulate(state, item[1])

    def merge(self, left, right):
        return self.combiner.merge(left, right)

    def finish(self, key, state):
        return (key, state)

    def state_serde(self):
        return self.bundle_serde

    def state_size(self, state):
        return self.bundle_serde.sizeof(state)


class ReceiverCombine(SenderCombine):
    """Stage two: merge the partial states of ``(key, partial)``."""

    _EMPTY = object()

    def create(self):
        return self._EMPTY

    def step(self, state, item):
        partial = item[1]
        if state is self._EMPTY:
            return partial
        return self.combiner.merge(state, partial)

    def merge(self, left, right):
        if left is self._EMPTY:
            return right
        if right is self._EMPTY:
            return left
        return self.combiner.merge(left, right)

    def finish(self, key, state):
        bundle = self.combiner.finish(
            self.combiner.init() if state is self._EMPTY else state
        )
        return (key, bundle)

    def state_size(self, state):
        if state is self._EMPTY:
            return 1
        return self.bundle_serde.sizeof(state)


class RecordingFiles(FileManager):
    """Remembers every run, size and bytes, when its file is deleted: each
    extent of a file a :class:`SortedRuns` scope spilled into (as
    :func:`record_extents` hands them over), one run per file otherwise."""

    def __init__(self, root):
        super().__init__(root)
        self.run_sizes = []
        self.run_bytes = []
        #: path -> ``(offset, length)`` of each run in the file.
        self.extents = {}

    def delete_path(self, path):
        with open(path, "rb") as handle:
            data = handle.read()
        extents = self.extents.pop(path, [(0, len(data))])
        # The extents tile the file: no byte unaccounted for, none twice.
        assert [offset for offset, _ in extents] == [
            sum(length for _, length in extents[:i]) for i in range(len(extents))
        ]
        assert sum(length for _, length in extents) == len(data)
        for offset, length in extents:
            self.run_sizes.append(length)
            self.run_bytes.append(data[offset:offset + length])
        super().delete_path(path)


def record_extents(monkeypatch):
    """Have every :class:`SortedRuns` scope hand its extents to its
    :class:`RecordingFiles` just before it deletes its file."""
    exit_scope = SortedRuns.__exit__

    def recording_exit(self, *exc):
        if self.path is not None and isinstance(self.files, RecordingFiles):
            self.files.extents[self.path] = list(self.extents)
        return exit_scope(self, *exc)

    monkeypatch.setattr(SortedRuns, "__exit__", recording_exit)

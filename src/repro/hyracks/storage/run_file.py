"""Sequential run files: spill output for sorts, group-bys, and Msg data.

A run file is a flat local file of length-prefixed ``(key, value)`` byte
records written once and scanned sequentially — exactly the shape of an
external sort run or of the sorted per-partition ``Msg`` relation the
paper stores "in temporary local files" between supersteps.

This is the one framing of a ``(key, value)`` byte pair: a run file and
a checkpoint blob (:func:`pack_pairs`/:func:`iter_pairs`) are the same
bytes, framed by :func:`pack_pairs` and read back by one parser, which
refuses data that ends inside a record.

It is also the one home of sorted runs: :class:`SortedRuns` creates,
writes, replays, merges and deletes the runs an operator clone spills,
and :func:`merge_sorted` is the k-way merge that they, the LSM B-tree's
components and the merging connector's senders all go through.
"""

import bisect
import itertools
import operator
import os
import struct

from repro.common.errors import StorageError

_RECORD_HEADER = struct.Struct(">II")
#: Records framed and written per call by :meth:`RunFileWriter.extend`.
_WRITE_BATCH = 4096
#: Bytes a reader takes from its file per call. One chunk — or one record,
#: if a record is larger — is all an open run holds in memory, so a merge
#: of spilled runs is bounded by their number, never by their length.
_READ_CHUNK = 64 << 10
#: Items :func:`merge_sorted` takes from a stream that is not a list per
#: refill: what it may hold of a stream beyond the stream's current run of
#: equal keys.
_MERGE_CHUNK = 1024

#: The key of a keyed tuple ``(key, ...)``: what a sorted stream is
#: ordered, merged and grouped by unless its owner says otherwise.
LEAD = operator.itemgetter(0)
_VALUE = operator.itemgetter(1)


def merge_sorted(streams, key=LEAD):
    """Merge streams each sorted by ``key`` into one that is, lazily.
    Stable: equal keys come out in the order of ``streams`` (so
    newest-first sources put a key's winner first), then of the stream.

    The merge works in rounds over chunks, not item by item: a list is one
    complete chunk, any other stream is read :data:`_MERGE_CHUNK` items at
    a time. A round emits every buffered item whose key is below the
    *bound* — the smallest last key among the streams that may have more —
    ordered by one stable ``list.sort`` of their concatenation in stream
    order, then refills only the streams whose buffer is down to the
    bound. No stream is read further ahead of the output than one chunk
    plus its current run of equal keys, and no Python frame is entered per
    item beyond what ``key`` costs."""
    return itertools.chain.from_iterable(_merge_rounds(list(streams), key))


def _merge_rounds(streams, key):
    """The rounds of :func:`merge_sorted`: one sorted list each."""
    chunk = _MERGE_CHUNK
    buffers = [_Buffered(stream, key, chunk) for stream in streams]
    while True:
        filling = [buffer for buffer in buffers if buffer.stream is not None]
        if not filling:
            rest = []
            for buffer in buffers:
                rest += buffer.items[buffer.start:]
            rest.sort(key=key)
            yield rest
            return
        bound = min(buffer.keys[-1] for buffer in filling)
        out = []
        for buffer in buffers:
            if buffer.keys is None:
                buffer.keys = list(map(key, buffer.items))
            cut = bisect.bisect_left(buffer.keys, bound, buffer.start)
            out += buffer.items[buffer.start:cut]
            buffer.start = cut
        out.sort(key=key)
        yield out
        for buffer in filling:
            if not bound < buffer.keys[-1]:
                buffer.refill(key, chunk)


class _Buffered:
    """What a merge holds of one stream: buffered items, their keys (a
    list stream's once a bound needs them), how many of the items are
    emitted, and the stream while it may have more."""

    __slots__ = ("items", "keys", "start", "stream")

    def __init__(self, stream, key, chunk):
        self.start = 0
        if isinstance(stream, list):
            self.items, self.keys, self.stream = stream, None, None
        else:
            self.items, self.keys, self.stream = [], [], iter(stream)
            self.refill(key, chunk)

    def refill(self, key, chunk):
        """Drop the emitted items and append the next chunk of the stream."""
        more = list(itertools.islice(self.stream, chunk))
        self.items = self.items[self.start:] + more
        self.keys = self.keys[self.start:] + list(map(key, more))
        self.start = 0
        if len(more) < chunk:
            self.stream = None


def pack_pairs(pairs):
    """Frame ``(key, value)`` byte pairs into one blob."""
    parts = []
    for key, value in pairs:
        parts += (_RECORD_HEADER.pack(len(key), len(value)), key, value)
    return b"".join(parts)


def _parse(data):
    """The parser of the framing: ``(records, end, short)`` — the records
    that lie wholly inside ``data`` (a ``bytes``), where the last of them
    ended, and how many bytes the record starting there is short of — 0
    exactly when ``data`` ends on a record boundary."""
    unpack_header = _RECORD_HEADER.unpack_from
    header_size = _RECORD_HEADER.size
    size = len(data)
    records = []
    append = records.append
    offset = 0
    while offset < size:
        body = offset + header_size
        if body > size:
            return records, offset, body - size
        key_len, value_len = unpack_header(data, offset)
        value_at = body + key_len
        end = value_at + value_len
        if end > size:
            return records, offset, end - size
        append((data[body:value_at], data[value_at:end]))
        offset = end
    return records, offset, 0


def _cut_inside_a_record(what, short):
    raise StorageError(
        "%s is cut inside a record (at least %d bytes missing)" % (what, short)
    )


def iter_pairs(blob):
    """Inverse of :func:`pack_pairs`."""
    records, _end, short = _parse(bytes(blob))
    if short:
        _cut_inside_a_record("a blob of framed pairs", short)
    return iter(records)


class RunFileWriter:
    """Appends ``(key, value)`` byte records to a local file."""

    def __init__(self, path, file_manager=None):
        self.path = path
        self.files = file_manager
        self._handle = open(path, "wb")
        self.bytes_written = 0

    def append(self, key, value):
        self.extend(((key, value),))

    def extend(self, pairs):
        """Append a batch of records, framed and written
        :data:`_WRITE_BATCH` at a time."""
        pairs = iter(pairs)
        while True:
            blob = pack_pairs(itertools.islice(pairs, _WRITE_BATCH))
            if not blob:
                return
            self._handle.write(blob)
            self.bytes_written += len(blob)

    def close(self):
        if self._handle.closed:
            return
        self._handle.close()
        if self.files is not None:
            self.files.record_run_write(self.bytes_written)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class RunFileReader:
    """Sequentially iterates the ``(key, value)`` records of a run file."""

    def __init__(self, path, file_manager=None):
        self.path = path
        self.files = file_manager

    def __iter__(self):
        return itertools.chain.from_iterable(self.chunks())

    def chunks(self):
        """The records, one list per read of the file. The bytes parsed
        are charged to the file manager however the reading ends."""
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            # Every owner writes its run before reading it.
            raise StorageError("run file %s is missing" % self.path) from None
        total = 0
        data = b""
        short = 0
        try:
            with handle:
                while True:
                    more = handle.read(max(_READ_CHUNK, short))
                    if not more:
                        break
                    data += more
                    records, end, short = _parse(data)
                    total += end
                    data = data[end:]
                    if records:
                        yield records
        finally:
            if self.files is not None and total:
                self.files.record_run_read(total)
        if short:
            _cut_inside_a_record("run file %s" % self.path, short)

    def delete(self):
        if os.path.exists(self.path):
            os.remove(self.path)


class SortedRuns:
    """The sorted runs one operator clone spills, and their only owner.

    A context manager to hold around *both* run generation and the
    consumption of :meth:`merged`: it then deletes every file it created
    (under ``create_temp_path(hint)``; the one being written included)
    when the consumer exhausts the stream, abandons it, or anything
    raises. ``files`` is not touched before the first :meth:`spill`.
    """

    def __init__(self, files, hint, value_serde):
        self.files = files
        self.hint = hint
        self.value_serde = value_serde
        self.paths = []
        self._replays = []

    def spill(self, pairs):
        """Write ``(key bytes, value)`` pairs, in key order, as one more run."""
        pairs = list(pairs)
        path = self.files.create_temp_path(self.hint)
        self.paths.append(path)
        with RunFileWriter(path, self.files) as writer:
            writer.extend(zip(
                map(LEAD, pairs),
                map(self.value_serde.dumps, map(_VALUE, pairs)),
            ))

    def merged(self, tail=()):
        """The pairs of every run, in the order spilled, and of ``tail``
        (sorted pairs still in memory), merged."""
        loads_many = self.value_serde.loads_many

        def decoded(records):
            keys, images = zip(*records)
            return zip(keys, loads_many(images))

        streams = []
        for path in self.paths:
            replay = RunFileReader(path, self.files).chunks()
            self._replays.append(replay)
            streams.append(itertools.chain.from_iterable(map(decoded, replay)))
        return merge_sorted(streams + [tail])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for replay in self._replays:
            replay.close()  # charges what it read
        for path in self.paths:
            self.files.delete_path(path)


class RunFile:
    """One sorted run as a stored relation partition: the three calls
    the plans make on one (``bulk_load``, ``scan``, ``destroy``), shaped
    as :class:`~repro.hyracks.storage.index.Index` shapes them, so the
    index operators take a run as they take a B-tree."""

    def __init__(self, path, file_manager):
        self.path = path
        self.files = file_manager

    def bulk_load(self, pairs):
        with RunFileWriter(self.path, self.files) as writer:
            writer.extend(pairs)

    def scan(self):
        return iter(RunFileReader(self.path, self.files))

    def destroy(self):
        self.files.delete_path(self.path)

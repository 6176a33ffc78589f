"""Sequential run files: spill output for sorts, group-bys, and Msg data.

A run is a flat sequence of length-prefixed ``(key, value)`` byte
records written once and scanned sequentially — exactly the shape of an
external sort run or of the sorted per-partition ``Msg`` relation the
paper stores "in temporary local files" between supersteps. The runs an
operator clone spills are extents ``(offset, length)`` of one local file
(:class:`SortedRuns`); a ``Msg`` partition (:class:`RunFile`) keeps its
bytes in memory while the node's memory budget takes them, and in a
file of its own otherwise. :class:`RunFileReader` reads both.

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
import functools
import itertools
import operator
import os
import struct

from repro.common.errors import MemoryBudgetExceeded, StorageError

_RECORD_HEADER = struct.Struct(">II")
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
    return itertools.chain.from_iterable(merge_sorted_rounds(streams, key))


def merge_sorted_rounds(streams, key=LEAD):
    """The rounds of :func:`merge_sorted`: one sorted list each, each
    holding every item of the keys it holds."""
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
    """Frame ``(key, value)`` byte pairs into one blob by C-level maps
    over the batch: a header per record, or one for all of them when the
    keys share one length and the values share one."""
    if not isinstance(pairs, list):
        pairs = list(pairs)
    keys, values = list(map(LEAD, pairs)), list(map(_VALUE, pairs))
    key_lengths, value_lengths = list(map(len, keys)), list(map(len, values))
    headers = map(_RECORD_HEADER.pack, key_lengths, value_lengths)
    if keys and key_lengths.count(key_lengths[0]) == len(keys) == (
        value_lengths.count(value_lengths[0])
    ):
        headers = itertools.repeat(next(headers))
    return b"".join(itertools.chain.from_iterable(zip(headers, keys, values)))


@functools.lru_cache(maxsize=64)
def _uniform_records(key_len, value_len):
    """The struct of one record whose key and value are ``key_len`` and
    ``value_len`` bytes: its header skipped, its key and value unpacked."""
    return struct.Struct(">%dx%ds%ds" % (_RECORD_HEADER.size, key_len, value_len))


def _parse(data):
    """The parser of the framing: ``(records, end, short)`` — the records
    that lie wholly inside ``data`` (a ``bytes``), where the last of them
    ended, and how many bytes the record starting there is short of — 0
    exactly when ``data`` ends on a record boundary.

    A chunk whose records all have the first one's header (spilled
    states and ``Msg`` runs of a fixed-width codec) is unpacked by one
    ``iter_unpack`` once every one of those headers is checked, a byte
    position of all of them per compare; any other header sends the
    chunk to the record-by-record loop, from its first byte."""
    unpack_header = _RECORD_HEADER.unpack_from
    header_size = _RECORD_HEADER.size
    size = len(data)
    records = []
    offset = 0
    if size >= header_size:
        key_len, value_len = unpack_header(data, 0)
        width = header_size + key_len + value_len
        count = size // width
        span = count * width
        if count > 1 and all(
            data[at:span:width] == data[at:at + 1] * count
            for at in range(header_size)
        ):
            records = list(
                _uniform_records(key_len, value_len).iter_unpack(memoryview(data)[:span])
            )
            offset = span
    append = records.append
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


def _decoded(chunks, loads_many):
    """The ``(key, value)`` pairs of chunks of ``(key, image)`` records,
    each chunk's images decoded by one ``loads_many``."""
    return itertools.chain.from_iterable(
        map(functools.partial(_decoded_chunk, loads_many), chunks)
    )


def _decoded_chunk(loads_many, records):
    return zip(map(LEAD, records), loads_many(list(map(_VALUE, records))))


def _cut_inside_a_record(what, at, short):
    raise StorageError(
        "%s is cut inside a record at offset %d (at least %d bytes missing)"
        % (what, at, short)
    )


def iter_pairs(blob):
    """Inverse of :func:`pack_pairs`."""
    records, end, short = _parse(bytes(blob))
    if short:
        _cut_inside_a_record("a blob of framed pairs", end, short)
    return iter(records)


class RunFileReader:
    """The ``(key, value)`` records of one extent ``(offset, length)``
    of a run file (the whole file by default), read in order by
    positioned reads of ``fd`` if its owner keeps the file open, else of
    ``path``, opened per reading."""

    def __init__(self, path, file_manager=None, extent=None, fd=None):
        self.path = path
        self.files = file_manager
        self.extent = extent
        self.fd = fd

    def __iter__(self):
        return itertools.chain.from_iterable(self.chunks())

    def chunks(self):
        """The records, one list per read of :data:`_READ_CHUNK` bytes
        (or of the one record that is longer). The bytes parsed are
        charged to the file manager however the reading ends; an extent
        that ends inside a record, or past the file's end, is a
        :class:`StorageError` naming the file and the offset."""
        fd = self.fd
        opened = fd is None
        if opened:
            try:
                fd = os.open(self.path, os.O_RDONLY)
            except FileNotFoundError:
                # Every owner writes its run before reading it.
                raise StorageError("run file %s is missing" % self.path) from None
        offset, length = self.extent or (0, os.fstat(fd).st_size)
        at, end = offset, offset + length
        parsed = short = 0
        data = b""
        try:
            while at < end:
                more = os.pread(fd, min(max(_READ_CHUNK, short), end - at), at)
                if not more:
                    break
                at += len(more)
                data += more
                records, cut, short = _parse(data)
                parsed += cut
                data = data[cut:]
                if records:
                    yield records
        finally:
            if opened:
                os.close(fd)
            if self.files is not None and parsed:
                self.files.record_run_read(parsed)
        if at < end or data:
            _cut_inside_a_record(
                "run file %s" % self.path, offset + parsed, max(short, end - at)
            )


class SortedRuns:
    """The sorted runs one operator clone spills, and their only owner:
    :attr:`extents` ``(offset, length)`` of one file, which the first
    :meth:`spill` creates (``create_temp_path(hint)``). A context manager
    to hold around *both* run generation and the consumption of
    :meth:`merged`: it then deletes the file when the consumer exhausts
    the stream, abandons it, or anything raises.

    Every spill counts one run, in the job's counters (``spilled_runs``)
    and in the registry (``storage.spill.runs{hint=...}``); a context
    with no job (an operator driven on its own) counts nothing.
    """

    def __init__(self, ctx, hint, value_serde):
        self.files = ctx.files
        self.job = getattr(ctx, "job", None)
        self.hint = hint
        self.value_serde = value_serde
        self.path = None
        self.extents = []
        self._handle = None
        self._replays = []

    def spill(self, pairs):
        """Write ``(key bytes, value)`` pairs, in key order, as one more run."""
        pairs = list(pairs)
        image = pack_pairs(zip(
            map(LEAD, pairs), self.value_serde.dumps_many(map(_VALUE, pairs))
        ))
        if self._handle is None:
            self.path = self.files.create_temp_path(self.hint)
            self._handle = open(self.path, "w+b")
        offset = sum(self.extents[-1]) if self.extents else 0
        self._handle.write(image)
        self._handle.flush()
        self.extents.append((offset, len(image)))
        self.files.record_run_write(len(image))
        if self.job is not None:
            self.job.counters.add("spilled_runs")
            self.job.telemetry.registry.counter(
                "storage.spill.runs", hint=self.hint
            ).inc()

    def merged(self, tail=()):
        """The pairs of every run, in the order spilled, and of ``tail``
        (sorted pairs still in memory), merged."""
        return itertools.chain.from_iterable(self.merged_rounds(tail))

    def merged_rounds(self, tail=()):
        """:meth:`merged` as the rounds of :func:`merge_sorted`: sorted
        lists, each going on where the one before stopped. A run of one
        read chunk is read and decoded whole, and merged as a list; a
        longer one is replayed a chunk at a time."""
        streams = []
        for extent in self.extents:
            replay = RunFileReader(
                self.path, self.files, extent, self._handle.fileno()
            ).chunks()
            self._replays.append(replay)
            run = _decoded(replay, self.value_serde.loads_many)
            streams.append(list(run) if extent[1] <= _READ_CHUNK else run)
        return merge_sorted_rounds(streams + [tail])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for replay in self._replays:
            replay.close()  # charges what it read
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self.files.delete_path(self.path)


class RunFile:
    """One sorted run as a stored relation partition: the three calls
    the plans make on one (``bulk_load``, ``scan``, ``destroy``), shaped
    as :class:`~repro.hyracks.storage.index.Index` shapes them, so the
    index operators take a run as they take a B-tree.

    The run is its *image*, the bytes :func:`pack_pairs` frames its pairs
    into. The image stays in memory while ``budget`` (the node's
    :class:`~repro.common.accounting.MemoryBudget`) takes a charge of its
    length, and goes to a run file (``create_temp_path(hint)``, then
    :attr:`path`) only when the budget refuses it; either way it is read
    back by the one parser. :meth:`destroy` gives the charge back or
    deletes the file."""

    def __init__(self, file_manager, hint, budget):
        self.files = file_manager
        self.hint = hint
        self.budget = budget
        #: The image while it is resident, ``None`` otherwise.
        self.image = None
        #: The run file, once the image went to one.
        self.path = None
        self._epoch = None  # of the budget charge the image holds

    def bulk_load(self, pairs):
        self._hold(pack_pairs(pairs))

    def adopt(self, image):
        """Take ``image``, a blob of framed pairs, as the run."""
        iter_pairs(image)  # raises if it is cut inside a record
        self._hold(bytes(image))

    def _hold(self, image):
        try:
            self._epoch = self.budget.allocate(len(image), what="msg")
        except MemoryBudgetExceeded:
            self.path = self.files.create_temp_path(self.hint)
            with open(self.path, "wb") as handle:
                handle.write(image)
            self.files.record_run_write(len(image))
        else:
            self.image = image

    def packed(self):
        """The run as one blob of the framing: the image itself while it
        is resident, the file read back otherwise."""
        if self.image is not None:
            return self.image
        return pack_pairs(self.scan())

    def scan(self):
        return itertools.chain.from_iterable(self._chunks())

    def scan_decoded(self, loads_many):
        """:meth:`scan` with every value decoded, by one ``loads_many``
        per chunk read."""
        return _decoded(self._chunks(), loads_many)

    def _chunks(self):
        if self.image is not None:
            return (_parse(self.image)[0],)
        return RunFileReader(self.path, self.files).chunks()

    def destroy(self):
        if self.image is not None:
            self.budget.release(len(self.image), self._epoch)
            self.image = None
        elif self.path is not None:
            self.files.delete_path(self.path)

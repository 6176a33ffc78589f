"""Sequential run files: spill output for sorts, group-bys, and Msg data.

A run file is a flat local file of length-prefixed ``(key, value)`` byte
records written once and scanned sequentially — exactly the shape of an
external sort run or of the sorted per-partition ``Msg`` relation the
paper stores "in temporary local files" between supersteps.

This is the one framing of a ``(key, value)`` byte pair: a run file and
a checkpoint blob (:func:`pack_pairs`/:func:`iter_pairs`) are the same
bytes.
"""

import os
import struct

_RECORD_HEADER = struct.Struct(">II")
_BUFFER_LIMIT = 1 << 20


def pack_pairs(pairs):
    """Frame ``(key, value)`` byte pairs into one blob."""
    parts = []
    for key, value in pairs:
        parts += (_RECORD_HEADER.pack(len(key), len(value)), key, value)
    return b"".join(parts)


def iter_pairs(blob):
    """Inverse of :func:`pack_pairs`."""
    offset = 0
    view = memoryview(blob)
    while offset < len(view):
        key_len, value_len = _RECORD_HEADER.unpack_from(view, offset)
        offset += _RECORD_HEADER.size
        key = bytes(view[offset : offset + key_len])
        offset += key_len
        value = bytes(view[offset : offset + value_len])
        offset += value_len
        yield key, value


class RunFileWriter:
    """Appends ``(key, value)`` byte records to a local file."""

    def __init__(self, path, file_manager=None):
        self.path = path
        self.files = file_manager
        self._handle = open(path, "wb")
        self._buffer = []
        self._buffered_bytes = 0
        self.records_written = 0
        self.bytes_written = 0

    def append(self, key, value):
        record = _RECORD_HEADER.pack(len(key), len(value)) + key + value
        self._buffer.append(record)
        self._buffered_bytes += len(record)
        self.records_written += 1
        self.bytes_written += len(record)
        if self._buffered_bytes >= _BUFFER_LIMIT:
            self._flush()

    def close(self):
        if self._handle.closed:
            return
        self._flush()
        self._handle.close()
        if self.files is not None:
            # Through the manager so latency realism charges the spill.
            self.files.record_run_write(self.bytes_written)

    def _flush(self):
        if self._buffer:
            self._handle.write(b"".join(self._buffer))
            self._buffer = []
            self._buffered_bytes = 0

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
        if not os.path.exists(self.path):
            return
        total = 0
        with open(self.path, "rb") as handle:
            while True:
                header = handle.read(_RECORD_HEADER.size)
                if not header:
                    break
                key_len, value_len = _RECORD_HEADER.unpack(header)
                key = handle.read(key_len)
                value = handle.read(value_len)
                total += _RECORD_HEADER.size + key_len + value_len
                yield key, value
        if self.files is not None and total:
            self.files.record_run_read(total)

    def delete(self):
        if os.path.exists(self.path):
            os.remove(self.path)


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
            for key, value in pairs:
                writer.append(key, value)

    def scan(self):
        return iter(RunFileReader(self.path, self.files))

    def destroy(self):
        self.files.delete_path(self.path)

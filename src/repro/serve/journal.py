"""The durable job journal: an append-only, CRC-framed WAL (DESIGN.md §6).

The serve layer's crash-safety rests on one file: every job lifecycle
transition — ``submitted`` (with the full request), ``started`` (with
the pre-allocated run id and resolved plan signature), ``finished``
(with the terminal state, result document and digest), ``cancelled`` —
is appended to the journal *before* it becomes observable, so a service
process that dies at any instant can be restarted and replay the journal
into the exact set of obligations it still owes: queued jobs re-enqueue,
running jobs resume from their last verified checkpoint, finished jobs
re-seed the result cache and are never re-executed.

Frame format (all integers big-endian)::

    +----+----------+-----------+------------------+
    | RJ | len (u32)| crc (u32) | payload (JSON)   |
    +----+----------+-----------+------------------+

The crc32 covers the payload only, so a record is self-verifying: replay
walks frames until the first one that is short, mis-magicked, or fails
its CRC — the *torn tail* a crash mid-append leaves behind — truncates
the file back to the last whole record, and carries on. A torn tail is
expected damage, never a reason to abort recovery.

Two storage backends share one interface:

* :class:`DFSJournalStorage` — the journal lives in MiniDFS (the
  tentpole's home position: the WAL sits next to the checkpoints it
  points at). Damaged blocks are salvaged block-by-block so a corrupted
  record behaves exactly like a torn one.
* :class:`LocalJournalStorage` — a real file with fsync'd appends, for
  cross-*process* durability: the CLI's ``--journal DIR`` uses it so a
  ``kill -9`` of the serving process provably loses nothing.

Fault injection: every append consults the ``journal.append`` chaos
site. ``transient_io`` is absorbed by the attached retry policy;
``torn_write``/``corrupt`` land the record and then damage the fresh
tail, producing precisely the partial-final-record shape replay must
absorb.
"""

import json
import os
import struct
import threading
import time
import zlib
from collections import OrderedDict, deque

from repro.chaos.faults import FaultInjector
from repro.common.errors import ChecksumError, ReproError
from repro.hdfs.retry import RetryPolicy
from repro.serve.api import ServiceCrashed
from repro.telemetry import Telemetry

#: Two magic bytes open every frame; a mismatch marks the torn tail.
MAGIC = b"RJ"
_HEADER = struct.Struct(">2sII")  # magic, payload length, payload crc32

#: The record types the replay state machine understands.
RECORD_SUBMITTED = "submitted"
RECORD_STARTED = "started"
RECORD_FINISHED = "finished"
RECORD_CANCELLED = "cancelled"
RECORD_TYPES = (
    RECORD_SUBMITTED,
    RECORD_STARTED,
    RECORD_FINISHED,
    RECORD_CANCELLED,
)


def encode_record(payload):
    """Frame one JSON-able payload dict into bytes."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(MAGIC, len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def iter_frames(data):
    """Yield ``(payload_dict, end_offset)`` for every whole, valid frame.

    Stops at the first frame that is incomplete, carries the wrong
    magic, or fails its CRC — everything from that offset on is the
    torn tail. The last yielded ``end_offset`` is therefore the byte
    length of the journal's valid prefix.
    """
    view = memoryview(data)
    offset = 0
    while offset + _HEADER.size <= len(view):
        magic, length, crc = _HEADER.unpack_from(view, offset)
        if magic != MAGIC:
            return
        body_start = offset + _HEADER.size
        body_end = body_start + length
        if body_end > len(view):
            return  # partial final record
        body = bytes(view[body_start:body_end])
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return
        offset = body_end
        yield payload, offset


# ----------------------------------------------------------------------
# storage backends
# ----------------------------------------------------------------------
class DFSJournalStorage:
    """The journal as one MiniDFS file.

    Reads are salvage-tolerant: a block whose checksum fails ends the
    readable prefix instead of raising, so an injected ``corrupt`` on
    the tail block degrades into the same torn-tail shape as a crash.
    """

    def __init__(self, dfs, path="/serve/journal.wal"):
        self.dfs = dfs
        self.path = path

    def read(self):
        if not self.dfs.exists(self.path):
            return b""
        try:
            return self.dfs.read(self.path)
        except ChecksumError:
            chunks = []
            for index in range(len(self.dfs.block_locations(self.path))):
                try:
                    chunks.append(self.dfs.read_block(self.path, index))
                except ChecksumError:
                    break
            return b"".join(chunks)

    def append(self, data):
        self.dfs.append(self.path, data)

    def truncate(self, keep_bytes):
        if self.dfs.exists(self.path):
            self.dfs.truncate(self.path, keep_bytes)

    def size(self):
        if not self.dfs.exists(self.path):
            return 0
        return self.dfs.status(self.path).length

    def damage_tear(self, keep_bytes):
        self.dfs.tear(self.path, keep_bytes=keep_bytes)

    def damage_corrupt(self):
        self.dfs.corrupt(self.path, block=-1)

    def describe(self):
        return "dfs:%s" % self.path


class LocalJournalStorage:
    """The journal as a real file with fsync'd appends.

    This is the backend a ``kill -9`` test needs: MiniDFS is in-memory
    and dies with the process, but a local WAL written through
    ``os.fsync`` survives, so a restarted process recovers every job.
    """

    def __init__(self, path):
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def read(self):
        if not os.path.exists(self.path):
            return b""
        with open(self.path, "rb") as handle:
            return handle.read()

    def append(self, data):
        with open(self.path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def truncate(self, keep_bytes):
        if os.path.exists(self.path):
            with open(self.path, "r+b") as handle:
                handle.truncate(keep_bytes)
                handle.flush()
                os.fsync(handle.fileno())

    def size(self):
        if not os.path.exists(self.path):
            return 0
        return os.path.getsize(self.path)

    def damage_tear(self, keep_bytes):
        self.truncate(keep_bytes)

    def damage_corrupt(self):
        size = self.size()
        if size == 0:
            return
        with open(self.path, "r+b") as handle:
            handle.seek(size - 1)
            last = handle.read(1)
            handle.seek(size - 1)
            handle.write(bytes([last[0] ^ 0x01]))

    def describe(self):
        return "file:%s" % self.path


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
class JournalReplay:
    """What one replay pass recovered."""

    def __init__(self, records, torn_bytes, valid_bytes):
        self.records = records
        self.torn_bytes = torn_bytes
        self.valid_bytes = valid_bytes

    def by_job(self):
        """Fold records into the per-job replay state machine input.

        Returns ``{job_id: {record_type: record, ..., "last": type}}``
        in first-submission order. Later records of the same type win
        (a re-started resume overwrites the earlier ``started``).
        """
        jobs = OrderedDict()
        for record in self.records:
            job_id = record.get("job_id")
            record_type = record.get("type")
            if not job_id or record_type not in RECORD_TYPES:
                continue
            entry = jobs.setdefault(job_id, {})
            entry[record_type] = record
            entry["last"] = record_type
        return jobs


class Journal:
    """An append-only, CRC-framed write-ahead log of job transitions.

    :param storage: a :class:`DFSJournalStorage` or
        :class:`LocalJournalStorage` (anything with the same five
        methods).
    :param telemetry: the service's session; a journal opened
        standalone records into a private disabled one.
    :param fault_injector: the service's cluster's chaos hook, consulted
        at ``journal.append``; standalone, a private unarmed one.

    ``transient_io`` faults are absorbed in place by the journal's own
    :class:`~repro.hdfs.retry.RetryPolicy`, which retries into
    ``telemetry``.
    """

    #: appends in the rolling latency average overload shedding consults.
    LATENCY_WINDOW = 32

    def __init__(self, storage, telemetry=None, fault_injector=None):
        self.storage = storage
        self.telemetry = telemetry or Telemetry(enabled=False)
        self.fault_injector = fault_injector or FaultInjector()
        self.retry = RetryPolicy(telemetry=self.telemetry)
        self._latencies = deque(maxlen=self.LATENCY_WINDOW)
        self._lock = threading.Lock()
        self._frozen = False
        self.records_appended = 0
        self.torn_tails_repaired = 0

    # ------------------------------------------------------------------
    def append(self, record_type, job_id, **fields):
        """Durably log one lifecycle transition; returns the payload.

        Raises :class:`~repro.serve.api.ServiceCrashed` when the journal
        is frozen (the simulated process already died — late writers
        from worker threads must unwind, not land records posthumously).
        """
        if record_type not in RECORD_TYPES:
            raise ReproError("unknown journal record type %r" % record_type)
        payload = dict(fields)
        payload["type"] = record_type
        payload["job_id"] = job_id
        payload["ts"] = time.time()
        frame = encode_record(payload)
        with self._lock:
            if self._frozen:
                raise ServiceCrashed("journal")
            mutation = self.retry.call(
                lambda: self.fault_injector.check(
                    "journal.append", record=record_type,
                    job_id=job_id, bytes=len(frame),
                ),
                describe="journal.append %s" % job_id,
            )
            started = time.perf_counter()
            size_before = self.storage.size()
            self.storage.append(frame)
            self._latencies.append(time.perf_counter() - started)
            self.records_appended += 1
            if mutation == "torn_write":
                # Cut inside the fresh record: the canonical torn tail.
                self.storage.damage_tear(size_before + len(frame) // 2)
            elif mutation == "corrupt":
                self.storage.damage_corrupt()
        self.telemetry.event(
            "serve.journal.append", category="serve", record=record_type,
            job_id=job_id, bytes=len(frame),
        )
        self.telemetry.registry.counter("serve.journal.appends").inc()
        return payload

    # ------------------------------------------------------------------
    def replay(self):
        """Parse every whole record; truncate and report any torn tail."""
        data = self.storage.read()
        records = []
        valid = 0
        for payload, end in iter_frames(data):
            records.append(payload)
            valid = end
        torn = self.storage.size() - valid
        if torn > 0:
            self.storage.truncate(valid)
            self.torn_tails_repaired += 1
            self.telemetry.event(
                "serve.journal.torn_tail", category="serve",
                torn_bytes=torn, kept_records=len(records),
            )
        self.telemetry.event(
            "serve.journal.replay", category="serve",
            records=len(records), torn_bytes=max(torn, 0),
        )
        return JournalReplay(records, max(torn, 0), valid)

    # ------------------------------------------------------------------
    def freeze(self):
        """Crash simulation: refuse every later append (process died)."""
        with self._lock:
            self._frozen = True

    @property
    def frozen(self):
        return self._frozen

    def avg_append_seconds(self):
        with self._lock:
            if not self._latencies:
                return 0.0
            return sum(self._latencies) / len(self._latencies)

    def stats(self):
        return {
            "location": self.storage.describe(),
            "bytes": self.storage.size(),
            "records_appended": self.records_appended,
            "torn_tails_repaired": self.torn_tails_repaired,
            "avg_append_seconds": self.avg_append_seconds(),
            "frozen": self._frozen,
        }


def open_journal(target, telemetry=None, fault_injector=None, dfs=None):
    """Build a :class:`Journal` at ``target``, which names its backend:

    * ``file:<path>`` — :class:`LocalJournalStorage`, a real fsync'd file
      that survives ``kill -9`` (``journal.wal`` is appended to a
      directory or an extension-less path);
    * ``dfs:<path>`` — :class:`DFSJournalStorage` in ``dfs``.

    Anything else is refused rather than guessed at: an unprefixed path
    that silently landed in the in-process MiniDFS would die with the
    process it was meant to outlive.
    """
    if isinstance(target, str) and target.startswith("dfs:"):
        if dfs is None:
            raise ReproError("journal target %r requires an attached DFS" % target)
        storage = DFSJournalStorage(dfs, target[len("dfs:"):])
    elif isinstance(target, str) and target.startswith("file:"):
        path = target[len("file:"):]
        if os.path.isdir(path) or not os.path.splitext(path)[1]:
            path = os.path.join(path, "journal.wal")
        storage = LocalJournalStorage(path)
    else:
        raise ReproError(
            "journal target %r must be file:<path> (a local file) or "
            "dfs:<path> (a file in the attached DFS)" % (target,)
        )
    return Journal(storage, telemetry=telemetry, fault_injector=fault_injector)

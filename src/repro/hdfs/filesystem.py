"""An in-process, block-structured distributed file system simulation.

Files live in a flat ``/``-separated namespace. Each file is chopped into
fixed-size blocks; every block is assigned ``replication`` datanode
locations round-robin, so a scheduler can ask "where does this split
live?" and place a scan task on one of those nodes — the locality
optimization Section 5.7 of the paper attributes to the Pregelix
scheduler.

The bytes themselves are kept in memory (one process simulates the whole
cluster); durability across *simulated* worker failures is exactly what
checkpoint/recovery needs, because MiniDFS outlives any worker.

Integrity: every block carries a CRC32 computed at write time (HDFS
keeps per-chunk CRCs in sidecar ``.crc`` files; we keep them next to the
block). Reads verify and raise
:class:`~repro.common.errors.ChecksumError` on mismatch; callers that
want a non-raising audit use :meth:`MiniDFS.verify`. The chaos hooks
:meth:`corrupt` and :meth:`tear` damage stored state the way real
hardware does — bit flips leave the recorded checksum stale, torn writes
leave a self-consistent prefix — so the two failure modes are caught by
*different* layers (block CRCs vs. checkpoint-manifest sizes).

Fault injection / retry: every :meth:`write` first consults the
``dfs.write`` site of the DFS's
:class:`~repro.chaos.faults.FaultInjector` — the cluster's, handed in at
construction, or a private unarmed one. A ``transient_io`` fault raises
:class:`~repro.common.errors.TransientIOError`, which the DFS's own
``retry_policy`` (see :class:`repro.hdfs.retry.RetryPolicy`) absorbs
with seeded exponential backoff — the way a real HDFS client retries a
flaky pipeline before surfacing the error. The policy is there from
construction, so the load's first write is covered as much as a
checkpoint's; its retries land in the injector's telemetry session.
"""

import threading
import zlib
from dataclasses import dataclass

from repro.chaos.faults import FaultInjector
from repro.hdfs.retry import RetryPolicy


@dataclass(frozen=True)
class BlockLocation:
    """Placement of one block: byte range plus replica datanode ids."""

    offset: int
    length: int
    hosts: tuple


@dataclass(frozen=True)
class FileStatus:
    """Namenode-style metadata for a single file."""

    path: str
    length: int
    block_size: int
    replication: int


def _crc(data):
    return zlib.crc32(data) & 0xFFFFFFFF


class _File:
    def __init__(self, blocks, block_size, locations):
        self.blocks = blocks
        self.block_size = block_size
        self.locations = locations
        self.checksums = [_crc(b) for b in blocks]
        crc = 0
        for block in blocks:
            crc = zlib.crc32(block, crc)
        self.crc32 = crc & 0xFFFFFFFF

    @property
    def length(self):
        return sum(len(block) for block in self.blocks)

    def data(self):
        return b"".join(self.blocks)

    def bad_blocks(self):
        """Indexes of blocks whose bytes no longer match their CRC."""
        return [
            index
            for index, (block, crc) in enumerate(zip(self.blocks, self.checksums))
            if _crc(block) != crc
        ]


class MiniDFS:
    """The simulated distributed file system.

    :param datanodes: node identifiers replicas are spread across.
    :param block_size: split granularity in bytes.
    :param replication: replicas per block (capped at ``len(datanodes)``).
    :param fault_injector: the cluster's chaos hook, consulted at the
        ``dfs.write`` site on every write; standalone, a private unarmed
        one.
    """

    def __init__(self, datanodes=("node0",), block_size=1 << 16, replication=3,
                 fault_injector=None):
        if not datanodes:
            raise ValueError("MiniDFS needs at least one datanode")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.datanodes = list(datanodes)
        self.block_size = int(block_size)
        self.replication = min(int(replication), len(self.datanodes))
        self._files = {}
        self._next_node = 0
        self._placement_lock = threading.Lock()
        # Namespace lock: concurrent jobs (repro.serve) write disjoint
        # paths but still race directory *iteration* (list/delete/rename)
        # against dict resizes. Re-entrant because aggregate operations
        # (total_bytes, verify_tree) call list_files while holding it.
        self._ns_lock = threading.RLock()
        self.fault_injector = fault_injector or FaultInjector()
        #: Retry around the ``dfs.write`` fault check.
        self.retry_policy = RetryPolicy(telemetry=self.fault_injector.telemetry)

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------
    def exists(self, path):
        return self._normalize(path) in self._files

    def list_files(self, prefix=""):
        """All file paths under ``prefix``, sorted."""
        prefix = self._normalize(prefix) if prefix else ""
        with self._ns_lock:
            return sorted(path for path in self._files if path.startswith(prefix))

    def delete(self, path, recursive=False):
        """Remove a file, or a whole subtree when ``recursive``."""
        path = self._normalize(path)
        with self._ns_lock:
            if recursive:
                doomed = [
                    p for p in self._files if p == path or p.startswith(path + "/")
                ]
                for p in doomed:
                    del self._files[p]
                return bool(doomed)
            if path in self._files:
                del self._files[path]
                return True
            return False

    def rename(self, src, dst, overwrite=False):
        """Atomically move ``src`` to ``dst``.

        Like HDFS, rename is the namespace's only atomic publish
        primitive — the checkpoint commit protocol relies on it. With
        ``overwrite`` the destination is replaced (rename2 semantics);
        otherwise an existing destination raises :class:`FileExistsError`.
        """
        src = self._normalize(src)
        dst = self._normalize(dst)
        with self._ns_lock:
            if src not in self._files:
                raise FileNotFoundError(src)
            if dst in self._files and not overwrite:
                raise FileExistsError(dst)
            self._files[dst] = self._files.pop(src)

    def status(self, path):
        path = self._normalize(path)
        handle = self._require(path)
        return FileStatus(
            path=path,
            length=handle.length,
            block_size=handle.block_size,
            replication=self.replication,
        )

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------
    def write(self, path, data):
        """Create (or replace) ``path`` with ``data`` bytes (a ``str`` is
        written as UTF-8); returns how many bytes that is.

        Consults the attached fault injector first: a ``transient_io``
        fault raises before any byte lands (and is absorbed by the
        ``retry_policy`` until its attempts run out); ``corrupt`` /
        ``torn_write`` faults let the write complete, then damage the
        stored state the way failing hardware would.
        """
        path = self._normalize(path)
        if isinstance(data, str):
            data = data.encode("utf-8")
        action = self._check_write_fault(path, len(data))
        blocks = [
            bytes(data[i : i + self.block_size])
            for i in range(0, len(data), self.block_size)
        ] or [b""]
        locations = [self._place_block() for _ in blocks]
        with self._ns_lock:
            self._files[path] = _File(blocks, self.block_size, locations)
        if action == "corrupt":
            self.corrupt(path)
        elif action == "torn_write":
            self.tear(path)
        return len(data)

    def append(self, path, data):
        """Append ``data`` to an existing file (creating it if missing).

        Appends are incremental — the tail block is extended and new
        blocks are chunked on, with only the touched blocks
        re-checksummed — so appending N records to a log costs O(N)
        bytes written, not O(N²) rewrites (the property the serve-layer
        job journal depends on). The existing content is verified first,
        so appending to a corrupted file surfaces the damage instead of
        burying it under fresh checksums. Like :meth:`write`, the
        ``dfs.write`` fault site is consulted, and ``corrupt`` /
        ``torn_write`` mutations are applied after the append lands.
        """
        if isinstance(data, str):
            data = data.encode("utf-8")
        with self._ns_lock:
            handle = self._files.get(self._normalize(path))
        if handle is None:
            self.write(path, data)
            return
        bad = handle.bad_blocks()
        if bad:
            from repro.common.errors import ChecksumError

            raise ChecksumError(path, bad)
        action = self._check_write_fault(self._normalize(path), len(data))
        with self._ns_lock:
            blocks = list(handle.blocks)
            locations = list(handle.locations)
            checksums = list(handle.checksums)
            if blocks == [b""]:
                blocks, locations, checksums = [], [], []
            offset = 0
            if blocks and len(blocks[-1]) < self.block_size:
                take = self.block_size - len(blocks[-1])
                blocks[-1] = blocks[-1] + bytes(data[:take])
                checksums[-1] = _crc(blocks[-1])
                offset = take
            while offset < len(data):
                blocks.append(bytes(data[offset : offset + self.block_size]))
                locations.append(self._place_block())
                checksums.append(_crc(blocks[-1]))
                offset += self.block_size
            if not blocks:
                blocks, checksums = [b""], [_crc(b"")]
                locations = [self._place_block()]
            # Swap in a fresh handle instead of mutating the old one, so
            # a concurrent reader sees either the before or the after
            # image, never a half-extended block list.
            updated = _File.__new__(_File)
            updated.blocks = blocks
            updated.block_size = handle.block_size
            updated.locations = locations
            updated.checksums = checksums
            # Extend the write-time metadata CRC incrementally: the
            # running crc32 over old-bytes-then-new equals crc32 of the
            # concatenation, so torn-write audits keep working.
            updated.crc32 = zlib.crc32(data, handle.crc32) & 0xFFFFFFFF
            self._files[path] = updated
        if action == "corrupt":
            self.corrupt(path)
        elif action == "torn_write":
            self.tear(path)

    def truncate(self, path, keep_bytes):
        """Shrink ``path`` to its first ``keep_bytes`` bytes, cleanly.

        Unlike the :meth:`tear` damage hook, truncation is a *deliberate*
        repair operation: the kept prefix is re-checksummed and the
        write-time metadata updated to match, so later audits see a
        consistent (shorter) file. Used by the job journal to drop a
        torn tail record during replay before new appends land.
        """
        path = self._normalize(path)
        handle = self._require(path)
        data = handle.data()
        keep_bytes = max(0, min(int(keep_bytes), len(data)))
        kept = data[:keep_bytes]
        blocks = [
            bytes(kept[i : i + self.block_size])
            for i in range(0, len(kept), self.block_size)
        ] or [b""]
        locations = handle.locations[: len(blocks)]
        while len(locations) < len(blocks):
            locations.append(self._place_block())
        with self._ns_lock:
            self._files[path] = _File(blocks, self.block_size, locations)

    def read(self, path):
        """Full contents of ``path`` as bytes (checksum-verified)."""
        path = self._normalize(path)
        handle = self._require(path)
        bad = handle.bad_blocks()
        if bad:
            from repro.common.errors import ChecksumError

            raise ChecksumError(path, bad)
        return handle.data()

    def read_text(self, path):
        return self.read(path).decode("utf-8")

    def write_text_lines(self, path, lines):
        """Write ``lines``, each ended by a newline; returns the bytes."""
        return self.write(path, "\n".join(lines) + ("\n" if lines else ""))

    def read_text_lines(self, path):
        text = self.read_text(path)
        return text.splitlines()

    def block_locations(self, path):
        """Locality hints: one :class:`BlockLocation` per block."""
        path = self._normalize(path)
        handle = self._require(path)
        locations = []
        offset = 0
        for block, hosts in zip(handle.blocks, handle.locations):
            locations.append(BlockLocation(offset, len(block), tuple(hosts)))
            offset += len(block)
        return locations

    def read_block(self, path, index):
        """Raw bytes of one block (used by locality-aware scans)."""
        path = self._normalize(path)
        handle = self._require(path)
        block = handle.blocks[index]
        if _crc(block) != handle.checksums[index]:
            from repro.common.errors import ChecksumError

            raise ChecksumError(path, [index])
        return block

    def total_bytes(self, prefix=""):
        """Aggregate size of all files under ``prefix``."""
        with self._ns_lock:
            return sum(self._files[p].length for p in self.list_files(prefix))

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def checksum(self, path):
        """Whole-file CRC32 recorded at write time (metadata only).

        Reflects what the writer handed in — exactly what a checkpoint
        manifest wants to pin down — without touching the stored bytes,
        so it stays cheap and never trips over later corruption.
        """
        return self._require(self._normalize(path)).crc32

    def content_checksum(self, path):
        """CRC32 of the bytes actually stored *now*.

        Differs from :meth:`checksum` exactly when the stored state no
        longer matches what the writer handed in — the comparison the
        checkpoint-manifest audit uses to catch torn writes, whose
        surviving prefix passes every per-block CRC.
        """
        handle = self._require(self._normalize(path))
        crc = 0
        for block in handle.blocks:
            crc = zlib.crc32(block, crc)
        return crc & 0xFFFFFFFF

    def verify(self, path):
        """Audit ``path``: list of corrupted block indexes (empty = ok)."""
        return self._require(self._normalize(path)).bad_blocks()

    def verify_tree(self, prefix=""):
        """Audit a subtree: ``{path: [bad block indexes]}`` for damage."""
        report = {}
        with self._ns_lock:
            for path in self.list_files(prefix):
                bad = self._files[path].bad_blocks()
                if bad:
                    report[path] = bad
        return report

    # ------------------------------------------------------------------
    # chaos hooks (used by repro.chaos and by tests)
    # ------------------------------------------------------------------
    def corrupt(self, path, block=0, offset=0, flip=0x01):
        """Flip bits in one stored block, leaving its CRC stale.

        Models silent bit rot / a bad sector: the namespace still lists
        the file at full size, but reading the block fails verification.
        """
        handle = self._require(self._normalize(path))
        block = block % len(handle.blocks)
        data = bytearray(handle.blocks[block])
        if not data:
            # An empty block can't hold a bit flip; fake a spurious byte.
            data = bytearray(b"\x00")
        offset = offset % len(data)
        data[offset] ^= flip or 0x01
        handle.blocks[block] = bytes(data)

    def tear(self, path, keep_bytes=None):
        """Truncate a file to a prefix, as a write torn by a crash would.

        Unlike :meth:`corrupt`, the surviving prefix is internally
        consistent (each kept block is re-checksummed), so block CRCs
        pass. The write-time metadata (:meth:`checksum`) is preserved —
        the namenode still records what the writer claimed — so only a
        higher-level audit comparing it against the stored content (or
        a manifest size check) can notice.
        """
        path = self._normalize(path)
        handle = self._require(path)
        data = handle.data()
        if keep_bytes is None:
            keep_bytes = len(data) // 2
        keep_bytes = max(0, min(int(keep_bytes), len(data)))
        kept = data[:keep_bytes]
        blocks = [
            bytes(kept[i : i + self.block_size])
            for i in range(0, len(kept), self.block_size)
        ] or [b""]
        locations = handle.locations[: len(blocks)]
        while len(locations) < len(blocks):
            locations.append(self._place_block())
        torn = _File(blocks, self.block_size, locations)
        torn.crc32 = handle.crc32  # write-time metadata survives the tear
        self._files[path] = torn

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_write_fault(self, path, num_bytes):
        """Consult the chaos injector; returns a mutation action or None."""
        return self.retry_policy.call(
            lambda: self.fault_injector.check("dfs.write", path=path, bytes=num_bytes),
            describe="dfs.write %s" % path,
        )

    def _place_block(self):
        # Concurrent writers round-robin through the same cursor; the
        # lock keeps the advance atomic so replicas stay evenly spread.
        with self._placement_lock:
            start = self._next_node
            self._next_node = (start + 1) % len(self.datanodes)
        return [
            self.datanodes[(start + i) % len(self.datanodes)]
            for i in range(self.replication)
        ]

    def _require(self, path):
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    @staticmethod
    def _normalize(path):
        if not path:
            raise ValueError("empty path")
        return "/" + path.strip("/")

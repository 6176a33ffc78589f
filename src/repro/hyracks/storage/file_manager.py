"""Per-node local file management for indexes, spill runs, and temp data.

Each simulated worker node owns one :class:`FileManager` rooted at a
private directory on the real local disk. Paged index files support
random page reads/writes; run files support sequential append/scan. All
traffic is recorded in the node's :class:`~repro.common.IOCounters`, which
the benchmark harness reads to report spill volumes.

Thread safety: concurrent jobs (the serving tier runs several at once)
touch the same node's manager. Id allocation is lock-guarded (two jobs
must never receive the same file id or temp path), and each paged file
serializes its seek+read/write pairs behind a per-file lock so
concurrent page accesses cannot interleave a seek from one thread with
the transfer of another.
"""

import os
import shutil
import threading

from repro.common.accounting import IOCounters
from repro.common.errors import StorageError


class _PagedFile:
    """A paged file, opened by its first page write: an index whose
    pages never leave the buffer cache creates no file."""

    def __init__(self, path):
        self.path = path
        self.handle = None
        self.num_pages = 0
        self.lock = threading.Lock()

    def close(self):
        if self.handle is not None and not self.handle.closed:
            self.handle.close()


class FileManager:
    """Creates, reads, writes, and deletes a node's local files.

    :param root: directory all files for this node live beneath.
    :param io_counters: optional shared counters; a private set is created
        when omitted.
    """

    def __init__(self, root, io_counters=None):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.io = io_counters if io_counters is not None else IOCounters()
        self._paged_files = {}
        self._ids_lock = threading.Lock()
        self._next_file_id = 0
        self._next_temp_id = 0

    # ------------------------------------------------------------------
    # paged files (index storage)
    # ------------------------------------------------------------------
    def create_paged_file(self, name=None):
        """A new paged file, opened by its first page write; returns its
        integer file id."""
        with self._ids_lock:
            file_id = self._next_file_id
            self._next_file_id += 1
        filename = name or ("paged-%d.dat" % file_id)
        path = os.path.join(self.root, filename)
        self._paged_files[file_id] = _PagedFile(path)
        return file_id

    def write_page(self, file_id, page_no, data, page_size):
        """Write one page image at its fixed offset, padding to page_size."""
        if len(data) > page_size:
            raise StorageError(
                "page image of %d bytes exceeds page size %d" % (len(data), page_size)
            )
        paged = self._require(file_id)
        with paged.lock:
            if paged.handle is None:
                paged.handle = open(paged.path, "w+b")
            paged.handle.seek(page_no * page_size)
            paged.handle.write(data.ljust(page_size, b"\x00"))
            paged.num_pages = max(paged.num_pages, page_no + 1)
        self.io.record_write(page_size)

    def read_page(self, file_id, page_no, page_size):
        """Read one page image back."""
        paged = self._require(file_id)
        with paged.lock:
            data = b""
            if paged.handle is not None:
                paged.handle.seek(page_no * page_size)
                data = paged.handle.read(page_size)
        if not data:
            raise StorageError(
                "page %d of file %d was never written" % (page_no, file_id)
            )
        self.io.record_read(page_size)
        return data

    def delete_paged_file(self, file_id):
        paged = self._paged_files.pop(file_id, None)
        if paged is None or paged.handle is None:
            return
        paged.close()
        if os.path.exists(paged.path):
            os.remove(paged.path)

    # ------------------------------------------------------------------
    # run files (sequential spill data)
    # ------------------------------------------------------------------
    def create_temp_path(self, hint="run"):
        """A fresh local path for a sequential temp file."""
        with self._ids_lock:
            self._next_temp_id += 1
            temp_id = self._next_temp_id
        return os.path.join(self.root, "%s-%06d.tmp" % (hint, temp_id))

    def record_run_write(self, nbytes):
        """Account a sequential spill write."""
        self.io.record_write(nbytes)

    def record_run_read(self, nbytes):
        """Account a sequential spill read."""
        self.io.record_read(nbytes)

    def delete_path(self, path):
        if os.path.exists(path):
            os.remove(path)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self):
        for paged in list(self._paged_files.values()):
            paged.close()
        self._paged_files.clear()

    def destroy(self):
        """Close everything and remove the node's directory."""
        self.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def wipe(self):
        """Close everything and empty the node's directory, which stays."""
        self.destroy()
        os.makedirs(self.root, exist_ok=True)

    def _require(self, file_id):
        try:
            return self._paged_files[file_id]
        except KeyError:
            raise StorageError("unknown paged file id %r" % (file_id,)) from None

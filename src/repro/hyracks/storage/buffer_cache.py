"""An LRU buffer cache that gracefully spills pages to local disk.

This is the component that gives Pregelix its transparent out-of-core
behaviour (paper Section 5.4): access methods pin pages through the
cache; when the configured byte capacity is exceeded, the least recently
used unpinned page is evicted, written back if dirty, and transparently
reloaded on the next pin. In-memory workloads never touch disk;
out-of-core workloads degrade smoothly instead of failing.

Thread safety (concurrent served jobs, DESIGN.md §3): a single metadata
latch serializes all map/LRU/pin-count bookkeeping, so concurrent
pin/unpin/evict/spill keep the cache's invariants — one Page object per
cached PageId, cached-bytes equals pages × page-size, no eviction of a
pinned page, no double-eviction. Page *content* needs no lock of its own
while pinned: a pinned page is never evicted or written back, an index
partition is only ever touched by one operator clone at a time, and
``flush_file``/``flush_all`` are not called while clones run. Writeback
still serializes the image under the page's latch, so a caller that does
share a pinned page across threads can take ``page.latch`` around its
edits (metadata → page latch order; release it before calling back into
the cache) and never have a half-applied update spilled.

Where the numbers live: ``BufferCache.stats`` is the one home of the
hit/miss/eviction/writeback counts, bumped under the metadata latch.
The engine diffs it into each ``JobResult`` and exports it per node; the
cache itself only emits the rare ``cache.evict``/``cache.spill`` events
into its ``telemetry`` session: its node's, or a private disabled one
when the cache is built standalone.
"""

import threading
from collections import OrderedDict

from repro.chaos.faults import FaultInjector
from repro.common.errors import StorageError
from repro.hyracks.storage.pages import Page, PageId
from repro.telemetry import Telemetry


class BufferCacheStats:
    """Hit/miss/eviction/writeback counts of one :class:`BufferCache`.

    Four plain ints with no lock of their own: the cache bumps them
    under its metadata latch, which every update site already holds.
    Readers (the engine's per-job deltas, the statistics collector, the
    metrics export) take :meth:`snapshot` or read a field.
    """

    FIELDS = ("hits", "misses", "evictions", "writebacks")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def snapshot(self):
        return {field: getattr(self, field) for field in self.FIELDS}


class BufferCache:
    """Caches :class:`Page` objects within a byte budget.

    :param capacity_bytes: total cached-page budget; 0 means "evict
        eagerly" (still correct, maximally disk-bound).
    :param page_size: fixed on-disk page image size.
    :param file_manager: the node-local :class:`FileManager` pages spill to.
    :param telemetry: the owning node's session; a standalone cache
        records into a private disabled one.
    :param fault_injector: the owning cluster's chaos hook, consulted at
        ``page.read`` and ``page.write``; a standalone cache holds a
        private unarmed one.
    """

    def __init__(self, capacity_bytes, page_size, file_manager, telemetry=None,
                 node_id=None, fault_injector=None):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.capacity = int(capacity_bytes)
        self.page_size = int(page_size)
        self.files = file_manager
        self.telemetry = telemetry or Telemetry(enabled=False)
        self.node_id = node_id
        self.fault_injector = fault_injector or FaultInjector()
        self.stats = BufferCacheStats()  # bumped under _latch only
        self._pages = OrderedDict()  # PageId -> Page, LRU order (oldest first)
        self._cached_bytes = 0
        self._next_page_no = {}  # file_id -> next unallocated page number
        self._on_disk = set()  # PageIds that have an on-disk image
        # Metadata latch: serializes map/LRU/pin-count bookkeeping across
        # concurrent jobs (reentrant: _admit -> _evict_to_fit nest).
        self._latch = threading.RLock()

    # ------------------------------------------------------------------
    # file lifecycle
    # ------------------------------------------------------------------
    def create_file(self, name=None):
        file_id = self.files.create_paged_file(name)
        with self._latch:
            self._next_page_no[file_id] = 0
        return file_id

    def delete_file(self, file_id):
        with self._latch:
            doomed = [pid for pid in self._pages if pid.file_id == file_id]
            for pid in doomed:
                page = self._pages.pop(pid)
                if page.pin_count:
                    raise StorageError(
                        "deleting file %d with pinned page %r" % (file_id, pid)
                    )
                self._cached_bytes -= self.page_size
            self._on_disk = {pid for pid in self._on_disk if pid.file_id != file_id}
            self._next_page_no.pop(file_id, None)
        self.files.delete_paged_file(file_id)

    # ------------------------------------------------------------------
    # page operations
    # ------------------------------------------------------------------
    def new_page(self, file_id, kind):
        """Allocate a fresh pinned page in ``file_id``."""
        with self._latch:
            if file_id not in self._next_page_no:
                raise StorageError("unknown file id %r" % (file_id,))
            page_no = self._next_page_no[file_id]
            self._next_page_no[file_id] = page_no + 1
            page = Page(PageId(file_id, page_no), kind, self.page_size)
            page.pin_count = 1
            page.dirty = True
            self._admit(page)
            return page

    def pin(self, page_id):
        """Return the page, loading it from disk on a miss; pins it."""
        with self._latch:
            page = self._pages.get(page_id)
            if page is not None:
                self.stats.hits += 1
                self._pages.move_to_end(page_id)
                page.pin_count += 1
            else:
                self.stats.misses += 1
                self.fault_injector.check(
                    "page.read",
                    node=self.node_id,
                    file_id=page_id.file_id,
                    page_no=page_id.page_no,
                )
                data = self.files.read_page(
                    page_id.file_id, page_id.page_no, self.page_size
                )
                page = Page.from_bytes(page_id, data, self.page_size)
                # Pin before admitting: the eviction pass a full cache runs
                # during admission must never select the page being returned.
                page.pin_count = 1
                self._admit(page)
            return page

    def unpin(self, page, dirty=False):
        with self._latch:
            if page.pin_count <= 0:
                raise StorageError("unpin of unpinned page %r" % (page.page_id,))
            page.pin_count -= 1
            if dirty:
                page.dirty = True
            self._evict_to_fit()

    def flush_file(self, file_id):
        """Write back every dirty cached page of ``file_id``."""
        with self._latch:
            for pid, page in self._pages.items():
                if pid.file_id == file_id and page.dirty:
                    self._writeback(page)

    def flush_all(self):
        with self._latch:
            for page in self._pages.values():
                if page.dirty:
                    self._writeback(page)

    @property
    def cached_bytes(self):
        return self._cached_bytes

    @property
    def num_cached_pages(self):
        return len(self._pages)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, page):
        self._pages[page.page_id] = page
        self._cached_bytes += self.page_size
        self._evict_to_fit()

    def _evict_to_fit(self):
        if self._cached_bytes <= self.capacity:
            return
        for pid in list(self._pages):
            if self._cached_bytes <= self.capacity:
                break
            page = self._pages[pid]
            if page.pin_count > 0:
                continue
            if page.dirty:
                self._writeback(page)
            del self._pages[pid]
            self._cached_bytes -= self.page_size
            self.stats.evictions += 1
            self.telemetry.event(
                "cache.evict",
                category="storage",
                node=self.node_id,
                file_id=pid.file_id,
                page_no=pid.page_no,
            )
        # All remaining pages may be pinned; that is legal (a burst of
        # pins can exceed capacity), eviction resumes at the next unpin.

    def _writeback(self, page):
        self.fault_injector.check(
            "page.write",
            node=self.node_id,
            file_id=page.page_id.file_id,
            page_no=page.page_id.page_no,
        )
        with page.latch:  # never serialize a half-applied update
            image = page.to_bytes()
            page.dirty = False
        self.files.write_page(
            page.page_id.file_id, page.page_id.page_no, image, self.page_size
        )
        self._on_disk.add(page.page_id)
        self.stats.writebacks += 1
        self.telemetry.event(
            "cache.spill",
            category="storage",
            node=self.node_id,
            file_id=page.page_id.file_id,
            page_no=page.page_id.page_no,
            bytes=self.page_size,
        )

"""Satellite stress test: 8 threads hammering one buffer cache.

The pool is far larger than the cache budget, so every thread constantly
forces pin misses, dirty writebacks, and evictions of pages other threads
just used. The assertions are the cache's safety contract under
concurrency (DESIGN.md §3):

* **no lost pages** — every committed update is still readable at the
  end, even though each page was spilled and reloaded many times;
* **no double evictions / no accounting drift** — ``cached_bytes`` is
  exactly ``page_size × resident pages`` and never exceeds capacity once
  all pins are released;
* **pin-count invariants** — every pin was matched by exactly one unpin,
  so every resident page ends with ``pin_count == 0``.
"""

import random
import threading

from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.pages import PageKind

NUM_THREADS = 8
OPS_PER_THREAD = 400
NUM_PAGES = 24
PAGE_SIZE = 512
CACHE_PAGES = 6  # resident budget far below the working set: constant churn


def test_eight_threads_pin_unpin_evict_spill(tmp_path):
    files = FileManager(str(tmp_path / "stress"))
    cache = BufferCache(CACHE_PAGES * PAGE_SIZE, PAGE_SIZE, files)
    file_id = cache.create_file("stress")
    page_ids = []
    for _ in range(NUM_PAGES):
        page = cache.new_page(file_id, PageKind.DATA)
        page_ids.append(page.page_id)
        cache.unpin(page, dirty=True)

    # committed[(thread, page_no)] = number of increments that thread
    # applied to its private key on that page; rebuilt from disk at the
    # end, so a lost writeback or torn eviction shows up as a mismatch.
    committed = {}
    errors = []
    start = threading.Barrier(NUM_THREADS)

    def worker(thread_id):
        rng = random.Random(1000 + thread_id)
        key = b"t%d" % thread_id
        try:
            start.wait()
            for _ in range(OPS_PER_THREAD):
                page_id = page_ids[rng.randrange(NUM_PAGES)]
                page = cache.pin(page_id)
                try:
                    with page.latch:
                        index = page.find(key)
                        count = (
                            int.from_bytes(page.values[index], "big")
                            if index is not None
                            else 0
                        )
                        page.put(key, (count + 1).to_bytes(4, "big"))
                finally:
                    cache.unpin(page, dirty=True)
                slot = (thread_id, page_id.page_no)
                committed[slot] = committed.get(slot, 0) + 1
        except Exception as error:  # surfaced by the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "stress run hung"
    assert not errors, errors

    # Pin-count invariant: every resident page fully unpinned.
    assert all(page.pin_count == 0 for page in cache._pages.values())
    # Accounting invariant: bytes match residency exactly, budget holds.
    assert cache.cached_bytes == cache.num_cached_pages * PAGE_SIZE
    assert cache.cached_bytes <= cache.capacity

    # No lost pages / updates: reload every page (forcing the remaining
    # dirty residents through writeback+read) and compare counters.
    cache.flush_all()
    recovered = {}
    for page_id in page_ids:
        page = cache.pin(page_id)
        try:
            with page.latch:
                for key, value in zip(page.keys, page.values):
                    thread_id = int(key[1:].decode())
                    recovered[(thread_id, page_id.page_no)] = int.from_bytes(
                        value, "big"
                    )
        finally:
            cache.unpin(page)
    assert recovered == committed
    assert sum(recovered.values()) == NUM_THREADS * OPS_PER_THREAD

    # The churn actually exercised the eviction path, not just hits.
    stats = cache.stats.snapshot()
    assert stats["evictions"] > 0
    assert stats["writebacks"] > 0
    assert stats["hits"] + stats["misses"] >= NUM_THREADS * OPS_PER_THREAD
    files.close()

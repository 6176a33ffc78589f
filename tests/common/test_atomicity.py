"""Satellite regression tests for the concurrency audit (DESIGN.md §13).

Concurrent served jobs share several read-modify-write paths on the
same nodes. Each test here pins one
audited path by hammering it from many threads and asserting the exact
count a serial run would produce — a lost update fails deterministically
enough in 8×1000 iterations to catch a reintroduced race.

Audited paths: telemetry counters/gauges/histograms, BufferCache stats,
MemoryBudget, FaultInjector.check, MiniDFS block placement, and
FileManager id allocation.
"""

import threading

from repro.chaos.faults import FaultInjector, FaultPlan, FaultSpec
from repro.common.accounting import MemoryBudget
from repro.hdfs import MiniDFS
from repro.hyracks.storage.file_manager import FileManager
from repro.telemetry.registry import MetricsRegistry

NUM_THREADS = 8
ITERATIONS = 1000


def hammer(fn, num_threads=NUM_THREADS):
    """Run ``fn(thread_id)`` concurrently; re-raise the first error."""
    errors = []
    barrier = threading.Barrier(num_threads)

    def runner(thread_id):
        try:
            barrier.wait()
            fn(thread_id)
        except Exception as error:
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(t,)) for t in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "hammer hung"
    if errors:
        raise errors[0]


def test_registry_counter_increments_are_atomic():
    registry = MetricsRegistry()
    counter = registry.counter("atomicity.count")
    hammer(lambda t: [counter.inc() for _ in range(ITERATIONS)])
    assert counter.value == NUM_THREADS * ITERATIONS


def test_registry_gauge_add_is_atomic():
    registry = MetricsRegistry()
    gauge = registry.gauge("atomicity.gauge")

    def work(thread_id):
        for _ in range(ITERATIONS):
            gauge.inc(3)
            gauge.dec(2)

    hammer(work)
    assert gauge.value == NUM_THREADS * ITERATIONS


def test_registry_histogram_observations_are_atomic():
    registry = MetricsRegistry()
    histogram = registry.histogram("atomicity.hist")
    hammer(lambda t: [histogram.observe(1.0) for _ in range(ITERATIONS)])
    assert histogram.summary()["count"] == NUM_THREADS * ITERATIONS


def test_buffer_cache_stats_lose_nothing_under_concurrent_pins(tmp_path):
    # BufferCacheStats has no lock of its own: the cache bumps it under
    # the metadata latch. Every pin is exactly one hit or one miss, and
    # with a working set 4x the cache every thread forces the others'
    # pages out, so evictions and writebacks are counted concurrently too.
    import sys

    from repro.hyracks.storage.buffer_cache import BufferCache
    from repro.hyracks.storage.pages import PageKind

    page_size, cached_pages, num_pages = 512, 4, 16
    cache = BufferCache(
        cached_pages * page_size, page_size, FileManager(str(tmp_path / "pins"))
    )
    file_id = cache.create_file("pins")
    page_ids = []
    for _ in range(num_pages):
        page = cache.new_page(file_id, PageKind.DATA)
        page_ids.append(page.page_id)
        cache.unpin(page, dirty=True)
    before = cache.stats.snapshot()

    def work(thread_id):
        for i in range(ITERATIONS):
            page = cache.pin(page_ids[(thread_id * 5 + i) % num_pages])
            cache.unpin(page, dirty=i % 3 == 0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        hammer(work)
    finally:
        sys.setswitchinterval(interval)
    after = cache.stats.snapshot()
    pins = NUM_THREADS * ITERATIONS
    assert (after["hits"] - before["hits"]) + (after["misses"] - before["misses"]) == pins
    # Every page ever admitted (the new ones plus one per miss) that is
    # not resident now was evicted exactly once.
    assert cache.num_cached_pages <= cached_pages
    assert after["evictions"] == num_pages + after["misses"] - cache.num_cached_pages
    assert after["writebacks"] <= after["evictions"]


def test_memory_budget_balanced_allocate_release():
    budget = MemoryBudget(NUM_THREADS * 64)

    def work(thread_id):
        for _ in range(ITERATIONS):
            budget.allocate(64)
            budget.release(64)

    hammer(work)
    assert budget.used == 0
    assert budget.peak <= budget.capacity


def test_fault_injector_fires_exactly_once():
    plan = FaultPlan([FaultSpec(site="operator.open", action="delay", at_hit=17)])
    injector = FaultInjector(plan)

    def work(thread_id):
        for _ in range(ITERATIONS // 4):
            injector.check("operator.open", node="node0")

    hammer(work)
    # checks/hits are shared RMWs: every check counted, no overshoot past
    # the firing hit (a lost update would let two threads both observe
    # hits < at_hit and fire twice), exactly one fire recorded.
    assert injector.checks == NUM_THREADS * (ITERATIONS // 4)
    assert plan.specs[0].hits == plan.specs[0].at_hit
    assert len(injector.fired) == 1


def test_minidfs_placement_stays_evenly_spread():
    dfs = MiniDFS(datanodes=["n0", "n1", "n2", "n3"], replication=1)
    writes_per_thread = 100

    def work(thread_id):
        for index in range(writes_per_thread):
            dfs.write("/t%d/f%d" % (thread_id, index), b"x")

    hammer(work)
    placements = [
        host
        for path in dfs.list_files()
        for location in dfs.block_locations(path)
        for host in location.hosts
    ]
    total = NUM_THREADS * writes_per_thread
    assert len(placements) == total
    # The round-robin cursor is advanced atomically, so the spread is
    # exact, not merely approximate.
    for node in dfs.datanodes:
        assert placements.count(node) == total // len(dfs.datanodes)


def test_file_manager_id_allocation_is_unique(tmp_path):
    files = FileManager(str(tmp_path / "fm"))
    paged_ids = []
    temp_paths = []

    def work(thread_id):
        for _ in range(50):
            paged_ids.append(files.create_paged_file())
            temp_paths.append(files.create_temp_path("run"))

    hammer(work)
    assert len(set(paged_ids)) == len(paged_ids) == NUM_THREADS * 50
    assert len(set(temp_paths)) == len(temp_paths) == NUM_THREADS * 50
    files.close()

"""Correctness tests for the LSM B-tree."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.accounting import IOCounters
from repro.common.errors import StorageError
from repro.common.serde import encode_key
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.lsm_btree import LSMBTree


@pytest.fixture
def lsm(buffer_cache):
    return LSMBTree(buffer_cache, memory_budget_bytes=1 << 12, max_components=3)


def key(i):
    return encode_key(i)


class TestBasicOperations:
    def test_insert_lookup(self, lsm):
        lsm.insert(key(1), b"one")
        assert lsm.lookup(key(1)) == b"one"
        assert lsm.lookup(key(2)) is None

    def test_overwrite_in_memory(self, lsm):
        lsm.insert(key(1), b"a")
        lsm.insert(key(1), b"b")
        assert lsm.lookup(key(1)) == b"b"

    def test_delete_with_tombstone(self, lsm):
        lsm.insert(key(1), b"x")
        assert lsm.delete(key(1))
        assert lsm.lookup(key(1)) is None
        assert not lsm.delete(key(1))

    def test_newer_component_wins(self, lsm):
        lsm.insert(key(1), b"old")
        lsm.flush_memory_component()
        lsm.insert(key(1), b"new")
        lsm.flush_memory_component()
        assert lsm.lookup(key(1)) == b"new"

    def test_delete_shadows_flushed_value(self, lsm):
        lsm.insert(key(1), b"x")
        lsm.flush_memory_component()
        lsm.delete(key(1))
        assert lsm.lookup(key(1)) is None
        lsm.flush_memory_component()
        assert lsm.lookup(key(1)) is None


class TestFlushAndMerge:
    def test_automatic_flush_on_budget(self, lsm):
        for i in range(2000):
            lsm.insert(key(i), b"payload-%05d" % i)
        assert lsm.flushes > 0
        assert lsm.memory_component_bytes < lsm.memory_budget
        assert lsm.lookup(key(0)) == b"payload-00000"
        assert lsm.lookup(key(1999)) == b"payload-01999"

    def test_merge_bounds_component_count(self, lsm):
        for i in range(5000):
            lsm.insert(key(i), b"v%05d" % i)
        lsm.flush_memory_component()
        assert lsm.num_disk_components <= lsm.max_components
        assert lsm.merges > 0

    def test_merge_drops_tombstones(self, buffer_cache):
        lsm = LSMBTree(buffer_cache, memory_budget_bytes=1 << 20, max_components=1)
        lsm.insert(key(1), b"a")
        lsm.insert(key(2), b"b")
        lsm.flush_memory_component()
        lsm.delete(key(1))
        lsm.flush_memory_component()  # second component triggers merge
        assert lsm.num_disk_components == 1
        assert dict(lsm.scan()) == {key(2): b"b"}

    def test_data_survives_merge(self, lsm):
        expected = {}
        for i in range(3000):
            value = b"val-%05d" % i
            lsm.insert(key(i), value)
            expected[key(i)] = value
        for i in range(0, 3000, 3):
            lsm.delete(key(i))
            del expected[key(i)]
        lsm.flush_memory_component()
        assert dict(lsm.scan()) == expected


class TestScan:
    def test_scan_merges_memory_and_disk(self, lsm):
        lsm.insert(key(2), b"disk")
        lsm.flush_memory_component()
        lsm.insert(key(1), b"mem")
        assert list(lsm.scan()) == [(key(1), b"mem"), (key(2), b"disk")]

    def test_scan_range(self, lsm):
        for i in range(100):
            lsm.insert(key(i), b"")
            if i % 10 == 0:
                lsm.flush_memory_component()
        keys = [k for k, _ in lsm.scan(low=key(20), high=key(30))]
        assert keys == [key(i) for i in range(20, 30)]

    def test_scan_skips_tombstones(self, lsm):
        lsm.insert(key(1), b"a")
        lsm.insert(key(2), b"b")
        lsm.flush_memory_component()
        lsm.delete(key(1))
        assert list(lsm.scan()) == [(key(2), b"b")]

    def test_scan_with_updates_during_iteration(self, lsm):
        for i in range(500):
            lsm.insert(key(i), b"%04d" % i)
        seen = []
        for k, _v in lsm.scan():
            seen.append(k)
            lsm.insert(k, b"NEWV")
        assert seen == [key(i) for i in range(500)]

    def test_len_counts_live_keys(self, lsm):
        for i in range(10):
            lsm.insert(key(i), b"")
        lsm.delete(key(3))
        assert len(lsm) == 9


class TestBulkLoad:
    def test_bulk_load(self, lsm):
        lsm.bulk_load([(key(i), b"v%d" % i) for i in range(500)])
        assert lsm.lookup(key(250)) == b"v250"
        assert lsm.num_disk_components == 1

    def test_bulk_load_rejects_non_empty(self, lsm):
        lsm.insert(key(1), b"")
        with pytest.raises(StorageError):
            lsm.bulk_load([(key(2), b"")])

    def test_updates_after_bulk_load(self, lsm):
        lsm.bulk_load([(key(i), b"orig") for i in range(100)])
        lsm.insert(key(50), b"updated")
        lsm.delete(key(51))
        assert lsm.lookup(key(50)) == b"updated"
        assert lsm.lookup(key(51)) is None
        assert lsm.lookup(key(52)) == b"orig"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "delete", "flush"]),
            st.integers(min_value=0, max_value=60),
        ),
        max_size=200,
    ),
    budget=st.integers(min_value=64, max_value=2048),
    bounds=st.tuples(st.integers(0, 60), st.integers(0, 60)),
)
def test_lsm_matches_dict_model(tmp_path_factory, operations, budget, bounds):
    """Property: flush/merge timing never changes observable contents —
    a scan is the sorted model (the newest write of a key wins, a
    tombstoned key is gone) whatever components the merge went over."""
    root = tmp_path_factory.mktemp("lsmprop")
    files = FileManager(str(root), IOCounters())
    cache = BufferCache(1 << 20, 4096, files)
    lsm = LSMBTree(cache, memory_budget_bytes=budget, max_components=2)
    model = {}
    for step, (op, i) in enumerate(operations):
        k = key(i)
        if op == "insert":
            value = b"v%d.%d" % (i, step)
            lsm.insert(k, value)
            model[k] = value
        elif op == "delete":
            lsm.delete(k)
            model.pop(k, None)
        else:
            lsm.flush_memory_component()
    assert list(lsm.scan()) == sorted(model.items())
    low, high = key(min(bounds)), key(max(bounds))
    assert list(lsm.scan(low, high)) == sorted(
        (k, value) for k, value in model.items() if low <= k < high
    )
    for k, value in model.items():
        assert lsm.lookup(k) == value
    files.destroy()


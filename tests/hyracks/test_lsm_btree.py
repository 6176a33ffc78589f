"""Correctness tests for the LSM B-tree."""

import contextlib
from itertools import islice
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.accounting import IOCounters
from repro.common.errors import StorageError
from repro.common.serde import encode_key
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.lsm_btree import LSMBTree


@pytest.fixture
def lsm(buffer_cache):
    return LSMBTree(buffer_cache, memory_budget_bytes=1 << 12, max_components=3)


def key(i):
    return encode_key(i)


@contextlib.contextmanager
def destroyed_trees():
    """The file id of every B-tree destroyed inside the scope, in order."""
    destroyed = []
    original = BTree.destroy

    def destroy(tree):
        destroyed.append(tree.file_id)
        original(tree)

    with mock.patch.object(BTree, "destroy", destroy):
        yield destroyed


def live_files(lsm):
    """The paged files the cache still knows, against those of the LSM's
    components: equal once no scan is open."""
    return set(lsm.cache._next_page_no), {c.tree.file_id for c in lsm._components}


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


class TestRetirement:
    """A full scan that emits only its memory snapshot's live entries
    retires every disk component it read."""

    def test_shadowed_bulk_load_is_retired(self, lsm):
        lsm.bulk_load([(key(i), b"old") for i in range(300)])
        for i in range(300):
            lsm.insert(key(i), b"new")
        assert lsm.num_disk_components == 1
        with destroyed_trees() as destroyed:
            assert list(lsm.scan()) == [(key(i), b"new") for i in range(300)]
        assert lsm.num_disk_components == 0
        assert lsm.drops == 1 and len(destroyed) == 1
        assert lsm.telemetry.registry.value("storage.lsm.drops") == 1
        assert lsm.lookup(key(7)) == b"new"
        assert list(lsm.scan()) == [(key(i), b"new") for i in range(300)]
        assert lsm.drops == 1  # nothing left to retire

    def test_tombstones_retire_with_their_components(self, lsm):
        lsm.insert(key(1), b"a")
        lsm.insert(key(2), b"b")
        lsm.flush_memory_component()
        lsm.delete(key(1))
        lsm.delete(key(2))
        lsm.flush_memory_component()
        assert list(lsm.scan()) == []
        assert lsm.num_disk_components == 0 and lsm.drops == 1
        assert lsm.lookup(key(1)) is None and len(lsm) == 0

    def test_memory_tombstones_shadow_the_bulk_load(self, lsm):
        lsm.bulk_load([(key(i), b"v") for i in range(50)])
        for i in range(50):
            lsm.delete(key(i))
        assert list(lsm.scan()) == []
        assert lsm.num_disk_components == 0
        assert lsm.lookup(key(3)) is None

    def test_a_surviving_disk_key_retires_nothing(self, lsm):
        lsm.bulk_load([(key(i), b"old") for i in range(100)])
        for i in range(99):
            lsm.insert(key(i), b"new")
        assert list(lsm.scan())[-1] == (key(99), b"old")
        assert lsm.num_disk_components == 1 and lsm.drops == 0

    @pytest.mark.parametrize("open_scan", [
        lambda lsm: list(lsm.scan(low=key(0))),
        lambda lsm: list(lsm.scan(high=key(1000))),
        lambda lsm: list(islice(lsm.scan(), 10)),
    ], ids=["low-bound", "high-bound", "abandoned"])
    def test_bounded_or_abandoned_scans_retire_nothing(self, lsm, open_scan):
        lsm.bulk_load([(key(i), b"old") for i in range(100)])
        for i in range(100):
            lsm.insert(key(i), b"new")
        with destroyed_trees() as destroyed:
            open_scan(lsm)
        assert lsm.num_disk_components == 1 and not destroyed

    def test_a_failing_scan_retires_nothing(self, lsm):
        lsm.bulk_load([(key(i), b"old") for i in range(100)])
        for i in range(100):
            lsm.insert(key(i), b"new")
        with pytest.raises(RuntimeError):
            for _pair in lsm.scan():
                raise RuntimeError("consumer fault")
        assert lsm.num_disk_components == 1 and lsm.drops == 0

    def test_an_open_scan_outlives_the_retirement(self, lsm):
        lsm.bulk_load([(key(i), b"old") for i in range(200)])
        older = lsm.scan()
        head = list(islice(older, 5))
        for i in range(200):
            lsm.insert(key(i), b"new")
        with destroyed_trees() as destroyed:
            assert list(lsm.scan()) == [(key(i), b"new") for i in range(200)]
            assert lsm.num_disk_components == 0 and not destroyed
            rest = list(older)
            assert len(destroyed) == 1
        assert head + rest == [(key(i), b"old") for i in range(200)]
        assert live_files(lsm) == (set(), set())

    def test_a_merge_during_the_scan_leaves_nothing_to_retire(self, buffer_cache):
        lsm = LSMBTree(buffer_cache, memory_budget_bytes=4096, max_components=1)
        lsm.bulk_load([(key(i), b"old") for i in range(100)])
        for i in range(100):
            lsm.insert(key(i), b"new")
        scan = lsm.scan()
        pairs = list(islice(scan, 1))
        for i in range(100, 1000):
            lsm.insert(key(i), b"late")
        assert lsm.merges >= 1
        with destroyed_trees() as destroyed:
            pairs += scan
        assert pairs == [(key(i), b"new") for i in range(100)]
        assert lsm.drops == 0 and len(destroyed) == 1  # the bulk load, once
        assert [v for _k, v in lsm.scan()] == [b"new"] * 100 + [b"late"] * 900
        assert live_files(lsm)[0] == live_files(lsm)[1]


def test_merge_during_an_open_full_scan(file_manager):
    """Regression: a merge that writes trigger while a full scan is open
    left the scan reading trees the merge had destroyed ("unknown paged
    file id"). The scan now holds them until it ends."""
    lsm = LSMBTree(BufferCache(1 << 14, 4096, file_manager), memory_budget_bytes=4096,
                   max_components=1)
    lsm.bulk_load([(key(i), b"v%05d" % i) for i in range(2000)])
    for i in range(0, 2000, 3):
        lsm.insert(key(i), b"third-%05d" % i)
    expected = list(lsm.scan())
    with destroyed_trees() as destroyed:
        scan = lsm.scan()
        pairs = list(islice(scan, 10))
        merges = lsm.merges
        for i in range(1, 2000, 3):
            lsm.insert(key(i), b"late-%05d" % i)
        assert lsm.merges > merges
        held = len(destroyed)
        pairs += scan
        assert len(destroyed) > held  # the merged-away trees go at the end
    assert pairs == expected
    assert [k for k, _v in pairs] == [key(i) for i in range(2000)]
    assert len(destroyed) == len(set(destroyed))
    files_known, files_kept = live_files(lsm)
    assert files_known == files_kept


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
            st.sampled_from([
                "insert", "insert", "delete", "flush", "rewrite",
                "scan", "partial", "scan-write",
            ]),
            st.integers(min_value=0, max_value=60),
        ),
        max_size=200,
    ),
    budget=st.integers(min_value=64, max_value=2048),
    bounds=st.tuples(st.integers(0, 60), st.integers(0, 60)),
)
def test_lsm_matches_dict_model(tmp_path_factory, operations, budget, bounds):
    """Property: flush/merge timing and the scans made along the way
    never change observable contents — a scan is the sorted model at its
    start (the newest write of a key wins, a tombstoned key is gone)
    whatever components the merges went over or the full scans retired,
    and writes made while it is open do not reach it. ``rewrite`` writes
    every key's model state again, so that the disk components hold no
    live key; ``scan`` runs a full scan to its end, ``partial`` abandons
    one, ``scan-write`` writes until a flush and a merge land while one
    is open. No tree is
    destroyed twice, and none is left once no scan reads it."""
    root = tmp_path_factory.mktemp("lsmprop")
    files = FileManager(str(root), IOCounters())
    cache = BufferCache(1 << 20, 4096, files)
    lsm = LSMBTree(cache, memory_budget_bytes=budget, max_components=2)
    model = {}
    with destroyed_trees() as destroyed:
        for step, (op, i) in enumerate(operations):
            k = key(i)
            if op == "insert":
                value = b"v%d.%d" % (i, step)
                lsm.insert(k, value)
                model[k] = value
            elif op == "delete":
                lsm.delete(k)
                model.pop(k, None)
            elif op == "flush":
                lsm.flush_memory_component()
            elif op == "rewrite":
                for j in range(61):
                    if key(j) in model:
                        lsm.insert(key(j), model[key(j)])
                    else:
                        lsm.delete(key(j))
            elif op == "scan":
                assert list(lsm.scan()) == sorted(model.items())
            elif op == "partial":
                scan = lsm.scan()
                expected = sorted(model.items())[: i % 5 + 1]
                assert list(islice(scan, i % 5 + 1)) == expected
                scan.close()
            else:
                expected = sorted(model.items())
                scan = lsm.scan()
                pairs = list(islice(scan, i % 5 + 1))
                merges = lsm.merges
                for n in range(1000):
                    if lsm.merges > merges:
                        break
                    written = (n * 7 + i) % 61
                    value = b"w%d.%d." % (written, step) + b"x" * 64
                    lsm.insert(key(written), value)
                    model[key(written)] = value
                assert lsm.merges > merges
                pairs += scan
                assert pairs == expected
        assert list(lsm.scan()) == sorted(model.items())
        low, high = key(min(bounds)), key(max(bounds))
        assert list(lsm.scan(low, high)) == sorted(
            (k, value) for k, value in model.items() if low <= k < high
        )
        for k, value in model.items():
            assert lsm.lookup(k) == value
    assert len(destroyed) == len(set(destroyed))
    files_known, files_kept = live_files(lsm)
    assert files_known == files_kept
    files.destroy()

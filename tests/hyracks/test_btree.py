"""Correctness tests for the page-based B+-tree, including property tests."""

import bisect
import os
import random

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.common.accounting import IOCounters
from repro.common.errors import StorageError
from repro.common.serde import encode_key
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.pages import PageId


@pytest.fixture
def btree(buffer_cache):
    return BTree(buffer_cache)


def key(i):
    return encode_key(i)


class TestBasicOperations:
    def test_empty_tree(self, btree):
        assert btree.lookup(key(1)) is None
        assert list(btree.scan()) == []
        assert len(btree) == 0

    def test_insert_lookup(self, btree):
        btree.insert(key(1), b"one")
        btree.insert(key(2), b"two")
        assert btree.lookup(key(1)) == b"one"
        assert btree.lookup(key(2)) == b"two"
        assert btree.lookup(key(3)) is None
        assert len(btree) == 2

    def test_insert_overwrites(self, btree):
        btree.insert(key(1), b"a")
        btree.insert(key(1), b"b")
        assert btree.lookup(key(1)) == b"b"
        assert len(btree) == 1

    def test_delete(self, btree):
        btree.insert(key(1), b"x")
        assert btree.delete(key(1))
        assert btree.lookup(key(1)) is None
        assert not btree.delete(key(1))
        assert len(btree) == 0

    def test_non_bytes_key_rejected(self, btree):
        with pytest.raises(TypeError):
            btree.insert(1, b"x")
        with pytest.raises(TypeError):
            btree.insert(key(1), "not bytes")


class TestScans:
    def test_full_scan_in_order(self, btree):
        ids = list(range(50))
        random.Random(7).shuffle(ids)
        for i in ids:
            btree.insert(key(i), b"v%d" % i)
        scanned = list(btree.scan())
        assert [k for k, _v in scanned] == [key(i) for i in range(50)]
        assert scanned[10][1] == b"v10"

    def test_range_scan_bounds(self, btree):
        for i in range(20):
            btree.insert(key(i), b"")
        keys = [k for k, _ in btree.scan(low=key(5), high=key(12))]
        assert keys == [key(i) for i in range(5, 12)]

    def test_scan_low_only(self, btree):
        for i in range(10):
            btree.insert(key(i), b"")
        keys = [k for k, _ in btree.scan(low=key(7))]
        assert keys == [key(7), key(8), key(9)]

    def test_scan_high_only(self, btree):
        for i in range(10):
            btree.insert(key(i), b"")
        keys = [k for k, _ in btree.scan(high=key(3))]
        assert keys == [key(0), key(1), key(2)]

    def test_scan_survives_same_size_update(self, btree):
        """The Pregelix compute mini-operator pattern: update during scan."""
        for i in range(200):
            btree.insert(key(i), b"%08d" % i)
        seen = []
        for k, _v in btree.scan():
            seen.append(k)
            btree.insert(k, b"UPDATED!")  # same serialized size
        assert seen == [key(i) for i in range(200)]
        assert btree.lookup(key(123)) == b"UPDATED!"

    def test_scan_survives_splits_from_inserts(self, btree):
        """Inserting fresh keys during a scan must not lose or dup keys."""
        for i in range(0, 400, 2):
            btree.insert(key(i), b"x" * 40)
        seen = []
        extra = iter(range(1, 400, 2))
        for k, _v in btree.scan():
            seen.append(k)
            fresh = next(extra, None)
            if fresh is not None:
                btree.insert(key(fresh), b"y" * 40)
        # Every pre-existing even key is seen exactly once, in order.
        evens = [k for k in seen if encode_even(k)]
        assert evens == [key(i) for i in range(0, 400, 2)]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))


def encode_even(k):
    from repro.common.serde import decode_key

    return decode_key(k) % 2 == 0


def per_item_scan(tree, low=None, high=None):
    """The scan as it stepped one entry per resume: the reference the
    leaf-step ``BTree.scan`` keeps (the same leaves read, the same re-seek
    past the last key returned when a split happened under the cursor)."""
    tree._release()
    page_no = tree._leftmost_leaf() if low is None else tree._leaf_for(low)
    resume_key, resume_exclusive = low, False
    while page_no != -1:
        page = tree.cache.pin(PageId(tree.file_id, page_no))
        keys, values = list(page.keys), list(page.values)
        next_page_no = page.next_page_no
        tree.cache.unpin(page)
        version = tree.smo_counter
        if resume_key is None:
            start = 0
        elif resume_exclusive:
            start = bisect.bisect_right(keys, resume_key)
        else:
            start = bisect.bisect_left(keys, resume_key)
        last_key = resume_key
        for i in range(start, len(keys)):
            if high is not None and keys[i] >= high:
                return
            last_key = keys[i]
            yield keys[i], tree._decode_value(values[i])
        if tree.smo_counter != version and last_key is not None:
            page_no = tree._leaf_for(last_key)
            resume_key, resume_exclusive = last_key, True
        else:
            page_no, resume_key, resume_exclusive = next_page_no, None, False


def twin_trees(tmp_path, page_size):
    return [
        BTree(BufferCache(1 << 20, page_size, FileManager(str(tmp_path / name))))
        for name in ("leaf-step", "per-item")
    ]


@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_the_leaf_step_scan_is_the_per_item_scan(tmp_path, page_size, seed):
    """Bounds anywhere (inside, between and past the keys, empty and
    inverted ranges) over leaves with inline and overflowing values."""
    rng = random.Random(seed)
    trees = twin_trees(tmp_path, page_size)
    for vid in rng.sample(range(0, 3000, 3), 600):
        value = bytes(rng.randrange(256) for _ in range(rng.choice([0, 9, 30, page_size])))
        for tree in trees:
            tree.insert(key(vid), value)
    leaf_step, per_item = trees
    bounds = [None] + [key(rng.randrange(-10, 3010)) for _ in range(30)]
    for low in bounds[:12]:
        for high in bounds:
            expected = list(per_item_scan(per_item, low, high))
            assert list(leaf_step.scan(low, high)) == expected


@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_the_leaf_step_scan_survives_splits_as_the_per_item_scan(tmp_path, page_size, seed):
    """A scan left open while its consumer overwrites what it was handed
    and inserts fresh keys around it — splits under the cursor, on the
    leaf it is reading and on leaves it has not reached."""
    rng = random.Random(seed)
    trees = twin_trees(tmp_path, page_size)
    for tree in trees:
        tree.bulk_load((key(vid), b"x" * 20) for vid in range(0, 2000, 4))
    low, high = rng.choice([(None, None), (key(300), None), (key(101), key(1700))])
    fresh = rng.sample(range(2000), 900)
    script = [(rng.random(), fresh.pop(), rng.choice([20, 60])) for _ in range(len(fresh))]
    seen = []
    cursors = [trees[0].scan(low, high), per_item_scan(trees[1], low, high)]
    for tree, cursor in zip(trees, cursors):
        moves = iter(script)
        taken = []
        for k, _value in cursor:
            taken.append(k)
            roll, vid, width = next(moves, (1.0, None, None))
            if roll < 0.3:
                tree.insert(k, b"y" * 20)  # same width: in place
            elif roll < 0.9:
                tree.insert(key(vid), b"z" * width)
        seen.append((taken, tree.smo_counter))
    assert seen[0] == seen[1]
    assert seen[0][1] > 0
    assert list(trees[0].scan()) == list(trees[1].scan())


class TestSplitsAndScale:
    def test_many_inserts_force_splits(self, btree):
        n = 2000
        ids = list(range(n))
        random.Random(3).shuffle(ids)
        for i in ids:
            btree.insert(key(i), b"value-%06d" % i)
        assert btree.smo_counter > 0
        for i in (0, 1, n // 2, n - 1):
            assert btree.lookup(key(i)) == b"value-%06d" % i
        assert len(list(btree.scan())) == n

    def test_sequential_and_reverse_inserts(self, buffer_cache):
        for ordering in (range(500), reversed(range(500))):
            tree = BTree(buffer_cache)
            for i in ordering:
                tree.insert(key(i), b"v")
            assert [k for k, _ in tree.scan()] == [key(i) for i in range(500)]

    def test_works_with_tiny_cache(self, tiny_buffer_cache):
        """The out-of-core claim: correctness with a 3-page cache."""
        tree = BTree(tiny_buffer_cache)
        n = 1500
        for i in range(n):
            tree.insert(key(i), b"payload-%d" % i)
        assert tiny_buffer_cache.stats.evictions > 0
        for i in (0, 700, n - 1):
            assert tree.lookup(key(i)) == b"payload-%d" % i
        assert len(list(tree.scan())) == n


class TestBulkLoad:
    def test_bulk_load_roundtrip(self, btree):
        pairs = [(key(i), b"v%d" % i) for i in range(1000)]
        btree.bulk_load(pairs)
        assert len(btree) == 1000
        assert btree.lookup(key(567)) == b"v567"
        assert [k for k, _ in btree.scan()] == [k for k, _ in pairs]

    def test_bulk_load_empty(self, btree):
        btree.bulk_load([])
        assert len(btree) == 0
        assert list(btree.scan()) == []

    def test_bulk_load_single(self, btree):
        btree.bulk_load([(key(5), b"five")])
        assert btree.lookup(key(5)) == b"five"

    def test_bulk_load_rejects_unsorted(self, btree):
        with pytest.raises(StorageError):
            btree.bulk_load([(key(2), b""), (key(1), b"")])

    def test_bulk_load_rejects_duplicates(self, btree):
        with pytest.raises(StorageError):
            btree.bulk_load([(key(1), b""), (key(1), b"")])

    def test_bulk_load_rejects_non_empty(self, btree):
        btree.insert(key(1), b"")
        with pytest.raises(StorageError):
            btree.bulk_load([(key(2), b"")])

    def test_insert_after_bulk_load(self, btree):
        btree.bulk_load([(key(i * 2), b"even") for i in range(500)])
        for i in range(100):
            btree.insert(key(i * 2 + 1), b"odd")
        keys = [k for k, _ in btree.scan()]
        assert keys == sorted(keys)
        assert len(keys) == 600
        assert btree.lookup(key(13)) == b"odd"

    def test_lookup_smallest_after_bulk_load(self, btree):
        btree.bulk_load([(key(i), b"v") for i in range(100, 2000)])
        assert btree.lookup(key(100)) == b"v"
        assert btree.lookup(key(5)) is None


class TestOverflowRecords:
    def test_large_value_roundtrip(self, btree):
        big = bytes(range(256)) * 100  # 25.6 KB, far beyond one 4 KB page
        btree.insert(key(1), big)
        assert btree.lookup(key(1)) == big

    def test_large_value_in_scan(self, btree):
        big = b"E" * 10000
        btree.insert(key(2), b"small")
        btree.insert(key(1), big)
        scanned = dict(btree.scan())
        assert scanned[key(1)] == big
        assert scanned[key(2)] == b"small"

    def test_large_value_via_bulk_load(self, btree):
        big = b"G" * 9000
        btree.bulk_load([(key(1), b"a"), (key(2), big), (key(3), b"c")])
        assert btree.lookup(key(2)) == big

    def test_overwrite_large_value(self, btree):
        btree.insert(key(1), b"B" * 9000)
        btree.insert(key(1), b"tiny")
        assert btree.lookup(key(1)) == b"tiny"


class TestPersistence:
    def test_spill_and_reload_through_cache(self, tmp_path):
        """Data written through one cache instance is durable on disk."""
        files = FileManager(str(tmp_path / "n"), IOCounters())
        cache = BufferCache(4096 * 2, 4096, files)
        tree = BTree(cache)
        for i in range(300):
            tree.insert(key(i), b"d%d" % i)
        tree.close()
        # All pages were flushed; evict everything and re-read.
        assert tree.lookup(key(299)) == b"d299"
        files.destroy()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "lookup"]),
            st.integers(min_value=0, max_value=200),
        ),
        max_size=300,
    )
)
def test_btree_matches_dict_model(tmp_path_factory, operations):
    """Property: a B-tree behaves exactly like a sorted dict."""
    root = tmp_path_factory.mktemp("prop")
    files = FileManager(str(root), IOCounters())
    cache = BufferCache(4096 * 4, 4096, files)
    tree = BTree(cache)
    model = {}
    for op, i in operations:
        k = key(i)
        if op == "insert":
            value = b"v%d" % i
            tree.insert(k, value)
            model[k] = value
        elif op == "delete":
            assert tree.delete(k) == (k in model)
            model.pop(k, None)
        else:
            assert tree.lookup(k) == model.get(k)
    assert list(tree.scan()) == sorted(model.items())
    assert len(tree) == len(model)
    files.destroy()


PAGE = 4096
#: ``BTree._inline_limit`` at 4 KiB pages: key + value + 1 up to this stay
#: in the leaf, wider values go to an overflow chain.
INLINE_LIMIT = (PAGE - 13) // 3
WIDEST_INLINE = INLINE_LIMIT - 8 - 1

value_widths = st.one_of(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=WIDEST_INLINE),
    st.sampled_from([WIDEST_INLINE - 1, WIDEST_INLINE]),
    st.integers(min_value=WIDEST_INLINE + 1, max_value=3 * PAGE),
)


def test_a_leaf_whose_wide_records_fall_on_one_side_still_splits(buffer_cache):
    """The middle-entry cut of a leaf of 8-byte records interleaved with
    1,200-byte ones leaves a half that refuses the record being
    inserted; the split re-cuts by bytes."""
    tree = BTree(buffer_cache)
    model = {}
    for width, offset in ((8, 0), (1200, 1)):
        for i in range(400):
            model[key(2 * i + offset)] = bytes([i % 251]) * width
            tree.insert(key(2 * i + offset), model[key(2 * i + offset)])
    assert list(tree.scan()) == sorted(model.items())
    assert len(tree) == 800


record_keys = st.one_of(
    st.integers(min_value=-200, max_value=200).map(key),
    st.binary(min_size=1, max_size=700),
)


@seed(22)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(st.tuples(record_keys, value_widths), min_size=1, max_size=250))
def test_any_mix_of_record_widths_splits(tmp_path_factory, records):
    """Property: whatever mix of narrow, widest-inline and overflowing
    values arrives in whatever key order (overwrites included; keys of
    mixed width too, so that interior pages hold uneven separators),
    every split finds room and the tree scans as the sorted model."""
    root = tmp_path_factory.mktemp("widths")
    files = FileManager(str(root), IOCounters())
    tree = BTree(BufferCache(PAGE * 8, PAGE, files))
    assert tree._inline_limit == INLINE_LIMIT
    model = {}
    for position, (k, width) in enumerate(records):
        model[k] = bytes([position % 251]) * width
        tree.insert(k, model[k])
    assert list(tree.scan()) == sorted(model.items())
    assert len(tree) == len(model)
    files.destroy()


class TestFileOnFirstWrite:
    """A paged file is opened by its first page write-back: a tree whose
    pages never leave the cache has no file, and one whose pages do has
    the file, reads it back and removes it on ``destroy``."""

    PAIRS = [(key(i), b"value-%04d" % i * 8) for i in range(600)]

    def test_a_tree_never_evicted_creates_no_file(self, buffer_cache, file_manager):
        tree = BTree(buffer_cache, name="resident.dat")
        tree.bulk_load(self.PAIRS)
        assert list(tree.scan()) == self.PAIRS
        assert buffer_cache.stats.evictions == 0
        assert os.listdir(file_manager.root) == []
        tree.destroy()
        assert os.listdir(file_manager.root) == []
        assert file_manager.io.snapshot()["disk_writes"] == 0

    def test_an_evicted_tree_has_its_file_and_reads_back(
        self, tiny_buffer_cache, file_manager
    ):
        tree = BTree(tiny_buffer_cache, name="spilled.dat")
        tree.bulk_load(self.PAIRS)
        assert tiny_buffer_cache.stats.evictions > 0
        assert os.listdir(file_manager.root) == ["spilled.dat"]
        assert list(tree.scan()) == self.PAIRS
        assert [tree.lookup(k) for k, _ in self.PAIRS] == [v for _, v in self.PAIRS]
        tree.destroy()
        assert os.listdir(file_manager.root) == []

    def test_a_page_never_written_is_not_read(self, file_manager):
        file_id = file_manager.create_paged_file("never.dat")
        with pytest.raises(StorageError, match="never written"):
            file_manager.read_page(file_id, 0, 4096)
        file_manager.delete_paged_file(file_id)
        assert os.listdir(file_manager.root) == []

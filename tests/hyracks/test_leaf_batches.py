"""The storage batch paths are the row-at-a-time paths they replaced.

``BTree.lookup_sorted`` answers a sorted probe list a leaf at a time;
``BTree.bulk_load`` fills each leaf from a slice; ``LSMBTree.insert_sorted``
updates the memory component with one ``dict.update``; ``MergeChoose``
builds the message ∪ ``Vid`` merge from C-level maps. Each is held by a
seeded property to a reference: ``lookup`` inside ``positioned()`` (the
same answers and the same buffer-cache pins), the load row by row kept
below (the same page images and root), ``insert`` per key (the same
memory component, flushes and components), and ``_outer_merge``.
"""

import random

import pytest

from repro.common.errors import StorageError
from repro.common.serde import encode_key
from repro.hyracks.operators.join import MergeChooseOperator, _outer_merge
from repro.hyracks.storage.btree import _BULK_LOAD_BATCH, BTree
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.lsm_btree import LSMBTree
from repro.hyracks.storage.pages import PageId, PageKind


def key(vid):
    return encode_key(vid)


def caches(tmp_path, page_size, pages, names):
    return [
        BufferCache(pages * page_size, page_size, FileManager(str(tmp_path / name)))
        for name in names
    ]


def random_value(rng, page_size):
    """Inline values of a few widths and, now and then, one that overflows."""
    return rng.randbytes(rng.choice([0, 5, 30, 2 * page_size]))


def pins(cache):
    return cache.stats.snapshot()


# ----------------------------------------------------------------------
# lookup_sorted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pages", [4, 256])
@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_lookup_sorted_is_lookup_in_a_positioned_scope(tmp_path, page_size, pages, seed):
    """Split trees with overflowing values (and, with 4 pages, a cache that
    evicts): missing keys, keys below the first and above the last, keys
    in the gaps between leaves, repeated keys, an empty tree and an empty
    probe list — the same answers, and the same pins, hits and misses."""
    rng = random.Random(repr((seed, page_size, pages)))
    trees = [BTree(cache) for cache in caches(tmp_path, page_size, pages, ("batch", "row"))]
    stored = sorted(rng.sample(range(0, 4000, 2), rng.choice([0, 1, 40, 700])))
    for vid in rng.sample(stored, len(stored)):
        value = random_value(rng, page_size)
        for tree in trees:
            tree.insert(key(vid), value)
    batch, row = trees
    for _ in range(12):
        probes = sorted(
            rng.choice(stored + [-50, 5000, 1, 3]) if stored and rng.random() < 0.6
            else rng.randrange(-100, 4100)
            for _ in range(rng.choice([0, 1, 20, 300]))
        )
        keys = [key(vid) for vid in probes]
        positioned = rng.random() < 0.5
        if positioned:
            with batch.positioned():
                answers = batch.lookup_sorted(keys)
        else:
            answers = batch.lookup_sorted(keys)
        with row.positioned():
            expected = [row.lookup(k) for k in keys]
        assert answers == expected
        assert pins(batch.cache) == pins(row.cache)
        assert not any(page.pin_count for page in batch.cache._pages.values())


def test_lookup_sorted_outside_a_scope_holds_nothing_after_it(buffer_cache):
    tree = BTree(buffer_cache)
    tree.bulk_load((key(vid), b"v") for vid in range(100))
    assert tree.lookup_sorted([key(-1), key(5), key(99), key(100)]) == [None, b"v", b"v", None]
    assert tree.lookup_sorted([]) == []
    assert not any(page.pin_count for page in buffer_cache._pages.values())


def test_the_lsm_lookup_sorted_is_its_lookups(buffer_cache):
    lsm = LSMBTree(buffer_cache, memory_budget_bytes=512)
    for vid in range(0, 300, 3):
        lsm.insert(key(vid), b"x%d" % vid)
    lsm.delete(key(30))
    probes = [key(vid) for vid in range(-3, 310)]
    assert lsm.num_disk_components > 0
    assert lsm.lookup_sorted(probes) == [lsm.lookup(k) for k in probes]


# ----------------------------------------------------------------------
# bulk_load
# ----------------------------------------------------------------------
class RowAtATimeBTree(BTree):
    """The bulk load before leaves were filled from slices: one
    ``Page.put`` per row, the greedy ``fits`` cut, an overflowing value's
    chain written at its row."""

    def bulk_load(self, pairs):
        self._release()
        level = []
        page = None
        previous_key = None
        for k, value in pairs:
            if previous_key is not None and k <= previous_key:
                raise StorageError("bulk_load input must have strictly increasing keys")
            previous_key = k
            stored = self._encode_value(k, value)
            if page is None:
                page = self.cache.pin(PageId(self.file_id, self.root_page_no))
                level.append((k, page.page_id.page_no))
            elif not page.fits(k, stored):
                fresh = self.cache.new_page(self.file_id, PageKind.LEAF)
                page.next_page_no = fresh.page_id.page_no
                self.cache.unpin(page, dirty=True)
                page = fresh
                level.append((k, page.page_id.page_no))
            page.put(k, stored)
            self._count += 1
        if page is not None:
            self.cache.unpin(page, dirty=True)
        if len(level) > 1:
            self._build_interior_levels(level)


def page_images(tree):
    cache = tree.cache
    images = []
    for page_no in range(cache._next_page_no[tree.file_id]):
        page = cache.pin(PageId(tree.file_id, page_no))
        images.append(page.to_bytes())
        cache.unpin(page)
    return tree.root_page_no, images


@pytest.mark.parametrize("pages", [4, 256])
@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_the_slice_bulk_load_is_the_load_row_by_row(tmp_path, page_size, pages, seed):
    """Inputs empty, of one row, and over several batches; inline values of
    mixed widths, ``bytearray`` values and overflowing ones; and caches
    that hold every page or evict: every page image, the root and the
    scan are the reference's."""
    rng = random.Random(repr((seed, page_size, pages)))
    count = rng.choice([0, 1, 300, 2 * _BULK_LOAD_BATCH + 7])
    rows = []
    for vid in sorted(rng.sample(range(10 * count + 1), count)):
        value = random_value(rng, page_size)
        rows.append((key(vid), bytearray(value) if rng.random() < 0.2 else value))
    slices, reference = caches(tmp_path, page_size, pages, ("slices", "rows"))
    tree, expected = BTree(slices), RowAtATimeBTree(reference)
    tree.bulk_load(iter(rows))
    expected.bulk_load(iter(rows))
    assert pins(slices) == pins(reference)
    assert page_images(tree) == page_images(expected)
    assert len(tree) == len(expected) == count
    assert list(tree.scan()) == [(k, bytes(v)) for k, v in rows]


def test_a_row_wider_than_a_page_is_taken_by_an_empty_leaf(tmp_path):
    """A key no page holds: the empty leaf takes it, as ``put`` took it
    (the image is refused once it is written, as it always was), instead
    of a leaf being cut for it again and again."""
    slices, reference = caches(tmp_path, 256, 64, ("slices", "rows"))
    trees = [BTree(slices), RowAtATimeBTree(reference)]
    for tree in trees:
        tree.bulk_load([(key(7) * 40, b"v")])
    leaves = [
        [(page.keys, page.values) for page in tree.cache._pages.values()] for tree in trees
    ]
    assert leaves[0] == leaves[1]
    # The leaf, and the overflow page its value went to.
    assert sorted(len(page.keys[0]) for page in slices._pages.values()) == [0, 320]


@pytest.mark.parametrize("at", [1, 5, _BULK_LOAD_BATCH - 1, _BULK_LOAD_BATCH, _BULK_LOAD_BATCH + 3])
def test_a_bulk_load_refuses_keys_out_of_order_anywhere(buffer_cache, at):
    """Within a batch and across the boundary of two."""
    rows = [(key(vid), b"v") for vid in range(_BULK_LOAD_BATCH + 10)]
    for bad in (rows[at - 1][0], key(-1)):
        with pytest.raises(StorageError):
            BTree(buffer_cache).bulk_load(rows[:at] + [(bad, b"v")] + rows[at + 1:])


@pytest.mark.parametrize("bad", ["text", 7, None, memoryview(b"v")])
def test_a_bulk_load_refuses_a_value_that_is_not_bytes(buffer_cache, bad):
    rows = [(key(vid), b"v") for vid in range(10)]
    rows[6] = (rows[6][0], bad)
    with pytest.raises(TypeError):
        BTree(buffer_cache).bulk_load(rows)


# ----------------------------------------------------------------------
# LSMBTree.insert_sorted
# ----------------------------------------------------------------------
def lsm_state(lsm):
    return (
        sorted(lsm._memory.items()), lsm._memory_bytes, lsm.flushes, lsm.merges,
        [list(component.tree.scan()) for component in lsm._components],
        list(lsm.scan()),
    )


@pytest.mark.parametrize("seed", range(6))
def test_lsm_insert_sorted_is_insert_per_key(tmp_path, seed):
    """Sorted batches over keys already in memory, on disk and new, with
    values that grow and shrink: a budget a batch crosses (so a flush
    falls inside one, and merges follow) and one it never reaches."""
    rng = random.Random(seed)
    budget = rng.choice([600, 2000, 1 << 20])
    batched, per_key = (
        LSMBTree(cache, memory_budget_bytes=budget, max_components=3)
        for cache in caches(tmp_path, 4096, 256, ("batched", "per-key"))
    )
    for _ in range(40):
        vids = sorted(rng.sample(range(200), rng.choice([0, 1, 8, 40])))
        pairs = [(key(vid), b"v" * rng.choice([0, 4, 20])) for vid in vids]
        if pairs and rng.random() < 0.2:
            pairs[0] = (bytearray(pairs[0][0]), bytearray(pairs[0][1]))
        batched.insert_sorted(pairs)
        for k, value in pairs:
            per_key.insert(k, value)
        if rng.random() < 0.1:
            for lsm in (batched, per_key):
                lsm.delete(key(vids[0] if vids else 0))
        assert lsm_state(batched) == lsm_state(per_key)
    if budget < 1 << 20:
        assert batched.flushes > 0


def test_lsm_insert_sorted_refuses_what_insert_refuses(buffer_cache):
    lsm = LSMBTree(buffer_cache)
    for pairs in ([(key(1), b"a"), (key(2), "b")], [(1, b"a")]):
        with pytest.raises(TypeError):
            lsm.insert_sorted(pairs)


# ----------------------------------------------------------------------
# MergeChoose
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_merge_choose_is_the_outer_merge_projected(seed):
    """Messages to live vertices, to idle ones and to none; either side
    empty; and messages with a repeated key, which take the merge."""
    rng = random.Random(seed)
    operator = MergeChooseOperator()
    for _ in range(30):
        messages = [
            (key(vid), rng.random())
            for vid in sorted(rng.sample(range(300), rng.choice([0, 1, 50, 200])))
        ]
        if messages and rng.random() < 0.2:
            at = rng.randrange(len(messages))
            messages.insert(at, (messages[at][0], -1.0))
        live = [(key(vid), b"") for vid in sorted(rng.sample(range(300), rng.choice([0, 1, 120])))]
        expected = [(k, payload) for k, payload, _vid in _outer_merge(messages, live)]
        assert operator.run(None, 0, [messages, live])[operator.OUT] == expected

"""``BTree.insert`` over an existing key: replace in the slot, same pages.

When the new image fits where the old one is, ``insert`` calls
``Page.put`` once instead of find → remove → re-insert. The algorithm it
replaced is kept here (:class:`RemoveThenInsertBTree`) and both are
driven by the same seeded sequences of inserts, same-width overwrites,
growing and shrinking overwrites and deletes: every page image, the
structural-modification history and the scan must be identical, and the
scan must equal a dict model's.
"""

import random

import pytest

from repro.common.serde import encode_key
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.lsm_btree import LSMBTree
from repro.hyracks.storage.pages import PageId


class RemoveThenInsertBTree(BTree):
    """The overwrite path before the in-slot replacement."""

    def insert(self, key, value):
        stored = self._encode_value(key, value)
        leaf, path = self._descend(key, for_write=True)
        if leaf.find(key) is not None:
            leaf.remove(key)
            self._count -= 1
        self._insert_into_leaf(leaf, path, key, stored)
        self._count += 1


class RemoveThenInsertLSM(LSMBTree):
    def _new_tree(self):
        self._component_seq += 1
        return RemoveThenInsertBTree(
            self.cache, name="%s-c%04d.dat" % (self.name, self._component_seq)
        )


def make_cache(tmp_path, name, page_size):
    # Eight pages: the sequences below overflow it, so images are also
    # compared after eviction, writeback and reload.
    return BufferCache(8 * page_size, page_size, FileManager(str(tmp_path / name)))


def page_images(cache):
    images = {}
    for file_id, num_pages in sorted(cache._next_page_no.items()):
        for page_no in range(num_pages):
            page = cache.pin(PageId(file_id, page_no))
            images[(file_id, page_no)] = page.to_bytes()
            cache.unpin(page)
    return images


def random_ops(rng, page_size, count):
    """``(key, value or None)``: a small key space, so most inserts hit
    an existing key; widths from empty up to past the inline limit (the
    overflow path), with runs of same-width rewrites in between."""
    widths = {}
    for _ in range(count):
        vid = rng.randrange(120)
        roll = rng.random()
        if roll < 0.1:
            yield encode_key(vid), None
            widths.pop(vid, None)
            continue
        if roll < 0.5 and vid in widths:
            width = widths[vid]  # same width: the in-place case
        else:
            width = rng.choice(
                [0, 1, 8, 24, page_size // 8, page_size // 6, page_size // 2]
            )
        widths[vid] = width
        yield encode_key(vid), bytes(rng.randrange(256) for _ in range(width))


@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(6))
def test_btree_overwrite_leaves_the_pages_remove_then_insert_left(
    tmp_path, page_size, seed
):
    new_cache = make_cache(tmp_path, "new", page_size)
    old_cache = make_cache(tmp_path, "old", page_size)
    new, old = BTree(new_cache), RemoveThenInsertBTree(old_cache)
    model = {}
    ops = random_ops(random.Random(seed), page_size, 1500)
    for step, (key, value) in enumerate(ops):
        if value is None:
            assert new.delete(key) == old.delete(key) == (key in model)
            model.pop(key, None)
        else:
            new.insert(key, value)
            old.insert(key, value)
            model[key] = value
        assert new.smo_counter == old.smo_counter
        assert len(new) == len(old) == len(model)
        if step % 250 == 249:
            assert page_images(new_cache) == page_images(old_cache)
    assert page_images(new_cache) == page_images(old_cache)
    assert list(new.scan()) == list(old.scan()) == sorted(model.items())


@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(3))
def test_lsm_components_are_the_pages_remove_then_insert_built(
    tmp_path, page_size, seed
):
    new_cache = make_cache(tmp_path, "new", page_size)
    old_cache = make_cache(tmp_path, "old", page_size)
    budget = 6 * page_size  # several flushes and a merge per sequence
    new = LSMBTree(new_cache, memory_budget_bytes=budget, name="t")
    old = RemoveThenInsertLSM(old_cache, memory_budget_bytes=budget, name="t")
    model = {}
    for key, value in random_ops(random.Random(seed), page_size, 1500):
        if value is None:
            assert new.delete(key) == old.delete(key) == (key in model)
            model.pop(key, None)
        else:
            new.insert(key, value)
            old.insert(key, value)
            model[key] = value
    assert new.flushes == old.flushes > 0
    assert page_images(new_cache) == page_images(old_cache)
    assert list(new.scan()) == list(old.scan()) == sorted(model.items())

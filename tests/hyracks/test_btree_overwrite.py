"""``BTree.insert`` over an existing key: replace in the slot, same pages.

When the new image fits where the old one is, ``insert`` calls
``Page.put`` once instead of find → remove → re-insert. The algorithm it
replaced is kept here (:class:`RemoveThenInsertBTree`) and both are
driven by the same seeded sequences of inserts, same-width overwrites,
growing and shrinking overwrites and deletes: every page image, the
structural-modification history and the scan must be identical, and the
scan must equal a dict model's.

The same harness holds positioned access (``BTree.positioned``) to the
same standard: a sequence run inside scopes leaves the pages, answers
and counts of the same sequence run outside, and nothing pinned once a
scope has exited — however it exited.
"""

import random
import struct

import pytest

from repro.common.errors import StorageError
from repro.common.serde import decode_key, encode_key
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.lsm_btree import LSMBTree
from repro.hyracks.storage.pages import Page, PageId


class RemoveThenInsertBTree(BTree):
    """The overwrite path before the in-slot replacement: find → remove →
    re-insert from the root, every time. The one thing it does not keep
    is the bug that path had — a fresh overflow chain for every overwrite
    of a large value: a value as long as the one it replaces goes over
    the old chain's pages."""

    def insert(self, key, value):
        leaf, _path = self._descend(key, for_write=False)
        index = leaf.find(key)
        pointer = b"" if index is None else leaf.values[index]
        self.cache.unpin(leaf)
        if pointer[:1] == b"\x01":
            page_no, total = struct.unpack(">qI", pointer[1:])
            if total == len(value):
                for start in range(0, total, self._chunk_limit):
                    page = self.cache.pin(PageId(self.file_id, page_no))
                    page.put(b"", value[start : start + self._chunk_limit])
                    page_no = page.next_page_no
                    self.cache.unpin(page, dirty=True)
                return
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


# ----------------------------------------------------------------------
# overflowing records
# ----------------------------------------------------------------------
def num_pages(tree):
    return tree.cache._next_page_no[tree.file_id]


def test_overwriting_an_overflowing_record_reuses_its_chain(tmp_path):
    cache = make_cache(tmp_path, "t", 4096)
    tree = BTree(cache)
    key, other = encode_key(7), encode_key(9)
    tree.insert(other, b"small")
    tree.insert(key, bytes(6000))
    pages = num_pages(tree)
    assert pages == 3  # the leaf and a chain of two
    for fill in range(1, 6):
        image = bytes([fill]) * 6000
        tree.insert(key, image)
        assert num_pages(tree) == pages
        assert tree.lookup(key) == image
        assert list(tree.scan()) == [(key, image), (other, b"small")]
    assert len(tree) == 2
    # Another length is another chunking: a fresh chain, and the old one
    # stays behind unreferenced (the file has no free list).
    tree.insert(key, bytes(6001))
    assert num_pages(tree) == pages + 2
    assert tree.lookup(key) == bytes(6001)
    tree.insert(key, b"inline again")
    assert num_pages(tree) == pages + 2
    assert list(tree.scan()) == [(key, b"inline again"), (other, b"small")]


# ----------------------------------------------------------------------
# positioned access
# ----------------------------------------------------------------------
def pinned(cache):
    return {pid: page.pin_count for pid, page in cache._pages.items() if page.pin_count}


def positioned_ops(rng, page_size, count):
    """Passes in key order, as the index joins and ``compute`` make them:
    short steps forward with a jump anywhere now and then, over a key
    space only partly populated (absent keys, inserts that split), with
    overwrites of the same width, growing ones and overflowing ones, and
    deletes and scans in between."""
    widths = {}
    vid = 0
    # The widest inline record: a leaf splits at its middle *entry*, and a
    # half that got all the wide ones must still take one more.
    wide = {256: 32, 4096: 200}[page_size]
    for _ in range(count):
        vid = rng.randrange(300) if rng.random() < 0.08 else min(vid + rng.randrange(3), 299)
        key = encode_key(vid)
        roll = rng.random()
        if roll < 0.35:
            yield ("lookup", key)
        elif roll < 0.40:
            widths.pop(vid, None)
            yield ("delete", key)
        elif roll < 0.43:
            yield ("scan", key, encode_key(vid + rng.randrange(40)))
        elif roll < 0.46:
            yield ("scan step", rng.randrange(1, 30))
        else:
            if roll < 0.85 and vid in widths:
                width = widths[vid]
            else:
                width = rng.choice([0, 8, 24, 25, wide, wide, page_size // 2])
            widths[vid] = width
            yield ("insert", key, bytes(rng.randrange(256) for _ in range(width)))


class Driven:
    """One tree taking the ops, and what each of them answered."""

    def __init__(self, tree):
        self.tree = tree
        self.cursor = iter(())

    def apply(self, op):
        kind, args = op[0], op[1:]
        if kind == "scan":
            return list(self.tree.scan(*args))
        if kind == "scan step":
            # A scan left open across the ops that follow it.
            taken = []
            for _ in range(args[0]):
                item = next(self.cursor, None)
                if item is None:
                    self.cursor = self.tree.scan()
                    break
                taken.append(item)
            return taken
        return getattr(self.tree, kind)(*args)


@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(6))
def test_a_positioned_pass_leaves_the_pages_the_plain_calls_leave(
    tmp_path, page_size, seed
):
    rng = random.Random(seed)
    plain_cache = make_cache(tmp_path, "plain", page_size)
    scoped_cache = make_cache(tmp_path, "scoped", page_size)
    plain, scoped = Driven(BTree(plain_cache)), Driven(BTree(scoped_cache))
    model = {}
    ops = list(positioned_ops(rng, page_size, 2500))
    held_at_some_point = False
    while ops:
        cut = rng.randrange(1, 120)
        segment, ops = ops[:cut], ops[cut:]
        expected = []
        for op in segment:
            expected.append(plain.apply(op))
            if op[0] == "insert":
                model[op[1]] = op[2]
            elif op[0] == "delete":
                assert expected[-1] == (model.pop(op[1], None) is not None)
            elif op[0] == "lookup":
                assert expected[-1] == model.get(op[1])
        with scoped.tree.positioned():
            assert [scoped.apply(op) for op in segment] == expected
            held_at_some_point |= bool(pinned(scoped_cache))
        assert pinned(scoped_cache) == {}
        assert scoped.tree.smo_counter == plain.tree.smo_counter
        assert len(scoped.tree) == len(plain.tree) == len(model)
        assert page_images(scoped_cache) == page_images(plain_cache)
    assert held_at_some_point
    assert list(scoped.tree.scan()) == list(plain.tree.scan()) == sorted(model.items())


class Boom(Exception):
    pass


class FailingReads:
    """A fault check that fails the page read after ``allowed`` ones."""

    def __init__(self, allowed):
        self.allowed = allowed
        self.reads = 0

    def check(self, site, **_info):
        if site == "page.read":
            self.reads += 1
            if self.reads > self.allowed:
                raise Boom("injected read fault")


def grown_tree(cache, count=400):
    tree = BTree(cache)
    tree.bulk_load((encode_key(vid), b"v" * 40) for vid in range(0, 2 * count, 2))
    return tree


def test_a_positioned_scope_holds_one_leaf_and_nothing_after_any_exit(tmp_path):
    # No capacity: a page is resident only while pinned, every pin reads.
    cache = BufferCache(0, 256, FileManager(str(tmp_path / "t")))
    tree = grown_tree(cache)
    with tree.positioned():
        assert tree.lookup(encode_key(10)) == b"v" * 40
        assert sorted(pinned(cache).values()) == [1]
        tree.insert(encode_key(12), b"w" * 40)  # same leaf or the next
        assert tree.lookup(encode_key(700)) == b"v" * 40
        assert tree.lookup(encode_key(701)) is None
        assert sorted(pinned(cache).values()) == [1]
    assert pinned(cache) == {}

    # ... the caller raising with a leaf held,
    with pytest.raises(Boom):
        with tree.positioned():
            tree.lookup(encode_key(10))
            assert pinned(cache)
            raise Boom
    assert pinned(cache) == {}

    # ... a page read failing under a held leaf: each read of a descent,
    # of an overflow chain looked up and of one overwritten in place,
    tree.insert(encode_key(500), bytes(300))

    def probes():
        with tree.positioned():
            tree.lookup(encode_key(10))
            cache.fault_injector.check = injector.check
            tree.lookup(encode_key(500))
            tree.insert(encode_key(500), bytes(300))
            tree.lookup(encode_key(798))

    injector = FailingReads(allowed=1000)
    probes()
    reads = injector.reads
    assert reads > 6
    for allowed in range(reads):
        injector = FailingReads(allowed)
        with pytest.raises(Boom):
            probes()
        del cache.fault_injector.check
        assert pinned(cache) == {}
    assert tree.lookup(encode_key(10)) == b"v" * 40

    # ... and outside a scope the calls hold nothing between them.
    tree.lookup(encode_key(10))
    tree.insert(encode_key(10), b"x" * 40)
    assert pinned(cache) == {}

    # Whole-structure calls give the leaf up first: dropping the file
    # under a pinned page is an error the cache raises.
    with tree.positioned():
        tree.lookup(encode_key(10))
        assert tree.delete(encode_key(10))
        assert pinned(cache) == {}
        tree.lookup(encode_key(20))
        assert len(list(tree.scan())) == len(tree)
        assert pinned(cache) == {}
        tree.lookup(encode_key(20))
        tree.destroy()
    assert pinned(cache) == {}
    with pytest.raises(StorageError):
        tree.lookup(encode_key(20))


class Replaces:
    """Counts ``Page.replace`` calls and how many of them replaced."""

    def __init__(self, monkeypatch):
        self.calls = self.replaced = 0
        original = Page.replace

        def replace(page, index, value):
            self.calls += 1
            done = original(page, index, value)
            self.replaced += done
            return done

        monkeypatch.setattr(Page, "replace", replace)


@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_overwrites_at_the_held_leafs_bounds_leave_the_plain_pages(
    tmp_path, monkeypatch, page_size, seed
):
    """Inserts aimed at the leaf a lookup holds: its first and last keys
    and the keys just outside them (absent ones and the neighbours'),
    same-width and growing past what the full page still fits, inline to
    overflow and back, from ``bytes`` and ``bytearray`` — the pages,
    splits and answers of the same calls made unscoped. A key or value
    that is not bytes is refused without giving the held leaf up."""
    rng = random.Random(seed)
    plain_cache = make_cache(tmp_path, "plain", page_size)
    scoped_cache = make_cache(tmp_path, "scoped", page_size)
    plain, scoped = BTree(plain_cache), BTree(scoped_cache)
    widest_inline = scoped._inline_limit - 9  # an 8-byte key and the mark
    widths = [0, 8, 24, widest_inline, widest_inline + 1, page_size // 2]
    rows = [
        (encode_key(vid), bytes([vid % 256]) * rng.choice(widths[:4]))
        for vid in range(0, 400, 2)
    ]
    plain.bulk_load(rows)  # full leaves: a growing overwrite may not fit
    scoped.bulk_load(rows)
    model = dict(rows)
    replaces = Replaces(monkeypatch)
    for _ in range(40):
        with scoped.positioned():
            for _ in range(rng.randrange(1, 30)):
                anchor = encode_key(rng.randrange(0, 400, 2))
                assert scoped.lookup(anchor) == plain.lookup(anchor) == model[anchor]
                held = scoped._held
                first, last = decode_key(held.keys[0]), decode_key(held.keys[-1])
                key = encode_key(rng.choice([first, last, first - 1, first - 2, last + 1, last + 2]))
                old = model.get(key)
                if old is not None and rng.random() < 0.4:
                    width = len(old)
                else:
                    width = rng.choice(widths)
                value = bytes(rng.randrange(256) for _ in range(width))
                if rng.random() < 0.3:
                    value = bytearray(value)
                if rng.random() < 0.1:
                    for bad_key, bad_value in [
                        ("k", b"v"), (7, b"v"), (key, "v"), (key, None), (key, memoryview(b"v")),
                    ]:
                        with pytest.raises(TypeError):
                            scoped.insert(bad_key, bad_value)
                    assert scoped._held is held and held.pin_count == 1
                plain.insert(key, value)
                scoped.insert(key, value)
                model[key] = bytes(value)
        assert pinned(scoped_cache) == {}
        assert scoped.smo_counter == plain.smo_counter
        assert len(scoped) == len(plain) == len(model)
        assert page_images(scoped_cache) == page_images(plain_cache)
    assert list(scoped.scan()) == list(plain.scan()) == sorted(model.items())
    # Both ways out of the slot were taken: in place, and split.
    assert replaces.calls > replaces.replaced > 0
    assert scoped.smo_counter > 0


# ----------------------------------------------------------------------
# sorted write-back
# ----------------------------------------------------------------------
def sorted_batches(rng, page_size, count):
    """Batches of ``(key, value)`` in key order, as ``Compute`` writes a
    chunk back: mostly keys the tree holds (overwrites of the same width,
    growing and shrinking ones, inline ↔ overflowing ones), some new to
    it (vertices a message created; inserts that split), and empty ones."""
    widths = {}
    wide = {256: 32, 4096: 200}[page_size]
    for _ in range(count):
        vids = sorted(rng.sample(range(600), rng.choice([0, 1, 3, 40, 150])))
        batch = []
        for vid in vids:
            if vid in widths and rng.random() < 0.6:
                width = widths[vid]
            else:
                width = rng.choice([0, 8, 24, 25, wide, page_size // 2, page_size])
            widths[vid] = width
            value = bytes(rng.randrange(256) for _ in range(width))
            batch.append((encode_key(vid), bytearray(value) if rng.random() < 0.1 else value))
        yield batch


def written_one_by_one(tree, batch):
    with tree.positioned():
        for key, value in batch:
            tree.insert(key, value)


@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_a_sorted_batch_leaves_the_pages_positioned_inserts_leave(
    tmp_path, monkeypatch, page_size, seed
):
    rng = random.Random(seed)
    plain_cache = make_cache(tmp_path, "plain", page_size)
    sorted_cache = make_cache(tmp_path, "sorted", page_size)
    plain, batched = BTree(plain_cache), BTree(sorted_cache)
    rows = [(encode_key(vid), b"v" * (vid % 30)) for vid in range(0, 600, 3)]
    plain.bulk_load(rows)
    batched.bulk_load(rows)
    model = dict(rows)
    replaces = Replaces(monkeypatch)
    for batch in sorted_batches(rng, page_size, 60):
        written_one_by_one(plain, batch)
        if rng.random() < 0.5:
            batched.insert_sorted(batch)
        else:
            with batched.positioned():
                batched.insert_sorted(batch)
        model.update((key, bytes(value)) for key, value in batch)
        assert pinned(sorted_cache) == {}
        assert batched.smo_counter == plain.smo_counter
        assert len(batched) == len(plain) == len(model)
        assert page_images(sorted_cache) == page_images(plain_cache)
    assert list(batched.scan()) == list(plain.scan()) == sorted(model.items())
    assert replaces.replaced > 0 and batched.smo_counter > 0


@pytest.mark.parametrize("page_size", [256, 4096])
@pytest.mark.parametrize("seed", range(2))
def test_an_lsm_sorted_batch_is_its_inserts(tmp_path, page_size, seed):
    rng = random.Random(seed)
    plain_cache = make_cache(tmp_path, "plain", page_size)
    sorted_cache = make_cache(tmp_path, "sorted", page_size)
    budget = 6 * page_size
    plain = LSMBTree(plain_cache, memory_budget_bytes=budget, name="t")
    batched = LSMBTree(sorted_cache, memory_budget_bytes=budget, name="t")
    model = {}
    for batch in sorted_batches(rng, page_size, 40):
        written_one_by_one(plain, batch)
        batched.insert_sorted(batch)
        model.update((key, bytes(value)) for key, value in batch)
    assert batched.flushes == plain.flushes > 0
    assert page_images(sorted_cache) == page_images(plain_cache)
    assert list(batched.scan()) == list(plain.scan()) == sorted(model.items())


@pytest.mark.parametrize("make", [BTree, LSMBTree])
def test_a_sorted_batch_rejects_what_insert_rejects(tmp_path, make):
    plain_cache = make_cache(tmp_path, "plain", 256)
    sorted_cache = make_cache(tmp_path, "sorted", 256)
    plain, batched = make(plain_cache), make(sorted_cache)
    rows = [(encode_key(vid), b"v" * 8) for vid in range(0, 60, 2)]
    plain.bulk_load(rows)
    batched.bulk_load(rows)
    for bad in [("k", b"v"), (7, b"v"), (encode_key(31), "v"), (encode_key(32), None)]:
        batch = [(encode_key(10), b"w" * 8), (encode_key(11), b"new"), bad,
                 (encode_key(40), b"late")]
        with pytest.raises(TypeError) as one_by_one:
            written_one_by_one(plain, batch)
        with pytest.raises(TypeError) as at_once:
            batched.insert_sorted(batch)
        assert str(at_once.value) == str(one_by_one.value)
        assert pinned(sorted_cache) == {}
        assert page_images(sorted_cache) == page_images(plain_cache)
        assert list(batched.scan()) == list(plain.scan())

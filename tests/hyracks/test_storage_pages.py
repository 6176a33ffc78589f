"""Tests for slotted pages, the buffer cache, and run files."""

import os
import random
import re
import types

import pytest

from repro.common import serde
from repro.common.errors import StorageError
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.pages import (
    ENTRY_OVERHEAD,
    PAGE_OVERHEAD,
    Page,
    PageId,
    PageKind,
)
from repro.hyracks.storage import run_file
from repro.hyracks.storage.run_file import RunFileReader, SortedRuns
from tests.hyracks import per_tuple_reference as reference


def make_page(capacity=4096, kind=PageKind.LEAF):
    return Page(PageId(0, 0), kind, capacity)


def recomputed_nbytes(page):
    """The page image's size, summed entry by entry."""
    return PAGE_OVERHEAD + sum(
        ENTRY_OVERHEAD - 4 + len(key) + len(value) for key, value in page.entries()
    )


class TestPageRunningSize:
    """``nbytes`` is a running total; every mutation keeps it exact."""

    @pytest.mark.parametrize("seed", [0, 7, 1234, 987654321])
    def test_random_mutations_keep_nbytes_exact(self, seed):
        rng = random.Random(seed)
        pages = [make_page(capacity=1 << 20)]
        for step in range(600):
            page = rng.choice(pages)
            roll = rng.random()
            key = b"%03d" % rng.randrange(200)
            if roll < 0.6:  # insert, or replace with another width
                page.put(key, bytes(rng.randrange(0, 40)))
            elif roll < 0.85:
                page.remove(key)
            elif page.num_entries >= 2:
                right = Page(PageId(0, len(pages)), page.kind, page.capacity)
                page.split_into(right)
                pages.append(right)
            for touched in pages:
                assert touched.nbytes == recomputed_nbytes(touched)
        for page in pages:
            image = page.to_bytes()
            assert page.nbytes == len(image)
            reloaded = Page.from_bytes(page.page_id, image.ljust(4096, b"\0"), page.capacity)
            assert reloaded.nbytes == len(image)
            assert reloaded.fits(b"k", b"v") == page.fits(b"k", b"v")

    def test_fits_is_the_image_size_against_capacity(self):
        page = make_page(capacity=PAGE_OVERHEAD + 2 * (ENTRY_OVERHEAD - 4 + 4))
        assert page.fits(b"ab", b"cd")
        page.put(b"ab", b"cd")
        assert page.fits(b"ef", b"gh") and not page.fits(b"ef", b"ghi")
        page.put(b"ef", b"gh")
        assert page.nbytes == page.capacity == len(page.to_bytes())


class TestPage:
    def test_put_keeps_keys_sorted(self):
        page = make_page()
        for key in (b"c", b"a", b"b"):
            page.put(key, b"v" + key)
        assert page.keys == [b"a", b"b", b"c"]

    def test_put_replaces_existing(self):
        page = make_page()
        assert page.put(b"k", b"1") is False
        assert page.put(b"k", b"2") is True
        assert page.values == [b"2"]
        assert page.num_entries == 1

    def test_find_and_lower_bound(self):
        page = make_page()
        page.put(b"b", b"")
        page.put(b"d", b"")
        assert page.find(b"b") == 0
        assert page.find(b"c") is None
        assert page.lower_bound(b"c") == 1
        assert page.lower_bound(b"e") == 2

    def test_remove(self):
        page = make_page()
        page.put(b"a", b"1")
        assert page.remove(b"a")
        assert not page.remove(b"a")
        assert page.num_entries == 0

    def test_fits_respects_capacity(self):
        page = make_page(capacity=64)
        assert page.fits(b"k", b"v")
        assert not page.fits(b"k", b"x" * 100)

    def test_split_moves_upper_half(self):
        left = make_page()
        right = Page(PageId(0, 1), PageKind.LEAF, 4096)
        for i in range(10):
            left.put(b"%02d" % i, b"v")
        separator = left.split_into(right)
        assert separator == b"05"
        assert left.keys == [b"%02d" % i for i in range(5)]
        assert right.keys == [b"%02d" % i for i in range(5, 10)]
        assert left.next_page_no == 1

    def test_split_preserves_chain(self):
        left = make_page()
        left.next_page_no = 77
        right = Page(PageId(0, 1), PageKind.LEAF, 4096)
        left.put(b"a", b"")
        left.put(b"b", b"")
        left.split_into(right)
        assert right.next_page_no == 77

    def test_split_single_entry_raises(self):
        page = make_page()
        page.put(b"a", b"")
        with pytest.raises(StorageError):
            page.split_into(Page(PageId(0, 1), PageKind.LEAF, 4096))

    def test_serialization_roundtrip(self):
        page = make_page()
        page.put(b"alpha", b"1")
        page.put(b"beta", b"\x00\xff")
        page.next_page_no = 42
        image = page.to_bytes()
        clone = Page.from_bytes(PageId(0, 0), image, 4096)
        assert clone.keys == page.keys
        assert clone.values == page.values
        assert clone.next_page_no == 42
        assert clone.kind == PageKind.LEAF

    def test_oversized_image_raises(self):
        page = make_page(capacity=32)
        page.keys = [b"k"]
        page.values = [b"v" * 100]
        with pytest.raises(StorageError):
            page.to_bytes()

    def test_child_index_routing(self):
        page = make_page(kind=PageKind.INTERIOR)
        page.put(b"", b"c0")
        page.put(b"m", b"c1")
        assert page.child_index(b"a") == 0
        assert page.child_index(b"m") == 1
        assert page.child_index(b"z") == 1


class TestBufferCache:
    def test_new_page_is_pinned(self, buffer_cache):
        file_id = buffer_cache.create_file()
        page = buffer_cache.new_page(file_id, PageKind.LEAF)
        assert page.pin_count == 1
        buffer_cache.unpin(page, dirty=True)

    def test_pin_hit_and_miss(self, buffer_cache):
        file_id = buffer_cache.create_file()
        page = buffer_cache.new_page(file_id, PageKind.LEAF)
        page.put(b"k", b"v")
        pid = page.page_id
        buffer_cache.unpin(page, dirty=True)
        again = buffer_cache.pin(pid)
        assert again is page
        assert buffer_cache.stats.hits == 1
        buffer_cache.unpin(again)

    def test_eviction_and_reload(self, tiny_buffer_cache):
        cache = tiny_buffer_cache
        file_id = cache.create_file()
        page_ids = []
        for i in range(10):
            page = cache.new_page(file_id, PageKind.LEAF)
            page.put(b"key%d" % i, b"value%d" % i)
            page_ids.append(page.page_id)
            cache.unpin(page, dirty=True)
        assert cache.stats.evictions > 0
        assert cache.num_cached_pages <= 3
        # Every page is still readable after eviction.
        for i, pid in enumerate(page_ids):
            page = cache.pin(pid)
            assert page.values[0] == b"value%d" % i
            cache.unpin(page)

    def test_pinned_pages_survive_pressure(self, tiny_buffer_cache):
        cache = tiny_buffer_cache
        file_id = cache.create_file()
        pinned = cache.new_page(file_id, PageKind.LEAF)
        pinned.put(b"keep", b"me")
        for _ in range(6):
            page = cache.new_page(file_id, PageKind.LEAF)
            cache.unpin(page, dirty=True)
        assert cache.pin(pinned.page_id) is pinned
        cache.unpin(pinned)
        cache.unpin(pinned, dirty=True)

    def test_unpin_unpinned_raises(self, buffer_cache):
        file_id = buffer_cache.create_file()
        page = buffer_cache.new_page(file_id, PageKind.LEAF)
        buffer_cache.unpin(page)
        with pytest.raises(StorageError):
            buffer_cache.unpin(page)

    def test_delete_file_drops_pages(self, buffer_cache):
        file_id = buffer_cache.create_file()
        page = buffer_cache.new_page(file_id, PageKind.LEAF)
        buffer_cache.unpin(page, dirty=True)
        buffer_cache.delete_file(file_id)
        assert buffer_cache.num_cached_pages == 0

    def test_flush_writes_dirty_pages(self, buffer_cache):
        file_id = buffer_cache.create_file()
        page = buffer_cache.new_page(file_id, PageKind.LEAF)
        page.put(b"a", b"b")
        buffer_cache.unpin(page, dirty=True)
        buffer_cache.flush_file(file_id)
        assert buffer_cache.stats.writebacks == 1
        assert not page.dirty


def spilled(file_manager, *runs):
    """A :class:`SortedRuns` scope of raw byte values that spilled each of
    ``runs`` (lists of key-sorted ``(key, value)`` byte pairs)."""
    sorted_runs = SortedRuns(types.SimpleNamespace(files=file_manager), "sort-run", serde.BYTES)
    for run in runs:
        sorted_runs.spill(run)
    return sorted_runs


def extent_images(sorted_runs):
    with open(sorted_runs.path, "rb") as handle:
        data = handle.read()
    return [data[offset:offset + length] for offset, length in sorted_runs.extents]


class TestRunFiles:
    def test_roundtrip(self, file_manager):
        records = [(b"", b"v3"), (b"k1", b"v1"), (b"k2", b"")]
        with spilled(file_manager, records) as runs:
            assert list(runs.merged()) == records
            extent = RunFileReader(runs.path, file_manager, runs.extents[0])
            assert list(extent) == records

    def test_empty_file(self, file_manager):
        path = file_manager.create_temp_path()
        open(path, "wb").close()
        assert list(RunFileReader(path, file_manager)) == []
        with spilled(file_manager, []) as runs:
            assert runs.extents == [(0, 0)]
            assert list(runs.merged()) == []

    def test_missing_file_is_refused(self, file_manager):
        # Every owner writes its run before reading it: a run that is not
        # there was lost, and reading it as empty would drop its records.
        reader = RunFileReader(file_manager.create_temp_path(), file_manager)
        with pytest.raises(StorageError, match="missing"):
            list(reader)
        assert file_manager.io.disk_read_bytes == 0

    def test_large_volume(self, file_manager):
        # Two runs, each longer than a read chunk: replayed a chunk at a
        # time, not decoded whole.
        halves = [
            [(b"%08d" % i, b"payload-%d" % i) for i in range(start, 10000, 2)]
            for start in (0, 1)
        ]
        with spilled(file_manager, *halves) as runs:
            assert all(length > run_file._READ_CHUNK for _, length in runs.extents)
            count = 0
            for i, (key, value) in enumerate(runs.merged()):
                assert (key, value) == (b"%08d" % i, b"payload-%d" % i)
                count += 1
        assert count == 10000

    def test_io_counters_recorded(self, file_manager):
        with spilled(file_manager, [(b"k", b"v")], [(b"a", b"")]) as runs:
            list(runs.merged())
        assert file_manager.io.disk_write_bytes == 8 + 2 + 8 + 1
        assert file_manager.io.disk_read_bytes == file_manager.io.disk_write_bytes

    def test_delete(self, file_manager):
        with spilled(file_manager, [(b"k", b"v")], [(b"k", b"w")]) as runs:
            path = runs.path
        assert not os.path.exists(path)
        with pytest.raises(StorageError, match="missing"):
            list(RunFileReader(path))

    def test_runs_are_extents_of_one_file(self, file_manager):
        """Every run of a scope goes to the one file it created, in the
        order spilled, and each extent is its run's framed image."""
        runs_in = [sorted(MIXED_RECORDS[:4]), sorted(MIXED_RECORDS[4:]), []]
        with spilled(file_manager, *runs_in) as runs:
            assert os.listdir(file_manager.root) == [os.path.basename(runs.path)]
            images = list(map(run_file.pack_pairs, runs_in))
            assert extent_images(runs) == images
            assert runs.extents == [
                (len(b"".join(images[:i])), len(image)) for i, image in enumerate(images)
            ]
        assert os.listdir(file_manager.root) == []

    def test_an_extent_cut_inside_a_record_names_the_file_and_the_offset(
        self, file_manager
    ):
        first, second = sorted(MIXED_RECORDS[:4]), sorted(MIXED_RECORDS[4:])
        with spilled(file_manager, first, second) as runs:
            offset, length = runs.extents[1]
            runs.extents[1] = (offset, length - 3)
            last_record = offset + len(run_file.pack_pairs(second[:-1]))
            pattern = r"%s is cut inside a record at offset %d" % (
                re.escape(runs.path), last_record
            )
            with pytest.raises(StorageError, match=pattern):
                list(runs.merged())
        assert os.listdir(file_manager.root) == []


MIXED_RECORDS = [
    (b"k1", b"v1"),
    (b"", b"value-without-a-key"),
    (b"key-without-a-value", b""),
    (b"", b""),
    (b"k7654321", b"value-2" * 9),
    (b"\x00\x00\x00\x02", b"\x00\x00\x00\x01ab"),  # bytes that look like a header
    (b"last", b"z"),
]


class TestRunFileCutInsideARecord:
    """A run (or a checkpoint blob: same framing, same parser) that does
    not end on a record boundary is damaged, not shorter data."""

    def boundaries(self):
        ends, offset = [0], 0
        for key, value in MIXED_RECORDS:
            offset += 8 + len(key) + len(value)
            ends.append(offset)
        return ends

    @pytest.mark.parametrize("chunk", [7, 16, 64 << 10])
    @pytest.mark.parametrize("prefix", [b"", b"another run"])
    def test_every_truncation_is_a_clean_prefix_or_an_error(
        self, file_manager, monkeypatch, chunk, prefix
    ):
        """The whole file, or an extent of it that starts after
        ``prefix``, read up to each cut."""
        monkeypatch.setattr(run_file, "_READ_CHUNK", chunk)
        blob = run_file.pack_pairs(MIXED_RECORDS)
        boundaries = self.boundaries()
        assert boundaries[-1] == len(blob)
        path = file_manager.create_temp_path()
        for cut in range(len(blob) + 1):
            with open(path, "wb") as handle:
                handle.write(prefix + blob[:cut] + b"beyond the extent")
            extent = (len(prefix), cut)
            if not prefix:
                with open(path, "wb") as handle:
                    handle.write(blob[:cut])
                extent = None
            whole = max(end for end in boundaries if end <= cut)
            read_before = file_manager.io.disk_read_bytes
            records = []
            reader = RunFileReader(path, file_manager, extent)
            if cut in boundaries:
                records.extend(reader)
            else:
                with pytest.raises(StorageError, match="offset %d" % (len(prefix) + whole)):
                    records.extend(reader)
            # Never a shortened key or value: whole records only, and
            # only their bytes are charged as read.
            assert records == MIXED_RECORDS[: boundaries.index(whole)]
            assert file_manager.io.disk_read_bytes - read_before == whole

    def test_an_extent_past_the_end_of_its_file(self, file_manager):
        path = file_manager.create_temp_path()
        blob = run_file.pack_pairs(MIXED_RECORDS)
        with open(path, "wb") as handle:
            handle.write(blob)
        reader = RunFileReader(path, file_manager, (0, len(blob) + 8))
        with pytest.raises(StorageError, match="offset %d" % len(blob)):
            list(reader)

    def test_a_blob_of_pairs_is_parsed_the_same_way(self):
        blob = run_file.pack_pairs(MIXED_RECORDS)
        boundaries = self.boundaries()
        for cut in range(len(blob) + 1):
            if cut in boundaries:
                assert list(run_file.iter_pairs(blob[:cut])) == (
                    MIXED_RECORDS[: boundaries.index(cut)]
                )
            else:
                with pytest.raises(StorageError):
                    list(run_file.iter_pairs(blob[:cut]))
        assert list(run_file.iter_pairs(memoryview(blob))) == MIXED_RECORDS

    def test_a_record_larger_than_the_read_chunk(self, file_manager, monkeypatch):
        monkeypatch.setattr(run_file, "_READ_CHUNK", 32)
        records = [(b"a", b"x" * 1000), (b"b" * 100, b""), (b"c", b"y")]
        with spilled(file_manager, records, [(b"b", b"z" * 40)]) as runs:
            assert list(runs.merged()) == sorted(records + [(b"b", b"z" * 40)])

    def test_batches_and_single_appends_frame_the_same_bytes(self, tmp_path, file_manager):
        """A spilled run is the record-at-a-time framing of its pairs."""
        run = sorted(MIXED_RECORDS)
        reference_path = reference.write_run(
            types.SimpleNamespace(files=file_manager), "reference", run
        )
        with open(reference_path, "rb") as handle:
            want = handle.read()
        with spilled(file_manager, run, iter(run)) as runs:
            assert extent_images(runs) == [want, want]
        assert file_manager.io.disk_write_bytes == 3 * len(want)


class TestReplacementPolicies:
    def test_lru_floods_under_cyclic_scan(self, file_manager):
        """A working set one page over capacity misses on every access
        of the cyclic scan the full-outer-join plan issues."""
        num_pages, capacity_pages = 8, 6
        cache = BufferCache(capacity_pages * 4096, 4096, file_manager)
        file_id = cache.create_file()
        ids = []
        for i in range(num_pages):
            page = cache.new_page(file_id, PageKind.LEAF)
            page.put(b"k%02d" % i, b"v")
            ids.append(page.page_id)
            cache.unpin(page, dirty=True)
        cache.stats.hits = cache.stats.misses = 0
        for _ in range(5):
            for pid in ids:
                cache.unpin(cache.pin(pid))
        total = cache.stats.hits + cache.stats.misses
        # LRU evicts exactly what the cyclic scan needs next: ~0 hits.
        assert cache.stats.hits / total < 0.05

"""A page-based B+-tree running entirely through the buffer cache.

This is the default ``Vertex`` storage of Pregelix (paper Section 5.2):
it supports efficient lookups, ordered scans, and in-place updates, and —
because every page access goes through the LRU buffer cache — it spills
transparently once the tree outgrows the cache budget.

Layout
------
Interior pages store ``(separator_key, child_page_no)`` entries; entry
``i`` routes keys in ``[keys[i], keys[i+1])``. The root's first separator
is the empty byte string (minus infinity). Leaf pages store records and
are chained left-to-right through ``next_page_no`` for range scans.
Records whose value exceeds a quarter of the page are moved to a chain of
dedicated overflow (DATA) pages, with a small pointer left in the leaf.

Concurrent-update tolerance
---------------------------
Scans snapshot one leaf at a time and watch a structural-modification
counter; if a split happens while a scan is live (the Pregelix compute
mini-operator inserts vertices during the join scan), the cursor re-seeks
past the last key it returned instead of trusting stale page links.

Deletes do not rebalance (no page merging); emptied pages stay in the
chain. That matches the workload: Pregel graph mutations are a trickle
compared to updates, and the LSM variant exists for delete-heavy jobs.

Positioned access
-----------------
Inside a :meth:`BTree.positioned` scope the leaf of the last ``lookup``
or ``insert`` stays pinned, and the next call whose key lies within that
leaf's ``[keys[0], keys[-1]]`` starts from it instead of from the root —
the paper's vertex update as a mini-operator on the leaf the index join
already holds (Section 5.3.2). A pass in key order then pins each leaf
once, not once per key, and an inline image written over a key on it
that the page still fits is one bisect and one ``Page.replace``.
Everything else
(a key outside the leaf, an insert that is not an overwrite in place)
gives the leaf up and runs the ordinary descent. Safe because one
operator clone at a time uses an index partition (DESIGN.md §3).
"""

import bisect
import contextlib
import operator
import struct
from itertools import islice, repeat

from repro.common.errors import StorageError
from repro.hyracks.storage.index import Index
from repro.hyracks.storage.pages import ENTRY_OVERHEAD, PAGE_OVERHEAD, PageId, PageKind

_CHILD = struct.Struct(">q")
_OVERFLOW_HEADER = struct.Struct(">qI")  # first overflow page, total length
_OVERFLOW_MARK = b"\x01"
_INLINE_MARK = b"\x00"
_KEY, _VALUE = operator.itemgetter(0), operator.itemgetter(1)
#: Rows ``bulk_load`` takes from its input at a time: all it holds of the
#: input beyond the leaf it fills.
_BULK_LOAD_BATCH = 1024


class BTree(Index):
    """A B+-tree over ``(bytes, bytes)`` records inside one paged file.

    :param buffer_cache: the node's :class:`BufferCache`.
    :param name: file name hint (useful when inspecting spill directories).
    """

    def __init__(self, buffer_cache, name=None):
        self.cache = buffer_cache
        self.file_id = buffer_cache.create_file(name)
        self.smo_counter = 0
        self._count = 0
        self._positioned = False  # inside a positioned() scope
        self._held = None  # the leaf lookup/insert is at (pinned), if any
        root = self.cache.new_page(self.file_id, PageKind.LEAF)
        self.root_page_no = root.page_id.page_no
        self.cache.unpin(root, dirty=True)
        capacity = buffer_cache.page_size
        self._inline_limit = max(64, (capacity - PAGE_OVERHEAD) // 3)
        self._chunk_limit = capacity - PAGE_OVERHEAD - ENTRY_OVERHEAD

    # ------------------------------------------------------------------
    # Index interface
    # ------------------------------------------------------------------
    def insert(self, key, value):
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("keys must be bytes")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        try:
            leaf, path = self._seek(key, for_write=True)
            index = leaf.find(key)
            old = None if index is None else leaf.values[index]
            if (
                old is not None
                and old[:1] == _OVERFLOW_MARK
                and self._rewrite_overflow_chain(old, value)
            ):
                return  # the leaf's pointer to the chain still holds
            stored = self._encode_value(key, value)
            if old is not None and leaf.replace(index, stored):
                # The new image fits where the old one is: it replaced it
                # in its slot — the page a remove + re-insert would leave.
                return
            if path is None:
                # The entry moves and the leaf may split, which takes the
                # path that a leaf held from an earlier call does not carry.
                self._release()
                leaf, path = self._seek(key, for_write=True)
            self._held = None  # _insert_into_leaf unpins it
            if old is not None:
                leaf.remove(key)
                self._count -= 1
            self._insert_into_leaf(leaf, path, key, stored)
            self._count += 1
        finally:
            if not self._positioned:
                self._release()

    def insert_sorted(self, pairs):
        """:meth:`insert` of each pair, in key order. A key on the held
        leaf whose inline image still fits is written over in its slot
        after one bisect, without a call of :meth:`insert`: the page it
        leaves is the one :meth:`insert` leaves. The old image needs no
        check: an overflowing one has a length no inline value has.
        Everything else — a key new to the tree, a key off the held leaf,
        an overflowing or non-bytes key or value, a split — is
        :meth:`insert` itself. Only a :meth:`positioned` scope holds a
        leaf."""
        insert = self.insert
        limit = self._inline_limit
        bisect_left = bisect.bisect_left
        leaf = self._held
        for key, value in pairs:
            if (
                leaf is not None
                and isinstance(key, (bytes, bytearray))
                and isinstance(value, (bytes, bytearray))
                and len(key) + len(value) + 1 <= limit
            ):
                keys = leaf.keys
                index = bisect_left(keys, key)
                if (
                    index < len(keys)
                    and keys[index] == key
                    and leaf.replace(index, _INLINE_MARK + value)
                ):
                    continue
            insert(key, value)
            leaf = self._held

    def delete(self, key):
        self._release()
        leaf, _path = self._descend(key, for_write=True)
        try:
            removed = leaf.remove(key)
        finally:
            self.cache.unpin(leaf, dirty=True)
        if removed:
            self._count -= 1
        return removed

    def lookup(self, key):
        try:
            leaf, _path = self._seek(key, for_write=False)
            index = leaf.find(key)
            if index is None:
                return None
            return self._decode_value(leaf.values[index])
        finally:
            if not self._positioned:
                self._release()

    def lookup_sorted(self, keys):
        """:meth:`lookup` of each key of the sorted list ``keys``, walking
        the held leaf: the keys from the first one a leaf answers up to
        its last key are bisected on it in one pass, and the next key
        re-seeks from the root — exactly where :meth:`lookup` in a
        :meth:`positioned` scope gives the leaf up, so the same pages are
        pinned in the same order."""
        values = []
        start = 0
        total = len(keys)
        decode = self._decode_value
        bisect_left = bisect.bisect_left
        try:
            while start < total:
                leaf, _path = self._seek(keys[start], for_write=False)
                leaf_keys = leaf.keys
                stop = start + 1
                if stop < total and leaf_keys and leaf_keys[0] <= keys[stop]:
                    stop = bisect.bisect_right(keys, leaf_keys[-1], stop)
                probes = keys[start:stop]
                leaf_values = leaf.values
                width = len(leaf_keys)
                values += [
                    None if at == width or leaf_keys[at] != key
                    else leaf_values[at][1:] if leaf_values[at][:1] == _INLINE_MARK
                    else decode(leaf_values[at])
                    for key, at in zip(probes, map(bisect_left, repeat(leaf_keys), probes))
                ]
                start = stop
            return values
        finally:
            if not self._positioned:
                self._release()

    @contextlib.contextmanager
    def positioned(self):
        self._positioned = True
        try:
            yield
        finally:
            self._positioned = False
            self._release()

    def scan(self, low=None, high=None):
        # A leaf at a time: its entries in [resume, high) are copied off
        # the pinned page, their values decoded in one pass, and yielded
        # from a zip — no frame of this generator per entry.
        self._release()
        decode = self._decode_value
        page_no = self._leftmost_leaf() if low is None else self._leaf_for(low)
        resume_key = low
        resume_exclusive = False
        while page_no != -1:
            page = self.cache.pin(PageId(self.file_id, page_no))
            keys = page.keys
            if resume_key is None:
                start = 0
            elif resume_exclusive:
                start = bisect.bisect_right(keys, resume_key)
            else:
                start = bisect.bisect_left(keys, resume_key)
            stop = len(keys) if high is None else bisect.bisect_left(keys, high, start)
            ended = stop < len(keys)  # a key at or past ``high`` is here
            keys = keys[start:stop]
            values = page.values[start:stop]
            next_page_no = page.next_page_no
            self.cache.unpin(page)
            version = self.smo_counter

            if keys:
                yield from zip(keys, [
                    value[1:] if value[:1] == _INLINE_MARK else decode(value)
                    for value in values
                ])
                last_key = keys[-1]
            else:
                last_key = resume_key
            if ended:
                return
            if self.smo_counter != version and last_key is not None:
                # A split moved entries while the consumer held the floor;
                # re-locate the first key strictly past what we returned.
                page_no = self._leaf_for(last_key)
                resume_key = last_key
                resume_exclusive = True
            else:
                page_no = next_page_no
                resume_key = None
                resume_exclusive = False

    def bulk_load(self, pairs):
        """Load the empty tree from the iterable ``pairs`` in strictly
        increasing key order, :data:`_BULK_LOAD_BATCH` rows at a time: a
        batch's keys are checked and its inline images made in one pass
        each, and a leaf takes the rows it fits from a slice
        (:meth:`Page.fill`). A value that overflows has its chain written
        at its turn, so every page — and its number — is the one a load
        row by row leaves."""
        self._release()
        if self._count:
            raise StorageError("bulk_load requires an empty B-tree")
        level = []  # (first_key, page_no) of each leaf, left to right
        page = None
        previous = []  # the last key of the batch before
        offer = 64  # rows a leaf is offered at once: once one is full, its count + 1
        limit = self._inline_limit
        pairs = iter(pairs)
        while True:
            batch = list(islice(pairs, _BULK_LOAD_BATCH))
            if not batch:
                break
            keys = list(map(_KEY, batch))
            ordered = previous + keys
            if not all(map(operator.lt, ordered, islice(ordered, 1, None))):
                raise StorageError("bulk_load input must have strictly increasing keys")
            previous = keys[-1:]
            if not all(map(isinstance, map(_VALUE, batch), repeat((bytes, bytearray)))):
                raise TypeError("values must be bytes")
            images = [
                _INLINE_MARK + value if len(key) + len(value) < limit else None
                for key, value in batch
            ]
            start = 0
            total = len(batch)
            while start < total:
                if images[start] is None:
                    images[start] = self._encode_value(*batch[start])
                    stop = start + 1
                else:
                    stop = min(total, start + offer)
                    if None in images[start:stop]:
                        stop = images.index(None, start, stop)
                if page is None:
                    # Reuse the pre-allocated empty root leaf as the first leaf.
                    page = self.cache.pin(PageId(self.file_id, self.root_page_no))
                    level.append((keys[start], page.page_id.page_no))
                start += page.fill(keys[start:stop], images[start:stop])
                if start < stop:
                    # The leaf refused a row: the next one starts with it.
                    offer = len(page.keys) + 1
                    fresh = self.cache.new_page(self.file_id, PageKind.LEAF)
                    page.next_page_no = fresh.page_id.page_no
                    self.cache.unpin(page, dirty=True)
                    page = fresh
                    level.append((keys[start], page.page_id.page_no))
            self._count += total
        if page is not None:
            self.cache.unpin(page, dirty=True)
        if len(level) > 1:
            self._build_interior_levels(level)

    def __len__(self):
        return self._count

    def close(self):
        self.cache.flush_file(self.file_id)

    def destroy(self):
        """Drop the tree's file entirely (used when rebuilding an index)."""
        self._release()
        self.cache.delete_file(self.file_id)
        self._count = 0

    # ------------------------------------------------------------------
    # descent and split machinery
    # ------------------------------------------------------------------
    def _seek(self, key, for_write):
        """The pinned leaf responsible for ``key``, now ``_held``, and the
        path to it — ``None`` when it is the leaf that was held already."""
        leaf = self._held
        if leaf is not None:
            keys = leaf.keys
            if keys and keys[0] <= key <= keys[-1]:
                return leaf, None
            self._release()
        leaf, path = self._descend(key, for_write)
        self._held = leaf
        return leaf, path

    def _release(self):
        """Unpin the held leaf, if any (what changed it marked it dirty)."""
        leaf, self._held = self._held, None
        if leaf is not None:
            self.cache.unpin(leaf)

    def _descend(self, key, for_write):
        """Walk to the leaf for ``key``; returns (pinned leaf, parent path)."""
        path = []
        page_no = self.root_page_no
        while True:
            page = self.cache.pin(PageId(self.file_id, page_no))
            if page.kind == PageKind.LEAF:
                return page, path
            index = page.child_index(key)
            child = _CHILD.unpack(page.values[index])[0]
            if for_write:
                path.append(page_no)
            self.cache.unpin(page)
            page_no = child

    def _leftmost_leaf(self):
        page_no = self.root_page_no
        while True:
            page = self.cache.pin(PageId(self.file_id, page_no))
            try:
                if page.kind == PageKind.LEAF:
                    return page_no
                page_no = _CHILD.unpack(page.values[0])[0]
            finally:
                self.cache.unpin(page)

    def _leaf_for(self, key):
        leaf, _path = self._descend(key, for_write=False)
        page_no = leaf.page_id.page_no
        self.cache.unpin(leaf)
        return page_no

    def _insert_into_leaf(self, leaf, path, key, stored):
        if leaf.fits(key, stored):
            leaf.put(key, stored)
            self.cache.unpin(leaf, dirty=True)
            return
        right = self.cache.new_page(self.file_id, PageKind.LEAF)
        separator = leaf.split_into(right, key, stored)
        self.smo_counter += 1
        target = right if key >= separator else leaf
        if not target.fits(key, stored):
            raise StorageError("record does not fit a freshly split page")
        target.put(key, stored)
        right_no = right.page_id.page_no
        self.cache.unpin(leaf, dirty=True)
        self.cache.unpin(right, dirty=True)
        self._insert_separator(path, separator, right_no)

    def _insert_separator(self, path, separator, child_no):
        child_ref = _CHILD.pack(child_no)
        if not path:
            self._grow_new_root(separator, child_ref)
            return
        parent_no = path.pop()
        parent = self.cache.pin(PageId(self.file_id, parent_no))
        if parent.fits(separator, child_ref):
            parent.put(separator, child_ref)
            self.cache.unpin(parent, dirty=True)
            return
        right = self.cache.new_page(self.file_id, PageKind.INTERIOR)
        promoted = parent.split_into(right, separator, child_ref)
        self.smo_counter += 1
        target = right if separator >= promoted else parent
        if not target.fits(separator, child_ref):
            raise StorageError("separator does not fit a freshly split page")
        target.put(separator, child_ref)
        right_no = right.page_id.page_no
        self.cache.unpin(parent, dirty=True)
        self.cache.unpin(right, dirty=True)
        # When the split page was the root, ``path`` is empty here and the
        # recursive call grows a new root one level up.
        self._insert_separator(path, promoted, right_no)

    def _grow_new_root(self, separator, child_ref):
        old_root_no = self.root_page_no
        root = self.cache.new_page(self.file_id, PageKind.INTERIOR)
        root.put(b"", _CHILD.pack(old_root_no))
        root.put(separator, child_ref)
        self.root_page_no = root.page_id.page_no
        self.smo_counter += 1
        self.cache.unpin(root, dirty=True)

    def _build_interior_levels(self, level):
        # Invariant maintained at every level (matching the insert path):
        # the leftmost page's first separator is b"" (minus infinity), so
        # arbitrarily small search keys route correctly from the root down.
        while len(level) > 1:
            parent_level = []
            page = None
            for position, (_first_key, child_no) in enumerate(level):
                separator = b"" if position == 0 else level[position][0]
                child_ref = _CHILD.pack(child_no)
                if page is None or not page.fits(separator, child_ref):
                    if page is not None:
                        self.cache.unpin(page, dirty=True)
                    page = self.cache.new_page(self.file_id, PageKind.INTERIOR)
                    parent_level.append((separator, page.page_id.page_no))
                page.put(separator, child_ref)
            if page is not None:
                self.cache.unpin(page, dirty=True)
            level = parent_level
        self.root_page_no = level[0][1]

    # ------------------------------------------------------------------
    # overflow (large record) handling
    # ------------------------------------------------------------------
    def _encode_value(self, key, value):
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        if len(key) + len(value) + 1 <= self._inline_limit:
            return _INLINE_MARK + bytes(value)
        first_page_no = self._write_overflow_chain(bytes(value))
        return _OVERFLOW_MARK + _OVERFLOW_HEADER.pack(first_page_no, len(value))

    def _decode_value(self, stored):
        if stored[:1] == _INLINE_MARK:
            return stored[1:]
        first_page_no, total = _OVERFLOW_HEADER.unpack(stored[1:])
        return self._read_overflow_chain(first_page_no, total)

    def _chunks(self, value):
        """``value`` cut into what one overflow page holds."""
        size = self._chunk_limit
        return [value[i : i + size] for i in range(0, len(value), size)]

    def _write_overflow_chain(self, value):
        first_page_no = -1
        previous = None
        for chunk in self._chunks(value):
            page = self.cache.new_page(self.file_id, PageKind.DATA)
            page.put(b"", chunk)
            if previous is None:
                first_page_no = page.page_id.page_no
            else:
                previous.next_page_no = page.page_id.page_no
                self.cache.unpin(previous, dirty=True)
            previous = page
        if previous is not None:
            self.cache.unpin(previous, dirty=True)
        return first_page_no

    def _rewrite_overflow_chain(self, pointer, value):
        """Write ``value`` over the chain the stored ``pointer`` leads to,
        when the value there is as long: the same chunks on the same
        pages, so the pointer still holds and no page is allocated.
        Returns whether it did. (A chain of another length is left behind
        unreferenced, as every replaced chain was: the file has no free
        list.)"""
        page_no, total = _OVERFLOW_HEADER.unpack(pointer[1:])
        if total != len(value):
            return False
        for chunk in self._chunks(bytes(value)):
            page = self.cache.pin(PageId(self.file_id, page_no))
            page.put(b"", chunk)
            page_no = page.next_page_no
            self.cache.unpin(page, dirty=True)
        return True

    def _read_overflow_chain(self, first_page_no, total):
        parts = []
        page_no = first_page_no
        remaining = total
        while page_no != -1 and remaining > 0:
            page = self.cache.pin(PageId(self.file_id, page_no))
            chunk = page.values[0]
            next_no = page.next_page_no
            self.cache.unpin(page)
            parts.append(chunk)
            remaining -= len(chunk)
            page_no = next_no
        return b"".join(parts)

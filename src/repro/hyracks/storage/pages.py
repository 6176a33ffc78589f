"""Slotted pages: the unit of storage, caching, and spilling.

A page holds a sorted sequence of ``(key, value)`` byte-string entries.
Leaf pages of a B-tree store record payloads; interior pages store child
page numbers (encoded as 8-byte integers) keyed by separator keys. Pages
serialize to a fixed-size on-disk image so the buffer cache can evict and
reload them at stable offsets.
"""

import bisect
import itertools
import struct
import threading
from collections import namedtuple
from operator import add

from repro.common.errors import StorageError

_HEADER = struct.Struct(">BIq")  # kind, entry count, next page number
_ENTRY_HEADER = struct.Struct(">II")  # key length, value length

#: Fixed per-entry bookkeeping charge (slot pointer + entry header).
ENTRY_OVERHEAD = 12
#: Fixed per-page bookkeeping charge (header).
PAGE_OVERHEAD = _HEADER.size
#: What one entry adds to the page image besides its key and value.
_ENTRY_BYTES = _ENTRY_HEADER.size


class PageKind:
    """Discriminates what a page's entries mean."""

    LEAF = 0
    INTERIOR = 1
    DATA = 2


PageId = namedtuple("PageId", ["file_id", "page_no"])


class Page:
    """A sorted, byte-budgeted container of ``(key, value)`` entries.

    Entries are kept sorted by key; lookup is binary search. ``capacity``
    is the on-disk page size — an insert that would overflow it signals
    the caller (a B-tree) to split.
    """

    __slots__ = (
        "page_id",
        "kind",
        "capacity",
        "keys",
        "values",
        "next_page_no",
        "_nbytes",
        "dirty",
        "pin_count",
        "latch",
    )

    def __init__(self, page_id, kind, capacity):
        self.page_id = page_id
        self.kind = kind
        self.capacity = capacity
        self.keys = []
        self.values = []
        # Kept current by every method that changes keys/values (nothing
        # outside this class does).
        self._nbytes = PAGE_OVERHEAD
        self.next_page_no = -1
        self.dirty = False
        self.pin_count = 0
        # Content latch: the buffer cache takes it while serializing the
        # page for writeback. The access methods do not — a pinned page
        # is never written back and has one clone using it (DESIGN.md
        # §3); a caller sharing a pinned page across threads holds it
        # while mutating entries and releases it before calling back
        # into the cache.
        self.latch = threading.RLock()

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self):
        """Exact size of this page's on-disk image."""
        return self._nbytes

    def fits(self, key, value):
        """Whether inserting ``(key, value)`` keeps the page within capacity."""
        return self._nbytes + _ENTRY_BYTES + len(key) + len(value) <= self.capacity

    @property
    def num_entries(self):
        return len(self.keys)

    # ------------------------------------------------------------------
    # entry operations
    # ------------------------------------------------------------------
    def find(self, key):
        """Index of ``key``, or ``None`` when absent."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return index
        return None

    def lower_bound(self, key):
        """Index of the first entry with key >= ``key``."""
        return bisect.bisect_left(self.keys, key)

    def child_index(self, key):
        """Interior pages: index of the child covering ``key``.

        Entries partition the key space: entry ``i`` covers keys in
        ``[keys[i], keys[i+1])``; the first entry's key is the empty
        string (acts as minus infinity).
        """
        index = bisect.bisect_right(self.keys, key) - 1
        if index < 0:
            raise StorageError("interior page has no child for key %r" % (key,))
        return index

    def put(self, key, value):
        """Insert or replace; returns True if this was a replacement."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            self._nbytes += len(value) - len(self.values[index])
            self.values[index] = value
            self.dirty = True
            return True
        self.keys.insert(index, key)
        self.values.insert(index, value)
        self._nbytes += _ENTRY_BYTES + len(key) + len(value)
        self.dirty = True
        return False

    def fill(self, keys, values):
        """Append the entries of the lists ``keys`` and ``values`` — keys
        above every key on the page, in order — while each still fits
        (:meth:`fits`' rule, entry by entry); an empty page takes the
        first whatever its size. Returns how many it took: the greedy cut
        of a bulk load, with one running sum instead of a call per
        entry."""
        used = list(itertools.accumulate(map(
            add, map(add, map(len, keys), map(len, values)),
            itertools.repeat(_ENTRY_BYTES),
        )))
        taken = bisect.bisect_right(used, self.capacity - self._nbytes)
        if not taken and not self.keys and keys:
            taken = 1
        if taken:
            self.keys += keys[:taken]
            self.values += values[:taken]
            self._nbytes += used[taken - 1]
            self.dirty = True
        return taken

    def replace(self, index, value):
        """Give entry ``index`` the value ``value`` in its slot, if the
        page still fits; returns whether it did."""
        nbytes = self._nbytes + len(value) - len(self.values[index])
        if nbytes > self.capacity:
            return False
        self._nbytes = nbytes
        self.values[index] = value
        self.dirty = True
        return True

    def remove(self, key):
        """Delete ``key``; returns True when it was present."""
        index = self.find(key)
        if index is None:
            return False
        self._nbytes -= _ENTRY_BYTES + len(key) + len(self.values[index])
        del self.keys[index]
        del self.values[index]
        self.dirty = True
        return True

    def split_into(self, right, key=None, value=b""):
        """Move the upper half of the entries into ``right``.

        The cut is at the middle *entry* unless the half that ``(key,
        value)``, the entry the split is for, belongs to would still
        refuse it: only then is it where the halves' *bytes* balance
        best. Returns the first key now stored in ``right`` (the
        separator the parent must learn).
        """
        midpoint = len(self.keys) // 2
        if midpoint == 0:
            raise StorageError("cannot split a page with fewer than two entries")
        moved = self._bytes_from(midpoint)
        if key is not None:
            extra = _ENTRY_BYTES + len(key) + len(value)
            right_half = key >= self.keys[midpoint]
            half = PAGE_OVERHEAD + moved if right_half else self._nbytes - moved
            if half + extra > self.capacity:
                midpoint = self._byte_cut(key, extra)
                moved = self._bytes_from(midpoint)
        right.keys = self.keys[midpoint:]
        right.values = self.values[midpoint:]
        del self.keys[midpoint:]
        del self.values[midpoint:]
        right._nbytes = PAGE_OVERHEAD + moved
        self._nbytes -= moved
        right.next_page_no = self.next_page_no
        self.next_page_no = right.page_id.page_no
        self.dirty = True
        right.dirty = True
        return right.keys[0]

    def _bytes_from(self, index):
        """What the entries from ``index`` on take of the page image."""
        return _ENTRY_BYTES * (len(self.keys) - index) + sum(
            map(len, self.keys[index:] + self.values[index:])
        )

    def _byte_cut(self, key, extra):
        """The entry index to cut at so that the fuller half is smallest
        once an entry of ``extra`` bytes under ``key`` joins its side."""
        joins_right_below = bisect.bisect_right(self.keys, key)
        body = self._nbytes - PAGE_OVERHEAD
        below = list(itertools.accumulate(
            _ENTRY_BYTES + len(k) + len(v) for k, v in self.entries()
        ))

        def fuller_half(cut):
            left = below[cut - 1]
            if cut < joins_right_below:
                return max(left, body - left + extra)
            return max(left + extra, body - left)

        return min(range(1, len(self.keys)), key=fuller_half)

    def entries(self):
        """Iterate ``(key, value)`` pairs in key order."""
        return zip(self.keys, self.values)

    # ------------------------------------------------------------------
    # on-disk image
    # ------------------------------------------------------------------
    def to_bytes(self):
        parts = [_HEADER.pack(self.kind, len(self.keys), self.next_page_no)]
        for key, value in zip(self.keys, self.values):
            parts.append(_ENTRY_HEADER.pack(len(key), len(value)))
            parts.append(key)
            parts.append(value)
        image = b"".join(parts)
        if len(image) > self.capacity:
            raise StorageError(
                "page image %d bytes exceeds capacity %d" % (len(image), self.capacity)
            )
        return image

    @classmethod
    def from_bytes(cls, page_id, data, capacity):
        kind, count, next_page_no = _HEADER.unpack_from(data, 0)
        page = cls(page_id, kind, capacity)
        page.next_page_no = next_page_no
        offset = _HEADER.size
        for _ in range(count):
            key_len, value_len = _ENTRY_HEADER.unpack_from(data, offset)
            offset += _ENTRY_HEADER.size
            page.keys.append(bytes(data[offset : offset + key_len]))
            offset += key_len
            page.values.append(bytes(data[offset : offset + value_len]))
            offset += value_len
        page._nbytes = offset
        return page

    def __repr__(self):
        return "Page(%r, kind=%d, entries=%d, bytes=%d)" % (
            self.page_id,
            self.kind,
            len(self.keys),
            self.nbytes,
        )

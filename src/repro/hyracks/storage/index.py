"""The common access-method interface shared by B-tree and LSM B-tree.

Pregelix stores each ``Vertex`` partition behind this interface and lets
the user pick the implementation per job (paper Section 5.2): B-trees for
in-place-update-heavy algorithms like PageRank, LSM B-trees for
mutation-heavy workloads like the Genomix path-merging assembler.
"""

import contextlib

#: Sentinel value marking a deleted key inside LSM components.
TOMBSTONE = b"\x00__repro_tombstone__"


class Index:
    """Ordered ``bytes -> bytes`` map with range scans and bulk loading."""

    def insert(self, key, value):
        """Insert or overwrite ``key``."""
        raise NotImplementedError

    def insert_sorted(self, pairs):
        """:meth:`insert` each ``(key, value)`` of the list ``pairs``, in
        key order (the compute mini-operator's write-back): the stored
        bytes are those of the same inserts made one by one in a
        :meth:`positioned` scope. The default makes them."""
        insert = self.insert
        for key, value in pairs:
            insert(key, value)

    def delete(self, key):
        """Remove ``key``; silently ignores missing keys."""
        raise NotImplementedError

    def lookup(self, key):
        """Return the value for ``key``, or ``None`` when absent."""
        raise NotImplementedError

    def lookup_sorted(self, keys):
        """:meth:`lookup` of each key of the list ``keys``, in key order (an
        index join's probes): a list of one value or ``None`` per key, as
        the same lookups in a :meth:`positioned` scope give. The default
        makes them."""
        with self.positioned():
            return list(map(self.lookup, keys))

    def scan(self, low=None, high=None):
        """Iterate ``(key, value)`` in key order over ``[low, high)``.

        ``None`` bounds are unbounded. Implementations tolerate same-size
        in-place updates performed while a scan is open (the Pregelix
        compute mini-operator updates vertices during the join scan).
        """
        raise NotImplementedError

    def bulk_load(self, pairs):
        """Load from an iterator of strictly-increasing-key pairs.

        Only valid on an empty index.
        """
        raise NotImplementedError

    def positioned(self):
        """A ``with`` scope for a pass of ``lookup``/``insert`` calls in
        key order (the index joins and the compute mini-operator).

        Inside it an implementation may keep its place between calls
        instead of searching from the top each time; results and stored
        bytes are those of the same calls made outside. Whatever it holds
        is released when the scope exits, however it exits. One caller
        at a time per index — the engine's one clone per index partition
        (DESIGN.md §3). The default keeps no place.
        """
        return contextlib.nullcontext()

    def __len__(self):
        raise NotImplementedError

    def close(self):
        """Release pages and files held by the index."""
        raise NotImplementedError

    # Convenience helpers shared by implementations -----------------------
    def items(self):
        return self.scan()

    def keys(self):
        for key, _value in self.scan():
            yield key

    def __contains__(self, key):
        return self.lookup(key) is not None

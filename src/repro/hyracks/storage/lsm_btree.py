"""A log-structured merge B-tree (paper Section 4, "Access methods").

Updates land in an in-memory component (a sorted map pinned in memory,
like the pinned buffer pages the paper describes); when it exceeds its
budget it is flushed to an immutable on-disk B-tree component built with
bulk load — turning random update I/O into sequential writes. Lookups
consult the memory component, then disk components newest-first; deletes
write tombstones. When the number of disk components grows past
``max_components`` they are merged into one. A full scan whose output is
exactly the live entries of its memory snapshot has proved every disk
component it read dead, and retires them all.

Pregelix selects this structure for jobs whose vertex data changes size
drastically between supersteps or that mutate the graph heavily (e.g. the
Genomix path-merging assembler).
"""

import contextlib
from itertools import chain, islice, repeat
from operator import itemgetter, lt

from repro.common.errors import StorageError
from repro.hyracks.storage.bloom import BloomFilter
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.index import Index, TOMBSTONE
from repro.hyracks.storage.run_file import merge_sorted_rounds

_KEY, _VALUE = itemgetter(0), itemgetter(1)


class _Component:
    """One immutable disk component: a bulk-loaded B-tree plus the bloom
    filter that lets lookups skip it cheaply, the open scans reading it,
    and whether it has left the LSM (merged or retired). Its tree is
    destroyed once it has left and no scan reads it."""

    __slots__ = ("tree", "bloom", "readers", "gone")

    def __init__(self, tree, bloom):
        self.tree = tree
        self.bloom = bloom
        self.readers = 0
        self.gone = False

    def leave(self):
        """The component is out of its LSM: merged or retired."""
        self.gone = True
        self._destroy_if_unread()

    def release(self):
        """One open scan over the component has ended."""
        self.readers -= 1
        self._destroy_if_unread()

    def _destroy_if_unread(self):
        # No scan starts on a component that has left, so this destroys
        # its tree once.
        if self.gone and not self.readers:
            self.tree.destroy()


class LSMBTree(Index):
    """LSM tree of one memory component plus immutable B-tree components.

    :param buffer_cache: node buffer cache backing the disk components.
    :param memory_budget_bytes: flush threshold for the memory component.
    :param max_components: disk-component count that triggers a merge,
        which merges every component into one. Flushes, merges and
        retirements are recorded in the cache's telemetry session.
    """

    def __init__(self, buffer_cache, memory_budget_bytes=1 << 20, max_components=4, name=None):
        self.cache = buffer_cache
        self.telemetry = buffer_cache.telemetry
        self.memory_budget = int(memory_budget_bytes)
        self.max_components = int(max_components)
        self.name = name or "lsm"
        self._memory = {}
        self._memory_bytes = 0
        self._components = []  # newest first
        self._component_seq = 0
        self.flushes = 0
        self.merges = 0
        self.drops = 0  # full scans that retired every disk component they read
        self.bloom_skips = 0  # component descents avoided by blooms

    # ------------------------------------------------------------------
    # Index interface
    # ------------------------------------------------------------------
    def insert(self, key, value):
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("keys must be bytes")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        self._put(bytes(key), bytes(value))

    def insert_sorted(self, pairs):
        """:meth:`insert` of each pair of the list ``pairs``. A batch of
        bytes keys in strictly increasing order that cannot reach the
        flush threshold — even were no key already in memory — goes into
        the memory component with one ``dict.update``, its bytes
        accounted as the inserts one by one would. Any other batch is
        :meth:`insert` per pair, so a flush lands where it always did."""
        keys = list(map(_KEY, pairs))
        values = list(map(_VALUE, pairs))
        if all(map(isinstance, chain(keys, values), repeat((bytes, bytearray)))) and all(
            map(lt, keys, islice(keys, 1, None))
        ):
            added = sum(map(len, keys)) + sum(map(len, values))
            if self._memory_bytes + added < self.memory_budget:
                memory = self._memory
                keys = list(map(bytes, keys))
                present = memory.keys() & keys
                replaced = sum(map(len, present)) + sum(
                    map(len, map(memory.__getitem__, present))
                )
                memory.update(zip(keys, map(bytes, values)))
                self._memory_bytes += added - replaced
                return
        for key, value in pairs:
            self.insert(key, value)

    def delete(self, key):
        existed = self.lookup(key) is not None
        self._put(bytes(key), TOMBSTONE)
        return existed

    def lookup(self, key):
        if key in self._memory:
            value = self._memory[key]
            return None if value == TOMBSTONE else value
        for component in self._components:
            if key not in component.bloom:
                self.bloom_skips += 1
                continue
            value = component.tree.lookup(key)
            if value is not None:
                return None if value == TOMBSTONE else value
        return None

    def scan(self, low=None, high=None):
        # Snapshot the memory component (at the first ``next``) so
        # in-flight updates (the compute mini-operator writes during the
        # join scan) cannot corrupt the cursor; disk components are
        # immutable by construction, and the ones read here outlive a
        # merge or retirement until the scan ends.
        full = low is None and high is None
        if full:
            memory_items = sorted(self._memory.items())
        else:
            memory_items = sorted(
                (key, value)
                for key, value in self._memory.items()
                if (low is None or key >= low) and (high is None or key < high)
            )
        components = list(self._components)
        for component in components:
            component.readers += 1
        try:
            emitted = 0
            for pairs in merge_sorted_rounds([memory_items] + [
                component.tree.scan(low, high) for component in components
            ]):
                pairs = _winners(pairs)
                emitted += len(pairs)
                yield from pairs
            # Every live memory entry wins its key, so output no larger
            # than them means no disk key survived: the components are
            # dead, their tombstones too (nothing older exists).
            if full and components:
                values = list(map(_VALUE, memory_items))
                if emitted == len(values) - values.count(TOMBSTONE):
                    self._retire(components)
        finally:
            for component in components:
                component.release()

    def bulk_load(self, pairs):
        if len(self):
            raise StorageError("bulk_load requires an empty LSM B-tree")
        self._components.insert(0, self._build_component(pairs))

    def __len__(self):
        return sum(1 for _pair in self.scan())

    def close(self):
        self.flush_memory_component()
        for component in self._components:
            component.tree.close()

    def destroy(self):
        for component in self._components:
            component.leave()
        self._components = []
        self._memory = {}
        self._memory_bytes = 0

    # ------------------------------------------------------------------
    # LSM machinery
    # ------------------------------------------------------------------
    @property
    def num_disk_components(self):
        return len(self._components)

    @property
    def memory_component_bytes(self):
        return self._memory_bytes

    def flush_memory_component(self):
        """Flush the memory component to a new immutable disk component."""
        if not self._memory:
            return
        with self._storage_op("lsm.flush", "storage.lsm.flushes",
                              entries=len(self._memory), bytes=self._memory_bytes):
            self._components.insert(
                0, self._build_component(sorted(self._memory.items()))
            )
        self._memory = {}
        self._memory_bytes = 0
        self.flushes += 1
        if len(self._components) > self.max_components:
            self._merge_components()

    def _put(self, key, value):
        previous = self._memory.get(key)
        if previous is not None:
            self._memory_bytes -= len(key) + len(previous)
        self._memory[key] = value
        self._memory_bytes += len(key) + len(value)
        if self._memory_bytes >= self.memory_budget:
            self.flush_memory_component()

    def _new_tree(self):
        self._component_seq += 1
        return BTree(self.cache, name="%s-c%04d.dat" % (self.name, self._component_seq))

    def _build_component(self, pairs):
        """Bulk load a tree and populate its bloom filter in one pass."""
        tree = self._new_tree()
        pairs = list(pairs) if not isinstance(pairs, list) else pairs
        bloom = BloomFilter(expected_entries=max(len(pairs), 1))

        def loading():
            for key, value in pairs:
                bloom.add(key)
                yield key, value

        tree.bulk_load(loading())
        return _Component(tree, bloom)

    def _merge_components(self):
        # Every component is merged, the oldest included, so tombstones
        # shadow nothing below and are dropped.
        victims = self._components
        with self._storage_op("lsm.merge", "storage.lsm.merges",
                              policy="full", victims=len(victims)):
            merged = self._build_component(
                self._merged_scan([component.tree.scan() for component in victims])
            )
            self._components = [merged]
            for component in victims:
                component.leave()
        self.merges += 1

    def _retire(self, components):
        """Take those of ``components`` still in the LSM out of it: a full
        scan proved no key of theirs survives."""
        dead = [component for component in components if not component.gone]
        if not dead:
            return
        with self._storage_op("lsm.drop", "storage.lsm.drops", victims=len(dead)):
            for component in dead:
                component.leave()
            self._components = [
                component for component in self._components if not component.gone
            ]
        self.drops += 1

    @contextlib.contextmanager
    def _storage_op(self, name, counter, **args):
        """Span a flush, merge or retirement, then log and count it."""
        with self.telemetry.span(name, category="storage", index=self.name, **args):
            yield
        self.telemetry.event(name, category="storage", index=self.name, **args)
        self.telemetry.registry.counter(counter).inc()

    @staticmethod
    def _merged_scan(sources):
        """Merge ordered sources, given newest first: the merge is stable,
        so the first pair of a key is its winner. Tombstoned keys are
        dropped. A round of :func:`merge_sorted_rounds` holds every pair
        of the keys it holds, so each round is filtered on its own, in
        one comprehension; the cursor only hands its pairs on."""
        for pairs in merge_sorted_rounds(sources):
            yield from _winners(pairs)


def _winners(pairs):
    """The first pair of each key of the key-sorted list ``pairs``, unless
    its value is a tombstone."""
    return [
        pair for pair, previous in zip(pairs, chain((None,), map(_KEY, pairs)))
        if pair[0] != previous and pair[1] != TOMBSTONE
    ]


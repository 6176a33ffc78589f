"""Result and plan caching for repeated queries.

A serving workload repeats itself: the same SSSP source on the same
graph, the same PageRank sweep on yesterday's snapshot. Two caches
exploit that:

* :class:`ResultCache` — an LRU over finished result documents keyed by
  ``(dataset digest, algorithm, canonical params, plan class)``. The
  *plan class* is the bit-identity class established by the differential
  harness (DESIGN.md §7): results are bit-identical across join
  strategies and storage structures, so only the group-by strategy and
  connector policy participate in the key — a cached full-outer-join run
  legitimately serves a left-outer-join request.
* :class:`PlanCache` — remembers the physical plan a finished run ended
  on, keyed by ``(dataset digest, algorithm)``, so later submissions of
  the same workload start from a plan that already proved itself instead
  of the static default (a cheap, memoized stand-in for re-running the
  cost-based optimizer's warm-up).

Both are thread-safe and count hits/misses into the telemetry registry
(``serve.cache_hit`` / ``serve.cache_miss``).
"""

import hashlib
import json
import threading
from collections import OrderedDict

from repro.pregelix.api import PlanChoice
from repro.telemetry import Telemetry

#: Result-document fields covered by :func:`result_digest` — exactly the
#: deterministic payload the differential harness proves bit-identical
#: per (budget, group-by, connector) class. Timings, run ids, and
#: recovery counts legitimately differ between an uninterrupted run and
#: a crash-resumed one, so they stay out of the digest.
DIGEST_FIELDS = (
    "algorithm",
    "supersteps",
    "num_vertices",
    "num_edges",
    "aggregate",
    "results",
)


def result_digest(document):
    """sha256 over the deterministic fields of a result document.

    Two runs of the same request in the same plan class — including an
    uninterrupted run versus one resumed from a checkpoint after a
    service crash — must produce the same digest; per-run timings and
    recovery counts are excluded. ``results`` lines are sorted so the
    digest is also independent of partition dump order.
    """
    projection = {}
    for name in DIGEST_FIELDS:
        value = document.get(name)
        if name == "results" and value is not None:
            value = sorted(value)
        projection[name] = value
    encoded = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class LRUCache:
    """A small thread-safe LRU with hit/miss accounting.

    :param capacity: max entries; inserting past it evicts the least
        recently used entry.
    :param telemetry: the service's session (a private disabled one when
        none is given); hits and misses are counted as
        ``serve.cache_hit`` / ``serve.cache_miss``.
    """

    def __init__(self, capacity=64, telemetry=None):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self.telemetry = telemetry or Telemetry(enabled=False)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hit")
                return self._entries[key]
            self.misses += 1
            self._count("miss")
            return None

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, predicate=None):
        """Drop entries matching ``predicate`` (all when ``None``)."""
        with self._lock:
            if predicate is None:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            doomed = [key for key in list(self._entries) if predicate(key)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def _count(self, kind):
        self.telemetry.registry.counter("serve.cache_" + kind).inc()

    def stats(self):
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __len__(self):
        with self._lock:
            return len(self._entries)


class ResultCache(LRUCache):
    """LRU of result documents for repeated identical queries."""

    @staticmethod
    def make_key(dataset_digest, algorithm, params_key, klass):
        return (dataset_digest, algorithm, params_key, klass)


class PlanCache:
    """Last proven physical plan per (dataset digest, algorithm)."""

    def __init__(self):
        self._plans = {}
        self._lock = threading.Lock()

    def remember(self, dataset_digest, algorithm, job):
        with self._lock:
            self._plans[(dataset_digest, algorithm)] = PlanChoice.of(job)

    def lookup(self, dataset_digest, algorithm):
        """The remembered :class:`~repro.pregelix.api.PlanChoice`, or ``None``."""
        with self._lock:
            return self._plans.get((dataset_digest, algorithm))

    def apply(self, dataset_digest, algorithm, job):
        """Install the remembered plan on ``job``; returns whether one hit."""
        plan = self.lookup(dataset_digest, algorithm)
        if plan is None:
            return False
        plan.apply(job)
        return True

    def __len__(self):
        with self._lock:
            return len(self._plans)

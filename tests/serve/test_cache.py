"""Result/plan caches: LRU behavior, keys, bit-identity plan classes."""

import pytest

from repro.algorithms import connected_components
from repro.pregelix import (
    ConnectorPolicy,
    GroupByStrategy,
    JoinStrategy,
    VertexStorage,
)
from repro.pregelix.api import PlanChoice
from repro.serve.cache import LRUCache, PlanCache, ResultCache
from repro.telemetry import Telemetry


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_invalidate_predicate_and_all(self):
        cache = LRUCache(capacity=8)
        for key in range(4):
            cache.put(key, key)
        assert cache.invalidate(lambda key: key % 2 == 0) == 2
        assert len(cache) == 2
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_telemetry_counters(self):
        telemetry = Telemetry()
        cache = LRUCache(capacity=2, telemetry=telemetry)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert telemetry.registry.counter("serve.cache_hit").value == 1
        assert telemetry.registry.counter("serve.cache_miss").value == 1

    def test_stats(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["capacity"] == 4
        assert stats["hits"] == 1


class TestPlanClass:
    def test_join_and_storage_do_not_split_the_class(self):
        # Results are bit-identical across join strategy and storage
        # (the differential harness's invariant), so those axes must not
        # fragment the result cache.
        a = connected_components.build_job()
        b = connected_components.build_job()
        b.join_strategy = JoinStrategy.LEFT_OUTER
        b.vertex_storage = VertexStorage.LSM_BTREE
        assert PlanChoice.of(a).identity_class == PlanChoice.of(b).identity_class

    def test_groupby_and_connector_split_the_class(self):
        a = connected_components.build_job()
        b = connected_components.build_job()
        b.groupby_strategy = GroupByStrategy.HASHSORT
        assert PlanChoice.of(a).identity_class != PlanChoice.of(b).identity_class
        c = connected_components.build_job()
        c.connector_policy = ConnectorPolicy.MERGED
        assert PlanChoice.of(a).identity_class != PlanChoice.of(c).identity_class


class TestResultCacheKey:
    def test_key_components(self):
        key = ResultCache.make_key("digest", "cc", "{}", "sort/unmerged")
        assert key == ("digest", "cc", "{}", "sort/unmerged")


class TestPlanCache:
    def test_remember_and_apply(self):
        cache = PlanCache()
        proven = connected_components.build_job()
        proven.join_strategy = JoinStrategy.LEFT_OUTER
        proven.groupby_strategy = GroupByStrategy.HASHSORT
        cache.remember("digest", "cc", proven)
        assert len(cache) == 1

        fresh = connected_components.build_job()
        assert cache.apply("digest", "cc", fresh) is True
        assert fresh.join_strategy is JoinStrategy.LEFT_OUTER
        assert fresh.groupby_strategy is GroupByStrategy.HASHSORT

    def test_apply_misses_cleanly(self):
        fresh = connected_components.build_job()
        before = fresh.join_strategy
        assert PlanCache().apply("digest", "cc", fresh) is False
        assert fresh.join_strategy is before

    def test_lookup_is_keyed_by_digest_and_algorithm(self):
        cache = PlanCache()
        cache.remember("d1", "cc", connected_components.build_job())
        assert cache.lookup("d1", "cc") is not None
        assert cache.lookup("d2", "cc") is None
        assert cache.lookup("d1", "sssp") is None

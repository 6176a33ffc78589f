"""Tests for the connector library."""

import pytest

from repro.common import serde
from repro.hyracks.engine import JobContext
from repro.hyracks.connectors import (
    MToNPartitioningConnector,
    MToNPartitioningMergingConnector,
    MToOneAggregatorConnector,
    OneToOneConnector,
)


@pytest.fixture
def ctx():
    return JobContext("test")


PAIR = serde.PairSerde(serde.INT64, serde.INT64)


class TestOneToOne:
    def test_identity_routing(self, ctx):
        outputs = [[(1,)], [(2,)], [(3,)]]
        routed = OneToOneConnector().route(outputs, 3, ctx)
        assert routed == outputs

    def test_arity_mismatch_raises(self, ctx):
        with pytest.raises(ValueError):
            OneToOneConnector().route([[(1,)]], 2, ctx)


class TestMToNPartitioning:
    def test_routes_by_key(self, ctx):
        connector = MToNPartitioningConnector(key_fn=lambda t: t[0])
        outputs = [[(0, "a"), (1, "b")], [(2, "c"), (1, "d")]]
        routed = connector.route(outputs, 2, ctx)
        assert sorted(routed[0]) == [(0, "a"), (2, "c")]
        assert sorted(routed[1]) == [(1, "b"), (1, "d")]

    def test_same_key_same_partition(self, ctx):
        connector = MToNPartitioningConnector(key_fn=lambda t: t[0])
        outputs = [[(k, i) for i, k in enumerate([5, 9, 5, 9, 5])]]
        routed = connector.route(outputs, 4, ctx)
        for batch in routed:
            assert len({key for key, _ in batch}) <= 2

    def test_custom_partition_fn(self, ctx):
        connector = MToNPartitioningConnector(
            key_fn=lambda t: t[0], partition_fn=lambda key, n: 0
        )
        routed = connector.route([[(7, "x")], [(8, "y")]], 3, ctx)
        assert len(routed[0]) == 2
        assert routed[1] == [] and routed[2] == []

    def test_network_accounting_excludes_local(self, ctx):
        connector = MToNPartitioningConnector(
            key_fn=lambda t: t[0],
            tuple_serde=PAIR,
            partition_fn=lambda key, n: key % n,
        )
        # Sender 0 emits a tuple for partition 0 (local) and one for 1.
        connector.route([[(0, 1), (1, 2)]], 2, ctx)
        assert ctx.io.network_messages == 1
        assert ctx.io.network_bytes == PAIR.sizeof((1, 2))


class TestMergingConnector:
    def test_receiver_side_merge_preserves_order(self, ctx):
        connector = MToNPartitioningMergingConnector(
            key_fn=lambda t: t[0],
            sort_key_fn=lambda t: t[0],
            partition_fn=lambda key, n: 0,
        )
        outputs = [[(1, "a"), (4, "b")], [(2, "c"), (3, "d")]]
        routed = connector.route(outputs, 1, ctx)
        assert [key for key, _ in routed[0]] == [1, 2, 3, 4]

    def test_unsorted_sender_rejected(self, ctx):
        connector = MToNPartitioningMergingConnector(key_fn=lambda t: t[0])
        with pytest.raises(ValueError):
            connector.route([[(2, "a"), (1, "b")]], 1, ctx)

    def test_sender_side_materialization_accounted(self, ctx):
        connector = MToNPartitioningMergingConnector(
            key_fn=lambda t: t[0], tuple_serde=PAIR, partition_fn=lambda k, n: 0
        )
        connector.route([[(1, 1)], [(2, 2)]], 1, ctx)
        # Materializing policy writes then re-reads the stream locally.
        assert ctx.io.disk_write_bytes > 0
        assert ctx.io.disk_read_bytes == ctx.io.disk_write_bytes


class TestAggregatorConnector:
    def test_funnels_to_partition_zero(self, ctx):
        connector = MToOneAggregatorConnector()
        routed = connector.route([[(1,)], [(2,)], [(3,)]], 3, ctx)
        assert sorted(routed[0]) == [(1,), (2,), (3,)]
        assert routed[1] == [] and routed[2] == []

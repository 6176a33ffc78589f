"""Tests for sort, group-by, join, aggregate, and index operators."""

import random

import pytest

from repro.common import serde
from repro.common.errors import StorageError
from repro.common.serde import encode_key
from repro.hyracks.engine import HyracksCluster, JobContext, TaskContext
from repro.hyracks.operators.aggregate import (
    GlobalAggregateOperator,
    LocalAggregateOperator,
    SumAggregator,
)
from repro.hyracks.operators.groupby import (
    HashSortGroupByOperator,
    ListAggregator,
    PreclusteredGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.operators.index_ops import (
    IndexBulkLoadOperator,
    IndexScanOperator,
    get_index,
    register_index,
)
from repro.hyracks.operators.join import (
    IndexFullOuterJoinOperator,
    IndexLeftOuterJoinOperator,
    MergeChooseOperator,
    _full_outer_join,
    _outer_merge,
)
from repro.hyracks.operators.sort import ExternalSortOperator
from repro.hyracks.storage.btree import BTree

PAIR = serde.PairSerde(serde.INT64, serde.FLOAT64)


@pytest.fixture
def cluster(tmp_path):
    with HyracksCluster(num_nodes=1, root_dir=str(tmp_path / "cluster")) as c:
        yield c


@pytest.fixture
def ctx(cluster):
    node = cluster.nodes["node0"]
    return TaskContext(node, JobContext("test"), 0, 1)


def sort_key(item):
    return encode_key(item[0])


class TestExternalSort:
    def test_in_memory_sort(self, ctx):
        op = ExternalSortOperator(sort_key, PAIR)
        data = [(3, 0.3), (1, 0.1), (2, 0.2)]
        out = op.run(ctx, 0, [data])[op.OUT]
        assert out == [(1, 0.1), (2, 0.2), (3, 0.3)]

    def test_spilling_sort_matches_sorted(self, ctx):
        op = ExternalSortOperator(sort_key, PAIR, memory_limit_bytes=256)
        data = [(i, float(i)) for i in range(500)]
        random.Random(11).shuffle(data)
        out = op.run(ctx, 0, [data])[op.OUT]
        assert out == sorted(data)
        assert ctx.io.disk_write_bytes > 0  # runs actually spilled

    def test_empty_input(self, ctx):
        op = ExternalSortOperator(sort_key, PAIR)
        assert op.run(ctx, 0, [[]])[op.OUT] == []

    def test_duplicate_keys_preserved(self, ctx):
        op = ExternalSortOperator(sort_key, PAIR, memory_limit_bytes=128)
        data = [(1, 0.5)] * 20 + [(0, 0.1)] * 20
        out = op.run(ctx, 0, [list(data)])[op.OUT]
        assert len(out) == 40
        assert out[0] == (0, 0.1)
        assert out[-1] == (1, 0.5)


def list_aggregator():
    return ListAggregator(
        value_fn=lambda t: t[1],
        output_fn=lambda key, values: (key, sorted(values)),
        value_serde=serde.FLOAT64,
    )


GROUPBY_CASES = [
    ("sort", lambda limit: SortGroupByOperator(sort_key, list_aggregator(), PAIR, memory_limit_bytes=limit)),
    ("hashsort", lambda limit: HashSortGroupByOperator(sort_key, list_aggregator(), memory_limit_bytes=limit)),
]


class TestGroupBy:
    @pytest.mark.parametrize("name,factory", GROUPBY_CASES)
    def test_in_memory_grouping(self, ctx, name, factory):
        op = factory(1 << 20)
        data = [(1, 0.1), (2, 0.2), (1, 0.3)]
        out = op.run(ctx, 0, [data])[op.OUT]
        assert out == [(encode_key(1), [0.1, 0.3]), (encode_key(2), [0.2])]

    @pytest.mark.parametrize("name,factory", GROUPBY_CASES)
    def test_spilling_grouping(self, ctx, name, factory):
        op = factory(256)
        data = [(i % 17, float(i)) for i in range(600)]
        random.Random(5).shuffle(data)
        out = op.run(ctx, 0, [data])[op.OUT]
        assert len(out) == 17
        assert [k for k, _ in out] == sorted(k for k, _ in out)
        total = sum(len(values) for _, values in out)
        assert total == 600

    @pytest.mark.parametrize("name,factory", GROUPBY_CASES)
    def test_output_sorted_by_key(self, ctx, name, factory):
        op = factory(1 << 20)
        data = [(9, 0.9), (1, 0.1), (5, 0.5)]
        out = op.run(ctx, 0, [data])[op.OUT]
        assert [k for k, _ in out] == [encode_key(1), encode_key(5), encode_key(9)]

    def test_preclustered(self, ctx):
        op = PreclusteredGroupByOperator(sort_key, list_aggregator())
        data = [(1, 0.1), (1, 0.2), (3, 0.3)]
        out = op.run(ctx, 0, [data])[op.OUT]
        assert out == [(encode_key(1), [0.1, 0.2]), (encode_key(3), [0.3])]

    def test_preclustered_rejects_unclustered(self, ctx):
        op = PreclusteredGroupByOperator(sort_key, list_aggregator())
        with pytest.raises(StorageError):
            op.run(ctx, 0, [[(1, 0.1), (2, 0.2), (1, 0.3)]])

    def test_spill_without_serde_raises(self, ctx):
        aggregator = ListAggregator(lambda t: t[1], lambda k, v: (k, v), value_serde=None)
        op = HashSortGroupByOperator(sort_key, aggregator, memory_limit_bytes=1)
        with pytest.raises(StorageError):
            op.run(ctx, 0, [[(1, 0.1), (2, 0.2)]])


class TestScalarAggregators:
    def test_sum(self):
        assert SumAggregator().step(5, 3) == 8

    def test_two_stage_pipeline(self, ctx):
        local = LocalAggregateOperator(SumAggregator())
        partials = [
            local.run(ctx, p, [[1, 2, 3]])[local.OUT][0] for p in range(3)
        ]
        global_op = GlobalAggregateOperator(SumAggregator())
        out = global_op.run(ctx, 0, [partials])[global_op.OUT]
        assert out == [18]

    def test_global_with_no_input(self, ctx):
        global_op = GlobalAggregateOperator(SumAggregator())
        assert global_op.run(ctx, 1, [[]])[global_op.OUT] == []


def build_vertex_index(ctx, entries, name="vertex"):
    tree = BTree(ctx.buffer_cache)
    tree.bulk_load([(encode_key(vid), value) for vid, value in entries])
    register_index(ctx, name, 0, tree)
    return tree


class TestIndexOperators:
    def test_bulk_load_and_scan(self, ctx):
        load = IndexBulkLoadOperator("idx", lambda c, p: BTree(c.buffer_cache))
        pairs = [(encode_key(i), b"v%d" % i) for i in range(10)]
        load.run(ctx, 0, [pairs])
        scan = IndexScanOperator("idx")
        out = scan.run(ctx, 0, [])[scan.OUT]
        assert out == pairs

    def test_bulk_load_replaces_existing(self, ctx):
        load = IndexBulkLoadOperator("idx", lambda c, p: BTree(c.buffer_cache))
        load.run(ctx, 0, [[(encode_key(1), b"old")]])
        load.run(ctx, 0, [[(encode_key(2), b"new")]])
        assert get_index(ctx, "idx", 0).lookup(encode_key(1)) is None
        assert get_index(ctx, "idx", 0).lookup(encode_key(2)) == b"new"

    def test_missing_index_raises(self, ctx):
        scan = IndexScanOperator("ghost")
        with pytest.raises(StorageError):
            scan.run(ctx, 0, [])


class TestJoins:
    def test_full_outer_join_all_cases(self, ctx):
        build_vertex_index(ctx, [(1, b"v1"), (3, b"v3"), (4, b"v4")])
        op = IndexFullOuterJoinOperator("vertex")
        messages = [(encode_key(3), b"m3"), (encode_key(5), b"m5")]
        out = op.run(ctx, 0, [messages])[op.OUT]
        assert out == [
            (encode_key(1), None, b"v1"),       # vertex without message
            (encode_key(3), b"m3", b"v3"),      # inner match
            (encode_key(4), None, b"v4"),       # vertex without message
            (encode_key(5), b"m5", None),       # message without vertex
        ]

    def test_full_outer_join_empty_messages(self, ctx):
        build_vertex_index(ctx, [(1, b"v1")])
        op = IndexFullOuterJoinOperator("vertex")
        out = op.run(ctx, 0, [[]])[op.OUT]
        assert out == [(encode_key(1), None, b"v1")]

    @pytest.mark.parametrize("seed", range(8))
    def test_full_outer_join_is_the_merge(self, ctx, seed):
        """Random sorted sides — messages to keys the index lacks
        interleaved with keys no message reaches, either side empty —
        join as ``_outer_merge`` does; so does a message key repeated,
        which takes the merge itself."""
        rng = random.Random(seed)
        for _ in range(20):
            universe = rng.sample(range(-500, 500), rng.randrange(0, 80))
            indexed = sorted(rng.sample(universe, rng.randrange(0, len(universe) + 1)))
            addressed = sorted(rng.sample(universe, rng.randrange(0, len(universe) + 1)))
            scanned = [(encode_key(vid), b"v%d" % vid) for vid in indexed]
            messages = [
                (encode_key(vid), rng.choice([b"m%d" % vid, None])) for vid in addressed
            ]
            if messages and rng.random() < 0.3:
                at = rng.randrange(len(messages))
                messages.insert(at, (messages[at][0], b"again"))
            expected = list(_outer_merge(messages, scanned))
            assert _full_outer_join(messages, scanned) == expected
        build_vertex_index(ctx, [(vid, b"v%d" % vid) for vid in (2, 4, 6)])
        op = IndexFullOuterJoinOperator("vertex")
        repeated = [(encode_key(4), b"a"), (encode_key(4), b"b"), (encode_key(5), b"c")]
        assert op.run(ctx, 0, [repeated])[op.OUT] == [
            (encode_key(2), None, b"v2"),
            (encode_key(4), b"a", b"v4"),
            (encode_key(4), b"b", None),
            (encode_key(5), b"c", None),
            (encode_key(6), None, b"v6"),
        ]

    def test_full_outer_join_empty_index(self, ctx):
        build_vertex_index(ctx, [])
        op = IndexFullOuterJoinOperator("vertex")
        messages = [(encode_key(1), b"m1"), (encode_key(2), b"m2")]
        assert op.run(ctx, 0, [messages])[op.OUT] == [
            (encode_key(1), b"m1", None),
            (encode_key(2), b"m2", None),
        ]
        assert op.run(ctx, 0, [[]])[op.OUT] == []

    def test_left_outer_join_probes(self, ctx):
        build_vertex_index(ctx, [(1, b"v1"), (2, b"v2")])
        op = IndexLeftOuterJoinOperator("vertex")
        stream = [(encode_key(2), b"m2"), (encode_key(9), b"m9")]
        out = op.run(ctx, 0, [stream])[op.OUT]
        assert out == [
            (encode_key(2), b"m2", b"v2"),
            (encode_key(9), b"m9", None),
        ]

    def test_merge_choose_prefers_messages(self, ctx):
        op = MergeChooseOperator()
        messages = [(1, b"m1"), (3, b"m3")]
        live = [(2, None), (3, None)]
        out = op.run(ctx, 0, [messages, live])[op.OUT]
        assert out == [(1, b"m1"), (2, None), (3, b"m3")]

    def test_merge_choose_empty_sides(self, ctx):
        op = MergeChooseOperator()
        assert op.run(ctx, 0, [[], []])[op.OUT] == []
        assert op.run(ctx, 0, [[(1, b"m")], []])[op.OUT] == [(1, b"m")]
        assert op.run(ctx, 0, [[], [(1, None)]])[op.OUT] == [(1, None)]

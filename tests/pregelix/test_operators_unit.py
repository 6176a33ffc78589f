"""Unit tests for the Pregelix-specific operators in isolation."""

import os

import pytest

from repro.algorithms import pagerank
from repro.common import serde
from repro.common.serde import encode_key
from repro.hyracks.engine import HyracksCluster, JobContext, TaskContext
from repro.hyracks.operators.index_ops import find_index, get_index, register_index
from repro.hyracks.storage.btree import BTree
from repro.pregelix import PregelixJob, Vertex
from repro.pregelix.operators import (
    ComputeOperator,
    LocalGSOperator,
    MsgScanOperator,
    MsgWriteOperator,
    VertexMutationOperator,
)
from repro.pregelix.relations import RunRelations
from repro.pregelix.types import GlobalState, VertexRecord


@pytest.fixture
def unit_cluster(tmp_path):
    with HyracksCluster(num_nodes=1, root_dir=str(tmp_path / "u")) as c:
        yield c


@pytest.fixture
def ctx(unit_cluster):
    return TaskContext(unit_cluster.nodes["node0"], JobContext("unit"), 0, 1)


@pytest.fixture
def zero_memory_ctx(tmp_path):
    """A node whose memory budget refuses every ``Msg`` image: each
    partition is a run file."""
    with HyracksCluster(
        num_nodes=1, root_dir=str(tmp_path / "z"), node_memory_bytes=0,
        buffer_cache_bytes=64 << 10,
    ) as cluster:
        yield TaskContext(cluster.nodes["node0"], JobContext("unit"), 0, 1)


def make_vertex_index(ctx, relations, records):
    tree = BTree(ctx.buffer_cache)
    tree.bulk_load(
        (encode_key(record.vid), relations.encode_vertex(record))
        for record in sorted(records, key=lambda r: r.vid)
    )
    register_index(ctx, relations.vertex, 0, tree)
    return tree


def msg_relations(run_id):
    return RunRelations(pagerank.build_job(), None, run_id)


class TestMsgFileRoundtrip:
    def test_write_then_scan(self, ctx):
        relations = msg_relations("run1")
        codec = relations.job.bundle_codec()
        write = MsgWriteOperator(relations, codec)
        data = [(encode_key(1), 0.5), (encode_key(2), 1.5)]
        write.run(ctx, 0, [data])
        scan = MsgScanOperator(relations, codec)
        assert scan.run(ctx, 0, [])[scan.OUT] == data

    def test_scan_missing_file_is_empty(self, ctx):
        relations = msg_relations("ghost-run")
        scan = MsgScanOperator(relations, relations.job.bundle_codec())
        assert scan.run(ctx, 0, [])[scan.OUT] == []

    def test_write_replaces_previous_superstep_image(self, ctx):
        relations = msg_relations("run2")
        codec = relations.job.bundle_codec()
        MsgWriteOperator(relations, codec).run(ctx, 0, [[(encode_key(1), 1.0)]])
        first = find_index(ctx, relations.msg, 0).image
        assert ctx.budget.used == len(first)
        MsgWriteOperator(relations, codec).run(
            ctx, 0, [[(encode_key(2), 2.0), (encode_key(3), 3.0)]]
        )
        assert ctx.budget.used == len(find_index(ctx, relations.msg, 0).image)
        assert ctx.budget.used > len(first)
        assert os.listdir(ctx.files.root) == []

    def test_write_replaces_previous_superstep_file(self, zero_memory_ctx):
        ctx = zero_memory_ctx
        relations = msg_relations("run2")
        codec = relations.job.bundle_codec()
        MsgWriteOperator(relations, codec).run(ctx, 0, [[(encode_key(1), 1.0)]])
        first_path = find_index(ctx, relations.msg, 0).path
        MsgWriteOperator(relations, codec).run(ctx, 0, [[(encode_key(2), 2.0)]])
        second_path = find_index(ctx, relations.msg, 0).path
        assert first_path != second_path
        assert not os.path.exists(first_path)
        scan = MsgScanOperator(relations, codec)
        assert scan.run(ctx, 0, [])[scan.OUT] == [(encode_key(2), 2.0)]

    def test_counters_track_combined_messages(self, ctx):
        relations = msg_relations("run3")
        MsgWriteOperator(relations, relations.job.bundle_codec()).run(
            ctx, 0, [[(encode_key(i), 1.0) for i in range(5)]]
        )
        assert ctx.job.counters.get("combined_messages") == 5


class CountingVertex(Vertex):
    def compute(self, messages):
        self.value = float(sum(messages))
        self.vote_to_halt()


class TestComputeOperator:
    def test_filter_prunes_halted_without_messages(self, ctx):
        relations = RunRelations(PregelixJob("unit", CountingVertex), None, "unit")
        make_vertex_index(
            ctx,
            relations,
            [
                VertexRecord(vid=1, halt=True, value=0.0),
                VertexRecord(vid=2, halt=False, value=0.0),
            ],
        )
        compute = ComputeOperator(relations, GlobalState(), emit_live=False)
        joined = [
            (encode_key(1), None, b"ignored"),  # halted + no message
            (encode_key(2), None, b"x"),
        ]
        # Provide real stored bytes for the active vertex.
        index = get_index(ctx, relations.vertex, 0)
        joined = [
            (encode_key(1), None, index.lookup(encode_key(1))),
            (encode_key(2), None, index.lookup(encode_key(2))),
        ]
        out = compute.run(ctx, 0, [joined])
        assert ctx.job.counters.get("vertices_processed") == 1
        assert out[ComputeOperator.HALT] == [True]

    def test_a_partition_halts_only_when_nothing_stays_active_or_sends(self, ctx):
        class HaltButSendOnce(Vertex):
            def compute(self, messages):
                self.vote_to_halt()
                if self.vertex_id == 2:
                    self.send_message(1, 1.0)

        relations = RunRelations(PregelixJob("halts", HaltButSendOnce), None, "halts")
        index = make_vertex_index(ctx, relations, [VertexRecord(vid=v) for v in (1, 2, 3)])
        joined = [(encode_key(v), None, index.lookup(encode_key(v))) for v in (1, 2, 3)]
        compute = ComputeOperator(relations, GlobalState(), emit_live=False)
        out = compute.run(ctx, 0, [joined])
        assert out[ComputeOperator.MSG] == [(1, 1.0)]
        assert out[ComputeOperator.HALT] == [False]
        # Every row halted now, and no message: nothing is processed.
        joined = [(encode_key(v), None, index.lookup(encode_key(v))) for v in (1, 2, 3)]
        out = compute.run(ctx, 0, [joined])
        assert out[ComputeOperator.MSG] == []
        assert out[ComputeOperator.HALT] == [True]
        assert compute.run(ctx, 0, [[]])[ComputeOperator.HALT] == [True]

        class ActiveButSilent(Vertex):
            def compute(self, messages):
                if self.vertex_id != 3:
                    self.vote_to_halt()

        relations = RunRelations(PregelixJob("silent", ActiveButSilent), None, "silent")
        index = make_vertex_index(ctx, relations, [VertexRecord(vid=v) for v in (1, 3)])
        joined = [(encode_key(v), None, index.lookup(encode_key(v))) for v in (1, 3)]
        out = ComputeOperator(relations, GlobalState(), emit_live=False).run(ctx, 0, [joined])
        assert out[ComputeOperator.MSG] == []
        assert out[ComputeOperator.HALT] == [False]

    def test_compute_resets_per_vertex_what_bind_vertex_sets_for_a_row(self, ctx):
        # Compute binds the opened row once per partition and then sets
        # per vertex only the fields ``Vertex._bind_vertex`` sets apart
        # from the row: a field added to one must be added to the other.
        assigned = []

        class Recording(Vertex):
            computing = False

            def __setattr__(self, name, value):
                if not type(self).computing:
                    assigned.append(name)
                object.__setattr__(self, name, value)

            def compute(self, messages):
                assigned.append(None)  # a vertex's bind ends here
                type(self).computing = True
                self.value = float(self.vertex_id)
                self.vote_to_halt()
                type(self).computing = False

        relations = RunRelations(PregelixJob("bind", Recording), None, "bind")
        row = relations.opened_row()
        probe = Recording()
        probe._bind_vertex(None, None, row)
        first = dict(vars(probe))
        del assigned[:]
        probe._bind_vertex(7, 1.0, row)
        row_fields = {"_read_edges", "_row"}
        # What the row alone decides is the same for every vertex bound to it.
        assert all(vars(probe)[name] == first[name] for name in row_fields)
        per_vertex = set(assigned) - row_fields
        assert per_vertex and row_fields <= set(assigned)

        index = make_vertex_index(ctx, relations, [VertexRecord(vid=v) for v in (1, 2, 3)])
        joined = [(encode_key(v), (1.0,), index.lookup(encode_key(v))) for v in (1, 2, 3)]
        del assigned[:]
        ComputeOperator(relations, GlobalState(), emit_live=False).run(ctx, 0, [joined])
        binds = " ".join(name or "|" for name in assigned).split("|")
        assert len(binds) == 4  # three computes
        for between in binds[1:-1]:
            assert set(between.split()) == per_vertex

    def test_the_program_keeps_none_of_the_lists_its_ports_carry(self, ctx):
        # A program in a reference cycle (a multi-query vertex and its
        # lanes) outlives the run until the cyclic collector runs; the
        # partition's outputs must not live that long with it.
        programs = []

        class Cyclic(Vertex):
            def compute(self, messages):
                self.me = self
                programs.append(self)
                self.send_message(1, 1.0)
                self.aggregate(1)
                self.remove_vertex(self.vertex_id)

        relations = RunRelations(PregelixJob("cyclic", Cyclic), None, "cyclic")
        index = make_vertex_index(ctx, relations, [VertexRecord(vid=v) for v in (1, 2)])
        joined = [(encode_key(v), None, index.lookup(encode_key(v))) for v in (1, 2)]
        out = ComputeOperator(relations, GlobalState(), emit_live=True).run(ctx, 0, [joined])
        assert len(out[ComputeOperator.MSG]) == 2 and len(out[ComputeOperator.MUT]) == 2
        held = list(vars(programs[0]).values())
        assert not any(field is port for port in out.values() for field in held)

    def test_live_port_only_when_enabled(self, ctx):
        class StayAlive(Vertex):
            def compute(self, messages):
                self.value = 0.0  # never votes to halt

        relations = RunRelations(PregelixJob("unit2", StayAlive), None, "unit2")
        index = make_vertex_index(ctx, relations, [VertexRecord(vid=3)])
        joined = [(encode_key(3), None, index.lookup(encode_key(3)))]
        live_on = ComputeOperator(relations, GlobalState(), emit_live=True)
        out = live_on.run(ctx, 0, [joined])
        assert out[ComputeOperator.LIVE] == [(encode_key(3), b"")]
        live_off = ComputeOperator(relations, GlobalState(), emit_live=False)
        out = live_off.run(ctx, 0, [joined])
        assert out[ComputeOperator.LIVE] == []


def shape(tree):
    """``(height, leaves)`` of a B-tree, walked down its left edge and
    along the leaf chain."""
    from repro.hyracks.storage.pages import PageId, PageKind

    def page(page_no):
        pinned = tree.cache.pin(PageId(tree.file_id, page_no))
        tree.cache.unpin(pinned)
        return pinned

    height, at = 1, page(tree.root_page_no)
    while at.kind != PageKind.LEAF:
        height, at = height + 1, page(int.from_bytes(at.values[0], "big"))
    leaves = 1
    while at.next_page_no != -1:
        leaves, at = leaves + 1, page(at.next_page_no)
    return height, leaves


@pytest.mark.parametrize("plan", ["every vertex", "every third vertex"])
def test_compute_touches_each_leaf_once(ctx, plan):
    """One clone's pass over its ``Vertex`` partition costs one descent
    per leaf it lands on, not two per vertex: asserted at two sizes, the
    pins of the larger are nowhere near eight times those of the smaller
    times the vertices per leaf."""
    relations = RunRelations(PregelixJob("touch", CountingVertex), None, "touch")
    pins = {}
    for count in (500, 4000):
        index = make_vertex_index(
            ctx, relations,
            [VertexRecord(vid=vid, value=0.0, edges=[(vid + 1, 1.0)])
             for vid in range(count)],
        )
        height, leaves = shape(index)
        assert leaves >= 5 and count >= 20 * leaves
        step = 1 if plan == "every vertex" else 3
        joined = [(key, [1.0], data) for key, data in list(index.scan())[::step]]
        stats = ctx.buffer_cache.stats
        before = stats.hits + stats.misses
        ComputeOperator(relations, GlobalState(), emit_live=False).run(ctx, 0, [joined])
        pins[count] = stats.hits + stats.misses - before
        assert pins[count] <= height * leaves
        assert ctx.job.counters.get("vertices_processed") >= len(joined)
        assert not any(page.pin_count for page in ctx.buffer_cache._pages.values())
        assert [decoded.value for decoded in map(relations.vertex_record, index.scan())] == [
            1.0 if vid % step == 0 else 0.0 for vid in range(count)
        ]


class TestMutationOperator:
    def test_insert_and_delete(self, ctx):
        relations = RunRelations(PregelixJob("unit3", CountingVertex), None, "unit3")
        index = make_vertex_index(
            ctx, relations, [VertexRecord(vid=1), VertexRecord(vid=2)]
        )
        op = VertexMutationOperator(relations, maintain_vid=False)
        out = op.run(
            ctx,
            0,
            [[("insert", 9, 5.0, []), ("delete", 1, None, None)]],
        )
        assert index.lookup(encode_key(9)) is not None
        assert index.lookup(encode_key(1)) is None
        (stats,) = out[VertexMutationOperator.STATS]
        assert stats == (0, 0, 1)  # +1 insert, -1 delete, 1 activation

    def test_empty_input_emits_zero_stats(self, ctx):
        relations = RunRelations(PregelixJob("unit4", CountingVertex), None, "none")
        op = VertexMutationOperator(relations, maintain_vid=False)
        assert op.run(ctx, 0, [[]])[VertexMutationOperator.STATS] == [(0, 0, 0)]


class TestLocalGS:
    def test_halt_and_aggregate_partials(self, ctx):
        from repro.pregelix.api import GlobalAggregator

        class Sum(GlobalAggregator):
            def init(self):
                return 0

            def accumulate(self, state, c):
                return state + c

            def merge(self, a, b):
                return a + b

            def value_serde(self):
                return serde.INT64

        job = PregelixJob("unit5", CountingVertex, aggregator=Sum())
        op = LocalGSOperator(job)
        out = op.run(ctx, 0, [[True, False], [(None, 2), (None, 3)]])
        ((halt, state),) = out[op.OUT]
        assert halt is False
        assert state == {None: 5}

    def test_empty_partition_is_halted(self, ctx):
        job = PregelixJob("unit6", CountingVertex)
        op = LocalGSOperator(job)
        ((halt, state),) = op.run(ctx, 0, [[], []])[op.OUT]
        assert halt is True
        assert state is None

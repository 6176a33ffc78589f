"""A budget of Python-level calls for the message path the plan builds.

The path from ``compute`` to ``MsgWrite`` handles a batch per call. A
built-in scalar combiner (sum, min, max) folds a whole batch per call —
``fold_sorted`` on the sender, ``merge_rounds`` on the receiver and in
the merge of spilled runs, ``hash_fold``/``hash_merge`` in the HashSort
table — so the group-bys pay **nothing** per message, per partial or per
group: a constant per batch, and when the sender spills, a constant per
run plus a constant per chunk a run is replayed or merged in. So do the
serving tier's multi-query lanes, whose fixed-width lane tuples fold the
inner combiner's fragments inline. The default list combiner folds
through the per-message defaults, which is the contract: the calls its
own ``accumulate``/``merge`` make per message plus a constant per group,
as when every built-in combiner paid that. A partitioning connector pays
a constant per *batch*. A batch of point queries run as lanes of one
dataflow makes fewer Python calls than the queries run alone. The operators are taken from the plan
``PlanGenerator`` generates, so a per-tuple ``encode_key``/``decode_key``
or a sort-key lambda wired back into ``_message_groupby`` fails here.

Where the path starts, ``Compute`` pays nothing per edge of a program
that only counts its edges and sends to all of them (PageRank): the
count and the targets come off the stored edge image. Per vertex it pays
the program's own frames and a few of its row's, not the framework's:
rows are decoded and encoded a write-back chunk per call. The vertex
relation's other passes pay nothing per row either: the left-outer
join's probes on a held leaf, and a bulk load's inline rows (a constant
per leaf it fills).

Counted under ``sys.setprofile``: ``"call"`` events are Python frames
entered (a generator resumed counts; C functions are ``"c_call"``).
"""

import gc
import operator
import os
import random
import sys
import types

import pytest

from repro.algorithms import pagerank, sssp
from repro.common import serde
from repro.common.serde import encode_key
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster, JobContext, TaskContext
from repro.hyracks.operators.groupby import (
    PreclusteredGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.operators.index_ops import register_index
from repro.hyracks.operators.join import IndexLeftOuterJoinOperator
from repro.hyracks.storage import run_file
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.pages import PageId, PageKind
from repro.pregelix import ConnectorPolicy, GroupByStrategy, PregelixDriver
from repro.pregelix.api import (
    DefaultListCombiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.pregelix.multiquery import (
    MultiQueryCombiner,
    MultiQueryProgram,
    lane_message_serde,
)
from repro.pregelix.operators import WRITE_BACK_CHUNK, ComputeOperator
from repro.pregelix.physical import PartitionMap, PlanGenerator
from repro.pregelix.relations import RunRelations
from repro.pregelix.types import GlobalState, VertexRecord

DESTINATIONS = 1250
#: Python-level calls a closed group may cost a combiner that folds
#: through the per-message defaults, whatever the group's size.
PER_GROUP = 8
#: ... and a batch, whatever its size (the operator's own frames).
PER_BATCH = 12
#: ... and a batch under a built-in combiner: the operator's frames, the
#: batch fold's and one ``INT64.dumps_many`` naming the groups.
PER_FOLDED_BATCH = 32
#: ... and a chunk of spilled records, replayed or merged.
PER_CHUNK = 16
#: ... and a spilled run under a built-in combiner: framed, written,
#: opened, replayed and deleted.
PER_RUN = 64
#: Frames that size one variable-width tuple for a sort's byte budget.
SIZED = 4


class Combined:
    """One combiner as a plan gets it: a factory, its message serde, a
    payload per message, and the Python calls its own methods make per
    message folded (or partial merged) — none for a built-in one."""

    def __init__(self, make, msg_serde, payload, per_message):
        self.make, self.msg_serde = make, msg_serde
        self.payload, self.per_message = payload, per_message

    @property
    def built_in(self):
        return self.per_message == 0

    def partial(self, rng):
        """A state as the sender ships it: one message folded."""
        combiner = self.make()
        return combiner.accumulate(combiner.init(), self.payload(rng))

    def per_group(self):
        return 0 if self.built_in else PER_GROUP

    def per_batch(self):
        return PER_FOLDED_BATCH if self.built_in else PER_BATCH


COMBINERS = {
    "sum": Combined(SumCombiner, serde.FLOAT64, lambda rng: rng.random(), 0),
    "min": Combined(MinCombiner, serde.FLOAT64, lambda rng: rng.random(), 0),
    "max": Combined(MaxCombiner, serde.FLOAT64, lambda rng: rng.random(), 0),
    # ``accumulate`` (``merge``).
    "list": Combined(DefaultListCombiner, serde.FLOAT64, lambda rng: rng.random(), 1),
    # The serving tier's sssp lanes: ``MinCombiner`` inline, per lane.
    "multiquery": Combined(
        lambda: MultiQueryCombiner(MinCombiner(), serde.FLOAT64, 4),
        lane_message_serde(serde.FLOAT64),
        lambda rng: (rng.randrange(4), rng.random()),
        0,
    ),
}


def sized(tuple_serde):
    """Frames a sort pays per tuple to size it: none at a fixed width."""
    return 0 if tuple_serde.fixed_size else SIZED


def python_calls(function, events=("call",)):
    calls = [0]

    def profiler(frame, event, arg):
        if event in events:
            calls[0] += 1

    # What a collection would finalize (a generator an earlier test left
    # open) is not the path's: collect first, and not during the count.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = function()
    finally:
        sys.setprofile(None)
        gc.enable()
    # The profiler sees ``function`` itself and the closing setprofile.
    return calls[0] - 2, result


def message_path(dfs, combined=COMBINERS["sum"], **plan):
    """``(sender group-by, connector, receiver group-by)`` of a superstep plan."""
    job = pagerank.build_job(**plan)
    job.combiner, job.msg_serde = combined.make(), combined.msg_serde
    partition_map = PartitionMap(["node0", "node1", "node2", "node3"])
    spec = PlanGenerator(job, dfs, "budget-run", partition_map).superstep_plan(
        GlobalState()
    )
    (sender,) = [op for op in spec.operators if op.name.startswith("Sender")]
    (edge,) = [edge for edge in spec.edges if edge.producer is sender]
    return sender, edge.connector, edge.consumer


def raw_messages(count, combined=COMBINERS["sum"]):
    rng = random.Random(count)
    return [
        (rng.randrange(DESTINATIONS), combined.payload(rng)) for _ in range(count)
    ]


# HashSort sizes a growing state (a list) before and after every step:
# only the fixed-width states of the built-ins and the lanes are budgeted.
HASHSORTED = sorted(name for name in COMBINERS if COMBINERS[name].built_in)
SENDERS = [(name, GroupByStrategy.SORT) for name in sorted(COMBINERS)] + [
    (name, GroupByStrategy.HASHSORT) for name in HASHSORTED
]


@pytest.mark.parametrize("name,strategy", SENDERS)
def test_the_sender_pays_its_combiner_per_message(dfs, name, strategy):
    combined = COMBINERS[name]
    sender, _, _ = message_path(dfs, combined, groupby_strategy=strategy)
    per_message = combined.per_message
    if strategy == GroupByStrategy.SORT:
        per_message += sized(sender.tuple_serde)
    ctx = types.SimpleNamespace(files=None)
    measured = {}
    for count in (10000, 20000):
        messages = raw_messages(count, combined)
        calls, groups = python_calls(
            lambda: list(sender.grouped_stream(ctx, messages))
        )
        assert len(groups) == DESTINATIONS
        assert calls <= (
            per_message * count + combined.per_group() * DESTINATIONS
            + combined.per_batch()
        )
        measured[count] = calls
    # Twice the messages to the same destinations.
    assert measured[20000] - measured[10000] <= per_message * 10000
    if combined.built_in:
        assert measured[20000] == measured[10000]


@pytest.mark.parametrize("name", ["sum", "min", "max", "list", "multiquery"])
@pytest.mark.parametrize("count", [10000, 20000])
def test_a_spilling_sender_pays_nothing_per_spilled_record(dfs, tmp_path, name, count):
    combined = COMBINERS[name]
    memory = 64 << 10
    sender, _, _ = message_path(
        dfs, combined, groupby_strategy=GroupByStrategy.SORT,
        groupby_memory_bytes=memory,
    )
    files = FileManager(str(tmp_path / "node"))
    messages = raw_messages(count, combined)
    per_batch = -(-memory // sender.tuple_serde.fixed_size)
    batches = [messages[at:at + per_batch] for at in range(0, count, per_batch)]
    runs = count // per_batch
    assert runs >= 3
    # Groups closed batch by batch: every group once, plus the duplicates.
    closed = sum(len({vid for vid, _ in batch}) for batch in batches)
    chunks = runs + 1 + closed // run_file._MERGE_CHUNK
    calls, groups = python_calls(
        lambda: list(sender.grouped_stream(types.SimpleNamespace(files=files), messages))
    )
    assert len(groups) == DESTINATIONS
    if combined.built_in:
        assert calls <= PER_RUN * runs + PER_CHUNK * chunks + PER_FOLDED_BATCH
    else:
        assert calls <= count + PER_GROUP * closed + PER_CHUNK * chunks + PER_BATCH
    assert files.io.disk_read_bytes == files.io.disk_write_bytes > 0
    assert os.listdir(files.root) == []


@pytest.mark.parametrize("policy", list(ConnectorPolicy))
def test_partitioning_connectors_pay_a_constant_per_batch(dfs, policy):
    _, connector, _ = message_path(dfs, connector_policy=policy)
    measured = []
    for count in (1250, 10000):
        batch = [(encode_key(vid), 0.5) for vid in range(-count // 2, count // 2)]
        calls, per_dest = python_calls(lambda: connector.split(0, batch, 4))
        assert sorted(item for tuples in per_dest for item in tuples) == batch
        assert calls <= PER_BATCH
        measured.append(calls)
    assert measured[0] == measured[1]


RECEIVER_PLANS = {
    "sort": {"groupby_strategy": GroupByStrategy.SORT},
    "hashsort": {"groupby_strategy": GroupByStrategy.HASHSORT},
    "preclustered": {"connector_policy": ConnectorPolicy.MERGED},
}
RECEIVERS = [
    (name, plan) for plan in ("sort", "preclustered") for name in sorted(COMBINERS)
] + [(name, "hashsort") for name in HASHSORTED]


@pytest.mark.parametrize("name,plan", RECEIVERS)
def test_the_receiver_pays_its_combiner_per_merged_partial(dfs, name, plan):
    """Stage two merges partial states: nothing per tuple under a built-in
    combiner; ``combiner.merge`` once per tuple beyond a group's first
    otherwise, and nothing per tuple for its key."""
    combined = COMBINERS[name]
    plan = RECEIVER_PLANS[plan]
    _, _, receiver = message_path(dfs, combined, **plan)
    rng = random.Random(5)
    count = 4 * DESTINATIONS
    arrived = sorted(
        ((encode_key(vid % DESTINATIONS), combined.partial(rng)) for vid in range(count)),
        key=operator.itemgetter(0),
    )
    arguments = [arrived]
    if not isinstance(receiver, PreclusteredGroupByOperator):
        arguments.insert(0, types.SimpleNamespace(files=None))
    calls, groups = python_calls(lambda: list(receiver.grouped_stream(*arguments)))
    assert len(groups) == DESTINATIONS
    bound = (
        combined.per_message * (count - DESTINATIONS)
        + combined.per_group() * DESTINATIONS + combined.per_batch()
    )
    if isinstance(receiver, SortGroupByOperator):
        bound += sized(receiver.tuple_serde) * count
    assert calls <= bound


@pytest.fixture
def ctx(tmp_path):
    # Pages wide enough that each pass below stays on one leaf.
    with HyracksCluster(num_nodes=1, root_dir=str(tmp_path / "n"), page_size=64 << 10) as cluster:
        yield TaskContext(cluster.nodes["node0"], JobContext("budget"), 0, 1)


def pagerank_compute(ctx, vertices, degree):
    """A PageRank ``Compute`` clone of superstep 2 over ``vertices`` rows
    of out-degree ``degree``, and the join output it consumes (a message
    for every vertex)."""
    relations = RunRelations(
        pagerank.build_job(), None, "budget-%d-%d" % (vertices, degree)
    )
    edges = [(target, 1.0) for target in range(degree)]
    rows = [
        (encode_key(vid), relations.encode_vertex(VertexRecord(vid, False, 0.5, edges)))
        for vid in range(vertices)
    ]
    index = BTree(ctx.buffer_cache)
    index.bulk_load(rows)
    register_index(ctx, relations.vertex, 0, index)
    gs = GlobalState(superstep=1, num_vertices=vertices, num_edges=vertices * degree)
    compute = ComputeOperator(relations, gs, emit_live=False)
    return compute, [(key, 0.25, data) for key, data in rows]


def test_a_pagerank_compute_pays_nothing_per_edge(ctx):
    """The same calls per vertex at out-degree 1 and 50, C calls
    included: decoding an edge list into ``Edge`` tuples pays one
    ``tuple.__new__`` per edge."""
    vertices = 32
    measured = {}
    for degree in (1, 50):
        compute, joined = pagerank_compute(ctx, vertices, degree)
        calls, out = python_calls(
            lambda: compute.run(ctx, 0, [joined]), events=("call", "c_call")
        )
        assert len(out[ComputeOperator.MSG]) == vertices * degree
        assert out[ComputeOperator.STATS] == [(0, 0)]
        measured[degree] = calls
    assert measured[1] == measured[50]


#: Python frames ``Compute`` enters per PageRank vertex: the program's own
#: (``compute``, the accessors it reads, counting and sending to its
#: edges, the message bundle expanded), the row closed, and one slot
#: replaced on the held leaf. The framework binds the program once per
#: partition.
PER_PAGERANK_VERTEX = 14
#: ... and per chunk of rows written back: the chunk's keys decoded
#: (``INT64.loads_many``, its comprehension and ``_unpack_many``), its
#: stored rows listed and decoded (``OpenedRow.decode`` and the row
#: codec's ``loads_many``), the rows to write encoded
#: (``OpenedRow.encode`` and ``dumps_many``), and the ``insert_sorted``
#: call.
PER_WRITE_BACK_CHUNK = 9


def test_a_pagerank_compute_pays_a_frame_budget_per_vertex(ctx):
    measured = {}
    for vertices in (64, 128):
        compute, joined = pagerank_compute(ctx, vertices, 2)
        calls, out = python_calls(lambda: compute.run(ctx, 0, [joined]))
        assert len(out[ComputeOperator.MSG]) == 2 * vertices
        measured[vertices] = calls, -(-vertices // WRITE_BACK_CHUNK)
    (calls_64, chunks_64), (calls_128, chunks_128) = measured[64], measured[128]
    assert calls_128 - calls_64 <= (
        PER_PAGERANK_VERTEX * 64 + PER_WRITE_BACK_CHUNK * (chunks_128 - chunks_64)
    )


def single_leaf_tree(ctx, rows):
    """A B-tree of ``rows`` inline rows under the even keys, all on its
    root leaf."""
    tree = BTree(ctx.buffer_cache)
    tree.bulk_load((encode_key(2 * vid), b"row %d" % vid) for vid in range(rows))
    root = ctx.buffer_cache.pin(PageId(tree.file_id, tree.root_page_no))
    ctx.buffer_cache.unpin(root)
    assert root.kind == PageKind.LEAF and len(root.keys) == rows
    return tree


def test_a_left_outer_join_pays_nothing_per_probe_on_a_held_leaf(ctx):
    join = IndexLeftOuterJoinOperator("probed")
    measured = {}
    for probes in (100, 400):
        register_index(ctx, "probed", 0, single_leaf_tree(ctx, 1000))
        # Every other probe misses: an odd key, between two stored ones.
        stream = [(encode_key(vid), 0.5) for vid in range(probes)]
        calls, out = python_calls(lambda: join.run(ctx, 0, [stream]))
        assert [value is None for _key, _payload, value in out[join.OUT]] == [
            vid % 2 == 1 for vid in range(probes)
        ]
        measured[probes] = calls
    assert measured[100] == measured[400]


#: Python frames a bulk load pays per leaf it fills: the page offered its
#: rows (``Page.fill``), and the next leaf allocated and the full one
#: unpinned through the buffer cache.
PER_LOADED_LEAF = 12


def test_a_bulk_load_pays_nothing_per_inline_row(tmp_path):
    measured = {}
    with HyracksCluster(num_nodes=1, root_dir=str(tmp_path / "n")) as cluster:
        cache = cluster.nodes["node0"].buffer_cache
        for rows in (1000, 2000):  # inside one batch
            pairs = [(encode_key(vid), b"row %d" % vid) for vid in range(rows)]
            tree = BTree(cache)
            calls, _ = python_calls(lambda: tree.bulk_load(pairs))
            leaves = cache._next_page_no[tree.file_id] - 1  # the root is interior
            measured[rows] = calls, leaves
    (calls_1000, leaves_1000), (calls_2000, leaves_2000) = measured[1000], measured[2000]
    assert leaves_2000 > leaves_1000 >= 5
    assert calls_2000 - calls_1000 <= PER_LOADED_LEAF * (leaves_2000 - leaves_1000)


def test_lanes_make_fewer_calls_than_their_queries_alone(tmp_path):
    """Six sssp queries as lanes of one run against the same six run one
    after another, on the serving benchmark's dataset: the lanes share
    every per-superstep and per-vertex cost but their own programs'."""
    sources = [0, 17, 42, 99, 140, 203]
    with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c")) as cluster:
        driver = PregelixDriver(cluster, cluster.dfs)
        write_graph_to_dfs(cluster.dfs, "/in", iter(btc_graph(600, seed=3)), num_files=3)

        def solo():
            for source in sources:
                driver.run(sssp.build_job(source_id=source), "/in", "/solo")

        def lanes():
            program = MultiQueryProgram(sssp, [{"source_id": s} for s in sources])
            program.run(driver, "/in", "/lanes")

        solo_calls, _ = python_calls(solo)
        lane_calls, _ = python_calls(lanes)
    assert lane_calls < solo_calls

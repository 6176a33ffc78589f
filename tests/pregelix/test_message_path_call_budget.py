"""A budget of Python-level calls for the message path the plan builds.

The path from ``compute`` to ``MsgWrite`` handles a batch per call: the
sender group-by pays one Python-level call per raw message (the
combiner's ``accumulate``) plus a constant per *group* (open the state,
encode the key once, emit), and a partitioning connector pays a constant
per *batch*. When every hop worked per tuple these were six calls per
message and four per routed tuple. The operators are taken from the plan
``PlanGenerator`` generates, so a per-tuple ``encode_key``/``decode_key``
or a sort-key lambda wired back into ``_message_groupby`` fails here.

When the sender spills, a group closes once per batch it has messages
in, and every such group past its first is a duplicate the merge folds:
the budget is then a constant per closed group plus a constant per chunk
a run is replayed or merged in — nothing per spilled record.

Where the path starts, ``Compute`` pays nothing per edge of a program
that only counts its edges and sends to all of them (PageRank): the
count and the targets come off the stored edge image.

Counted under ``sys.setprofile``: ``"call"`` events are Python frames
entered (a generator resumed counts; C functions are ``"c_call"``).
"""

import os
import random
import sys
import types

import pytest

from repro.algorithms import pagerank
from repro.common.serde import encode_key
from repro.hyracks.engine import HyracksCluster, JobContext, TaskContext
from repro.hyracks.operators.groupby import PreclusteredGroupByOperator
from repro.hyracks.operators.index_ops import register_index
from repro.hyracks.storage import run_file
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.file_manager import FileManager
from repro.pregelix import ConnectorPolicy, GroupByStrategy
from repro.pregelix.operators import ComputeOperator
from repro.pregelix.physical import PartitionMap, PlanGenerator
from repro.pregelix.relations import RunRelations
from repro.pregelix.types import GlobalState, VertexRecord

DESTINATIONS = 1250
#: Python-level calls a closed group may cost the sender, whatever its size.
PER_GROUP = 8
#: ... and a batch, whatever its size (the operator's own frames).
PER_BATCH = 12
#: ... and a chunk of spilled records, replayed or merged.
PER_CHUNK = 16


def python_calls(function, events=("call",)):
    calls = [0]

    def profiler(frame, event, arg):
        if event in events:
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        result = function()
    finally:
        sys.setprofile(None)
    # The profiler sees ``function`` itself and the closing setprofile.
    return calls[0] - 2, result


def message_path(dfs, **plan):
    """``(sender group-by, connector, receiver group-by)`` of a superstep plan."""
    job = pagerank.build_job(**plan)
    partition_map = PartitionMap(["node0", "node1", "node2", "node3"])
    spec = PlanGenerator(job, dfs, "budget-run", partition_map).superstep_plan(
        GlobalState()
    )
    (sender,) = [op for op in spec.operators if op.name.startswith("Sender")]
    (edge,) = [edge for edge in spec.edges if edge.producer is sender]
    return sender, edge.connector, edge.consumer


def raw_messages(count):
    rng = random.Random(count)
    return [(rng.randrange(DESTINATIONS), rng.random()) for _ in range(count)]


def test_sender_sort_groupby_pays_one_call_per_message(dfs):
    sender, _, _ = message_path(dfs, groupby_strategy=GroupByStrategy.SORT)
    ctx = types.SimpleNamespace(files=None)
    measured = {}
    for count in (10000, 20000):
        messages = raw_messages(count)
        calls, groups = python_calls(
            lambda: list(sender.grouped_stream(ctx, messages))
        )
        assert len(groups) == DESTINATIONS
        assert calls <= count + PER_GROUP * DESTINATIONS + PER_BATCH
        measured[count] = calls
    # Twice the messages to the same destinations: one call more per message.
    assert measured[20000] - measured[10000] <= 10000


@pytest.mark.parametrize("count", [10000, 20000])
def test_a_spilling_sender_pays_nothing_per_spilled_record(dfs, tmp_path, count):
    memory = 64 << 10
    sender, _, _ = message_path(
        dfs, groupby_strategy=GroupByStrategy.SORT, groupby_memory_bytes=memory
    )
    files = FileManager(str(tmp_path / "node"))
    messages = raw_messages(count)
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


@pytest.mark.parametrize("plan", [
    {"groupby_strategy": GroupByStrategy.SORT},
    {"connector_policy": ConnectorPolicy.MERGED},
], ids=["sort", "preclustered"])
def test_the_receiver_pays_one_call_per_merged_partial(dfs, plan):
    """Stage two merges partial states: ``combiner.merge`` once per tuple
    beyond a group's first, nothing per tuple for its key."""
    _, _, receiver = message_path(dfs, **plan)
    count = 4 * DESTINATIONS
    arrived = sorted(
        (encode_key(vid % DESTINATIONS), float(vid)) for vid in range(count)
    )
    arguments = [arrived]
    if not isinstance(receiver, PreclusteredGroupByOperator):
        arguments.insert(0, types.SimpleNamespace(files=None))
    calls, groups = python_calls(lambda: list(receiver.grouped_stream(*arguments)))
    assert len(groups) == DESTINATIONS
    assert calls <= (count - DESTINATIONS) + PER_GROUP * DESTINATIONS + PER_BATCH


@pytest.fixture
def ctx(tmp_path):
    # Pages wide enough that each pass below stays on one leaf.
    with HyracksCluster(num_nodes=1, root_dir=str(tmp_path / "n"), page_size=64 << 10) as cluster:
        yield TaskContext(cluster.nodes["node0"], JobContext("budget"), 0, 1)


def test_a_pagerank_compute_pays_nothing_per_edge(ctx):
    """The same calls per vertex at out-degree 1 and 50, C calls
    included: decoding an edge list into ``Edge`` tuples pays one
    ``tuple.__new__`` per edge."""
    vertices = 32
    measured = {}
    for degree in (1, 50):
        relations = RunRelations(pagerank.build_job(), None, "budget-%d" % degree)
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
        joined = [(key, 0.25, data) for key, data in rows]
        calls, out = python_calls(
            lambda: compute.run(ctx, 0, [joined]), events=("call", "c_call")
        )
        assert len(out[ComputeOperator.MSG]) == vertices * degree
        assert out[ComputeOperator.STATS] == [(0, 0)]
        measured[degree] = calls
    assert measured[1] == measured[50]

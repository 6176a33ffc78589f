"""A ``Vertex`` row opened in pieces is the row decoded and encoded whole.

``Compute`` no longer decodes a stored row into a ``VertexRecord`` and
encodes it back: :class:`~repro.pregelix.relations.OpenedRow` decodes
``halt`` and ``value`` a chunk of rows at a time, hands the program its
edges only if it reads them, writes back a fresh head in front of the
*stored* edge bytes whenever the splice rule says they cannot have
changed, and writes nothing when the no-write rule says the row leaves
as it came. The contract is the one the compiled codecs have: the bytes
of :mod:`tests.common.reference_serde`, the encoder every stored page
and checkpoint was written with. A seeded property over value/edge
codecs × what a program can do to its edges holds the row as it is
stored afterwards to ``encode`` of the full record byte for byte, and
the edge count delta to the difference of the list lengths. A program
that counts or sends to its edges without reading them gets the count
and the targets off the image. No damaged row gets past either way a row
is read — opened, or pruned on its halt flag — and no damaged edge image
is counted.
"""

import random
import struct

import pytest

from repro.common import serde
from repro.common.errors import JobFailure, StorageError
from repro.common.serde import decode_key, encode_key
from repro.hyracks.engine import HyracksCluster, JobContext, TaskContext
from repro.hyracks.operators.index_ops import register_index
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.pages import PageId
from repro.pregelix import PregelixJob, Vertex
from repro.pregelix.api import Edge
from repro.pregelix.multiquery import MultiQueryVertex
from repro.pregelix.operators import ComputeOperator
from repro.pregelix.relations import OpenedRow, RunRelations
from repro.pregelix.types import GlobalState, VertexRecord

from tests.common import reference_serde as ref
from tests.common.test_serde_compiled import (
    random_float,
    random_list,
    random_text,
    random_vid,
    reference_edges,
)

#: label -> (compiled, reference, generator) per value codec and per edge
#: value codec: fixed and variable values; packed (``layout_fixed``) and
#: framed edge lists, one of them with edge values a program can mutate.
VALUES = {
    "float": (serde.FLOAT64, ref.FLOAT64, random_float),
    "int": (serde.INT64, ref.INT64, random_vid),
    "text": (serde.STRING, ref.STRING, random_text),
    # Fixed-width but not layout_fixed: NULL is not padded.
    "pair": (
        serde.TupleSerde(serde.INT64, serde.FLOAT64),
        ref.TupleSerde(ref.INT64, ref.FLOAT64),
        lambda rng: (random_vid(rng), random_float(rng)),
    ),
}
EDGES = {
    "float": (serde.FLOAT64, ref.FLOAT64, random_float),
    "bool": (serde.BOOL, ref.BOOL, lambda rng: rng.random() < 0.5),
    "text": (serde.STRING, ref.STRING, random_text),
    "list": (
        serde.ListSerde(serde.INT64),
        ref.ListSerde(ref.INT64),
        lambda rng: random_list(rng, random_vid),
    ),
}


class Scripted(Vertex):
    """Does to its value, halt vote and edges what ``self.script`` says."""

    script = None

    def compute(self, messages):
        self.script(self)


def behaviours(new_value, new_edge, rng):
    """``name -> script`` for everything a program can do to its edges.
    Each also sets a fresh value and votes to halt half of the time."""

    def head(program):
        program.value = new_value
        if rng.random() < 0.5:
            program.vote_to_halt()

    def never_reads(program):
        head(program)

    def reads_only(program):
        head(program)
        len(program.edges)
        program.send_message_to_all_edges(1.0)
        for edge in program.edges:
            edge.target, edge.value

    def appends_in_place(program):
        head(program)
        program.edges.append(new_edge)

    def assigns_an_item_in_place(program):
        head(program)
        if program.edges:
            program.edges[rng.randrange(len(program.edges))] = new_edge

    def assigns_an_equal_item_in_place(program):
        # 0.0 == -0.0 and True == 1: equal lists, different bytes.
        head(program)
        for position, (target, value) in enumerate(program.edges):
            if value == 0 and value is not False:
                program.edges[position] = Edge(target, -value if value else -0.0)

    def adds_an_edge(program):
        head(program)
        program.add_edge(*new_edge)

    def sets_edges_unread(program):
        head(program)
        program.set_edges([new_edge, new_edge])

    def sets_the_edges_it_read(program):
        head(program)
        program.set_edges(list(program.edges))

    def removes_edges_to(program):
        head(program)
        targets = [edge.target for edge in program.edges] or [0]
        program.remove_edges_to(rng.choice(targets + [-5]))

    def pops_and_puts_back(program):
        head(program)
        if program.edges:
            program.edges.append(program.edges.pop())

    def reverses_in_place(program):
        head(program)
        program.edges.reverse()

    def mutates_an_edge_value(program):
        head(program)
        for edge in program.edges:
            if isinstance(edge.value, list):
                edge.value.append(7)

    return {
        script.__name__: script
        for script in (
            never_reads, reads_only, appends_in_place, assigns_an_item_in_place,
            assigns_an_equal_item_in_place, adds_an_edge, sets_edges_unread,
            sets_the_edges_it_read, removes_edges_to, pops_and_puts_back,
            reverses_in_place, mutates_an_edge_value,
        )
    }


class CountingCodec:
    """The edge list codec, counting what is asked of it."""

    def __init__(self, codec):
        self.codec = codec
        self.calls = []

    def dumps(self, value):
        self.calls.append("dumps")
        return self.codec.dumps(value)

    def loads(self, data):
        self.calls.append("loads")
        return self.codec.loads(data)

    def firsts(self, data):
        self.calls.append("firsts")
        return self.codec.firsts(data)

    def count(self, data):
        self.calls.append("count")
        return self.codec.count(data)


def open_at(row, stored):
    """Move ``row`` to the stored row ``stored`` as ``Compute`` moves it;
    returns its value."""
    (row.stored,) = row.decode([stored])
    row.decoded = None
    return row.stored[1]


def stored_after(row, program, stored):
    """``(the bytes the row is stored as once closed, edge delta)``: what
    :meth:`OpenedRow.close` gave, encoded, or ``stored`` when it wrote
    nothing back."""
    fields, edge_delta = row.close(program)
    if fields is None:
        return stored, edge_delta
    ((_key, written),) = row.encode([encode_key(1)], [fields])
    return written, edge_delta


def random_edges(rng, gedge):
    edges = random_list(rng, lambda rng: (random_vid(rng), gedge(rng)))
    if edges and rng.random() < 0.3:
        # Zeros of both signs: what compares equal and encodes differently.
        target, value = edges[0]
        edges[0] = (target, rng.choice([0.0, -0.0]) if isinstance(value, float) else value)
    return edges


@pytest.mark.parametrize("edge_kind", sorted(EDGES))
@pytest.mark.parametrize("value_kind", sorted(VALUES))
@pytest.mark.parametrize("seed", range(3))
def test_the_row_written_back_is_the_whole_record_encoded(seed, value_kind, edge_kind):
    rng = random.Random(repr((seed, value_kind, edge_kind)))
    value, rvalue, gvalue = VALUES[value_kind]
    edge, redge, gedge = EDGES[edge_kind]
    reference = ref.TupleSerde(ref.BOOL, ref.OptionalSerde(rvalue), reference_edges(redge))
    job = PregelixJob("rows", Scripted, value_serde=value, edge_serde=edge)
    relations = RunRelations(job, None, "rows")
    counting = relations.edge_codec = CountingCodec(relations.edge_codec)
    row = relations.opened_row()  # one per clone: moved from row to row
    program = Scripted()
    for _ in range(40):
        def optional():
            return None if rng.random() < 0.2 else gvalue(rng)

        scripts = behaviours(optional(), Edge(random_vid(rng), gedge(rng)), rng)
        for name in sorted(scripts):
            halt = rng.random() < 0.5
            before = random_edges(rng, gedge)
            stored = reference.dumps((halt, optional(), before))
            assert relations.encode_vertex(
                relations.decode_vertex(1, stored)
            ) == stored
            bundle_is_none = rng.random() < 0.5
            assert row.decode([stored])[0][0] is halt
            if bundle_is_none and halt:
                continue  # pruned on its halt flag
            program.script = scripts[name]
            del counting.calls[:]
            program._bind(1, open_at(row, stored), row, 2, None, 10, 10)
            program.compute(iter(()))
            written, edge_delta = stored_after(row, program, stored)
            calls = list(counting.calls)
            after = program._edges
            if after is None:  # never obtained: the stored list, untouched
                after = [Edge(*edge) for edge in before]
            assert written == reference.dumps(
                (program._halted, program.value, [tuple(e) for e in after])
            ), name
            assert edge_delta == len(after) - len(before), name
            assert all(isinstance(e, Edge) for e in after)
            # What the splice rule promises, where a script pins it down:
            if name == "never_reads":
                assert calls == []
            elif name in ("reads_only", "pops_and_puts_back"):
                assert calls == (["loads"] if edge.layout_fixed else ["loads", "dumps"])
            elif name in ("appends_in_place", "adds_an_edge") or (
                name == "sets_the_edges_it_read" and before  # new, equal objects
            ):
                assert calls == ["loads", "dumps"]
            elif name == "sets_edges_unread":
                # The image it replaces is counted, never trusted unread.
                assert calls == (["count", "dumps"] if edge.layout_fixed else ["loads", "dumps"])


def test_a_created_vertex_starts_from_no_edges():
    job = PregelixJob("rows", Scripted)
    relations = RunRelations(job, None, "rows")
    row = relations.opened_row()
    program = Scripted()
    for script, edges in [
        (lambda p: p.vote_to_halt(), []),
        (lambda p: len(p.edges), []),
        (lambda p: p.add_edge(4, 0.5), [(4, 0.5)]),
        (lambda p: p.set_edges([(4, 0.5), (5, 1.5)]), [(4, 0.5), (5, 1.5)]),
    ]:
        program.script = script
        program._bind(9, row.create(), row, 2, None, 10, 10)
        assert program.num_out_edges == 0
        program.compute(iter(()))
        assert program.num_out_edges == len(edges)
        fields, edge_delta = row.close(program)
        assert fields is not None  # nothing is stored yet: always written
        ((_key, written),) = row.encode([encode_key(9)], [fields])
        assert written == relations.encode_vertex(
            VertexRecord(9, program._halted, None, edges)
        )
        assert edge_delta == len(edges)


# ----------------------------------------------------------------------
# sending to all edges reads the targets off the image
# ----------------------------------------------------------------------
def bind_at(program, row, stored):
    """Bind ``program`` to a stored row as ``Compute`` binds it."""
    program._bind(1, open_at(row, stored), row, 2, None, 10, 10)


def mutates(program):
    program.edges.reverse()
    del program.edges[1:2]


#: What a program does to its edges before it sends to all of them.
BEFORE_SENDING = {
    "ignores": lambda program: None,
    "reads": lambda program: len(program.edges),
    "mutates": mutates,
}


@pytest.mark.parametrize("edge_kind", sorted(EDGES))
@pytest.mark.parametrize("value_kind", sorted(VALUES))
def test_sending_to_edges_nobody_read_is_sending_to_the_edges(value_kind, edge_kind):
    rng = random.Random(value_kind + edge_kind)
    value, _rvalue, gvalue = VALUES[value_kind]
    edge, _redge, gedge = EDGES[edge_kind]
    job = PregelixJob("send", Scripted, value_serde=value, edge_serde=edge)
    relations = RunRelations(job, None, "send")
    counting = relations.edge_codec = CountingCodec(relations.edge_codec)
    row = relations.opened_row()
    program = Scripted()
    for _ in range(30):
        record = VertexRecord(1, False, gvalue(rng), random_edges(rng, gedge))
        stored = relations.encode_vertex(record)
        sent = {}
        for name, before in sorted(BEFORE_SENDING.items()):
            program.script = lambda p, before=before: (
                before(p), p.send_message_to_all_edges("m")
            )
            del counting.calls[:]
            bind_at(program, row, stored)
            program.compute(iter(()))
            written, _delta = stored_after(row, program, stored)
            calls = list(counting.calls)
            edges = program._edges
            if edges is None:
                edges = record.edges
            assert program._outbox == [(target, "m") for target, _ in edges], name
            assert written == relations.encode_vertex(
                VertexRecord(1, False, program.value, edges)
            ), name
            sent[name] = program._outbox, written
            if name == "ignores":
                # Unread edges are neither built nor encoded again.
                assert calls == (["firsts"] if edge.layout_fixed else ["loads"])
        assert sent["ignores"] == sent["reads"]


def damaged_images(image):
    """Every cut of a two-edge ``image``, extensions of it, and the image
    under other counts (a header saying 256 was once counted as is)."""
    damaged = [image[:cut] for cut in range(len(image))]
    damaged += [image + bytes(extra) for extra in range(1, 17)]
    damaged += [image + b"\xff" * extra for extra in range(1, 17)]
    damaged += [struct.pack(">I", count) + image[4:] for count in (0, 1, 3, 256)]
    return damaged


@pytest.mark.parametrize("edge_kind", sorted(EDGES))
def test_a_damaged_edge_image_fails_the_send(edge_kind):
    rng = random.Random(edge_kind)
    edge, _redge, gedge = EDGES[edge_kind]
    job = PregelixJob("damaged", Scripted, edge_serde=edge)
    relations = RunRelations(job, None, "damaged")
    row = relations.opened_row()
    program = Scripted()
    program.script = lambda p: p.send_message_to_all_edges(1.0)
    image = relations.edge_codec.dumps([(2, gedge(rng)), (3, gedge(rng))])
    for data in damaged_images(image):
        # The row's framing is intact: only its edge image is damaged.
        bind_at(program, row, relations._opened_codec.dumps((False, 1.0, data)))
        with pytest.raises(StorageError):
            program.compute(iter(()))


def test_a_rebound_program_never_sends_to_the_previous_rows_targets():
    job = PregelixJob("rebound", Scripted)
    relations = RunRelations(job, None, "rebound")
    row = relations.opened_row()
    stored = relations.encode_vertex(VertexRecord(1, False, 0.0, [(2, 1.0), (3, 1.0)]))
    program = Scripted()
    program.script = lambda p: p.send_message_to_all_edges(0.5)
    wrapper = MultiQueryVertex()
    wrapper._bind(7, None, lambda: [Edge(8, 1.0), Edge(9, 1.0), Edge(6, 1.0)], 2, None, 10, 10)
    for rebind, targets in [
        # a baseline binds a list
        (lambda: program._bind(5, 0.0, [(6, 1.0)], 2, None, 10, 10), [6]),
        # a multi-query lane binds the wrapper's edges
        (lambda: program._bind(7, 0.0, wrapper._lane_edges, 2, None, 10, 10), [8, 9, 6]),
    ]:
        bind_at(program, row, stored)
        program.compute(iter(()))
        assert program._outbox == [(2, 0.5), (3, 0.5)]
        assert program.num_out_edges == 2
        rebind()
        program.compute(iter(()))
        assert program._outbox == [(target, 0.5) for target in targets]
        assert program.num_out_edges == len(targets)


# ----------------------------------------------------------------------
# counting the edges reads the count off the image
# ----------------------------------------------------------------------
def changes(new_edge, stored_edges):
    """``name -> what a program does to its edges before it counts them``."""
    return {
        "ignores": lambda program: None,
        "reads": lambda program: program.edges,
        "sets_edges": lambda program: program.set_edges([new_edge] * 3),
        "adds_an_edge": lambda program: program.add_edge(*new_edge),
        "removes_edges_to": lambda program: program.remove_edges_to(
            stored_edges[0][0] if stored_edges else new_edge.target
        ),
    }


@pytest.mark.parametrize("edge_kind", sorted(EDGES))
@pytest.mark.parametrize("value_kind", sorted(VALUES))
def test_counting_edges_nobody_read_is_counting_the_edges(value_kind, edge_kind):
    rng = random.Random("count" + value_kind + edge_kind)
    value, _rvalue, gvalue = VALUES[value_kind]
    edge, _redge, gedge = EDGES[edge_kind]
    job = PregelixJob("count", Scripted, value_serde=value, edge_serde=edge)
    relations = RunRelations(job, None, "count")
    counting = relations.edge_codec = CountingCodec(relations.edge_codec)
    row = relations.opened_row()
    program = Scripted()
    for _ in range(30):
        record = VertexRecord(1, False, gvalue(rng), random_edges(rng, gedge))
        stored = relations.encode_vertex(record)
        new_edge = Edge(random_vid(rng), gedge(rng))
        for name, change in sorted(changes(new_edge, record.edges).items()):
            counted = []
            program.script = lambda p, change=change: (
                change(p), counted.append(p.num_out_edges)
            )
            del counting.calls[:]
            bind_at(program, row, stored)
            program.compute(iter(()))
            calls = list(counting.calls)
            if name == "ignores":
                # No edge built; a packed image is not even decoded.
                assert program._edges is None
                if edge.layout_fixed:
                    assert row.decoded is None and calls == ["count"]
                else:
                    assert calls == ["loads"]
                assert counted == [len(record.edges)]
            assert counted == [len(program.edges)], name


@pytest.mark.parametrize("edge_kind", sorted(EDGES))
@pytest.mark.parametrize("value_kind", sorted(VALUES))
def test_a_damaged_edge_image_is_neither_counted_nor_replaced(value_kind, edge_kind):
    rng = random.Random("damaged" + value_kind + edge_kind)
    value, _rvalue, gvalue = VALUES[value_kind]
    edge, _redge, gedge = EDGES[edge_kind]
    job = PregelixJob("damaged", Scripted, value_serde=value, edge_serde=edge)
    relations = RunRelations(job, None, "damaged")
    row = relations.opened_row()
    program = Scripted()
    image = relations.edge_codec.dumps([(2, gedge(rng)), (3, gedge(rng))])
    for data in damaged_images(image):
        stored = relations._opened_codec.dumps((False, gvalue(rng), data))
        for script in (
            lambda p: p.num_out_edges,
            # Replaced unread: the edge delta counts the image it replaces.
            lambda p: p.set_edges([(9, gedge(rng))]),
        ):
            program.script = script
            bind_at(program, row, stored)
            with pytest.raises(StorageError):
                program.compute(iter(()))
                row.close(program)


# ----------------------------------------------------------------------
# no damaged row is read, opened or pruned
# ----------------------------------------------------------------------
class Halts(Vertex):
    def compute(self, messages):
        self.vote_to_halt()


@pytest.fixture
def ctx(tmp_path):
    with HyracksCluster(num_nodes=1, root_dir=str(tmp_path / "n")) as cluster:
        yield TaskContext(cluster.nodes["node0"], JobContext("unit"), 0, 1)


@pytest.mark.parametrize("value_kind", ["float", "text"])
@pytest.mark.parametrize("edge_kind", ["float", "text"])
def test_a_damaged_row_is_neither_opened_nor_pruned(ctx, value_kind, edge_kind):
    rng = random.Random(value_kind + edge_kind)
    value, _rvalue, gvalue = VALUES[value_kind]
    edge, _redge, gedge = EDGES[edge_kind]
    job = PregelixJob("damaged", Halts, value_serde=value, edge_serde=edge)
    relations = RunRelations(job, None, "damaged")
    register_index(ctx, relations.vertex, 0, BTree(ctx.buffer_cache))
    compute = ComputeOperator(relations, GlobalState(), emit_live=False)
    key = encode_key(1)
    for halt in (False, True):
        intact = relations.encode_vertex(
            VertexRecord(1, halt, gvalue(rng), [(2, gedge(rng)), (3, gedge(rng))])
        )
        damaged = [intact[:cut] for cut in range(len(intact))]
        damaged += [intact + bytes(extra) for extra in range(1, 9)]
        damaged += [intact + b"\xff" * extra for extra in range(1, 9)]
        # through open (a message arrived) and, for a halted row, through
        # the prune (none did); an active row without one is opened too
        for bundle in ([1.0], None):
            compute.run(ctx, 0, [[(key, bundle, intact)]])
            for data in damaged:
                with pytest.raises(StorageError):
                    compute.run(ctx, 0, [[(key, bundle, data)]])
    # halted and without a message: pruned, so never processed
    assert ctx.job.counters.get("vertices_processed") == 3
    assert not any(page.pin_count for page in ctx.buffer_cache._pages.values())


# ----------------------------------------------------------------------
# the no-write rule: a row that leaves as it came is not written
# ----------------------------------------------------------------------
class WritesEveryRow(OpenedRow):
    """The row before the no-write rule: everything processed is written."""

    def close(self, program):
        fields, edge_delta = super().close(program)
        if fields is None:
            fields = (program._halted, program.value, self.stored[2])
        return fields, edge_delta


class Churns(Vertex):
    """Does to its row what ``ACTIONS[vid % len(ACTIONS)]`` says."""

    def compute(self, messages):
        ACTIONS[self.vertex_id % len(ACTIONS)][1](self)


#: ``(name, action, whether the row must be written)`` — halt votes are
#: the stored ones unless the name says the vote flips.
ACTIONS = [
    ("keeps", lambda p: None, False),
    ("reads its edges", lambda p: len(p.edges), False),
    ("counts and sends", lambda p: p.send_message_to_all_edges(p.num_out_edges), False),
    ("assigns the value it has", lambda p: setattr(p, "value", p.value), False),
    # Equal, and the same bytes, but another object: identity decides.
    ("assigns an equal copy", lambda p: setattr(p, "value", float(repr(p.value))), True),
    # -0.0 after 0.0: equal, and other bytes.
    ("negates its value", lambda p: setattr(p, "value", -p.value), True),
    ("flips its halt vote", lambda p: None, True),
    ("adds an edge", lambda p: p.add_edge(9, 0.5), True),
    ("sets equal edges", lambda p: p.set_edges(list(p.edges)), True),
]


def halted_before(vid):
    """The stored halt flag of ``vid``: each action meets both."""
    return (vid // len(ACTIONS)) % 2 == 1


class ChurnsAndVotes(Churns):
    def compute(self, messages):
        super().compute(messages)
        name = ACTIONS[self.vertex_id % len(ACTIONS)][0]
        if halted_before(self.vertex_id) != (name == "flips its halt vote"):
            self.vote_to_halt()


def churned_partition(ctx, name, vertices, opened_row=None):
    relations = RunRelations(PregelixJob(name, ChurnsAndVotes), None, name)
    if opened_row is not None:
        relations.opened_row = lambda: opened_row(relations)
    rows = [
        (encode_key(vid), relations.encode_vertex(VertexRecord(
            vid, halted_before(vid), 0.0 if vid % 3 else 1.5, [(vid + 1, 1.0), (vid + 2, -0.0)],
        )))
        for vid in range(vertices)
    ]
    tree = BTree(ctx.buffer_cache)
    tree.bulk_load(rows)
    register_index(ctx, relations.vertex, 0, tree)
    written = []
    insert_sorted = tree.insert_sorted
    tree.insert_sorted = lambda pairs: (written.extend(pairs), insert_sorted(pairs))
    # A message for every other vertex: the rest are active or pruned.
    joined = [(key, [1.0] if i % 2 else None, data) for i, (key, data) in enumerate(rows)]
    compute = ComputeOperator(relations, GlobalState(superstep=1), emit_live=True)
    return tree, written, compute.run(ctx, 0, [joined])


def tree_images(tree):
    cache = tree.cache
    images = []
    for page_no in range(cache._next_page_no[tree.file_id]):
        page = cache.pin(PageId(tree.file_id, page_no))
        images.append(page.to_bytes())
        cache.unpin(page)
    return tree.root_page_no, images


def test_a_row_that_leaves_as_it_came_is_not_written(ctx):
    """After one superstep the pages are those of writing every processed
    row back, and so is everything on the ports; what is written is
    exactly the rows whose halt flag, value object or edges changed."""
    vertices = 600  # several leaves, several write-back chunks
    tree, written, out = churned_partition(ctx, "skips", vertices)
    every, written_all, out_all = churned_partition(ctx, "writes", vertices, WritesEveryRow)
    assert tree_images(tree) == tree_images(every)
    assert out == out_all
    processed = {
        vid for vid in range(vertices) if vid % 2 or not halted_before(vid)
    }
    assert sorted(decode_key(key) for key, _data in written_all) == sorted(processed)
    expected = {vid for vid in processed if ACTIONS[vid % len(ACTIONS)][2]}
    assert {decode_key(key) for key, _data in written} == expected
    assert len(written) < len(written_all)
    assert not any(page.pin_count for page in ctx.buffer_cache._pages.values())


class MutatesItsLanes(Vertex):
    def compute(self, messages):
        self.value[0] = (True, self.value[0][1] + 1.0)  # in place: the same list


def test_a_value_mutated_in_place_is_always_written(ctx):
    """A list of slots is not ``layout_fixed``: the value object is the
    one decoded, and still its bytes changed."""
    lanes = serde.ListSerde(serde.FixedPairSerde(serde.BOOL, serde.FLOAT64))
    job = PregelixJob("lanes", MutatesItsLanes, value_serde=lanes)
    relations = RunRelations(job, None, "lanes")
    key = encode_key(4)
    tree = BTree(ctx.buffer_cache)
    tree.bulk_load([(key, relations.encode_vertex(VertexRecord(4, False, [(False, 1.0)], [])))])
    register_index(ctx, relations.vertex, 0, tree)
    compute = ComputeOperator(relations, GlobalState(superstep=1), emit_live=False)
    compute.run(ctx, 0, [[(key, None, tree.lookup(key))]])
    assert relations.vertex_record((key, tree.lookup(key))).value == [(True, 2.0)]


class Doubles(Vertex):
    def compute(self, messages):
        self.value *= 2


def test_a_value_that_outgrows_its_serde_names_its_vertex(ctx):
    """Rows are encoded a chunk at a time; the failure still names the one
    vertex whose value does not fit, wherever it is in the chunk."""
    relations = RunRelations(PregelixJob("grows", Doubles, value_serde=serde.INT64), None, "grows")
    rows = [
        (encode_key(vid), relations.encode_vertex(
            VertexRecord(vid, False, 2 ** 62 if vid == 37 else vid, [])
        ))
        for vid in range(60)
    ]
    tree = BTree(ctx.buffer_cache)
    tree.bulk_load(rows)
    register_index(ctx, relations.vertex, 0, tree)
    compute = ComputeOperator(relations, GlobalState(superstep=1), emit_live=False)
    with pytest.raises(JobFailure, match="vertex 37: field 'value'"):
        compute.run(ctx, 0, [[(key, None, data) for key, data in rows]])
    assert not any(page.pin_count for page in ctx.buffer_cache._pages.values())

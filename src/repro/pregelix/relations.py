"""The relations of one Pregelix run (paper Table 1, plus Figure 8's Vid).

All Pregel state of a run is three relations and one live-set index, and
everything else in this package is plans over them:

* ``Vertex``: vid → (halt, value, edges); per partition a B-tree or LSM
  B-tree registered on the owning node as ``vertex:<run>``;
* ``Vid``: vid → nothing; a B-tree registered as ``vid:<run>``
  (left-outer-join plans only);
* ``Msg``: vid → combined payload; a sorted run registered as
  ``msg:<run>``, held in memory within the node's budget and written to
  a run file past it;
* ``GS``: one tuple at ``/pregelix/<run>/gs`` in the DFS.

:class:`RunRelations` is their one owner: it alone knows the names, the
storage behind each, what a stored row looks like (``encode_key`` keys,
values through the codecs of :mod:`repro.pregelix.types`), who writes
GS, and :meth:`~RunRelations.release`. The plan generator, the Pregelix
operators, the checkpointer and the driver ask it; the node-local
registry is :mod:`repro.hyracks.operators.index_ops`, which knows no
relation. A partition nobody has written yet is an empty relation.
"""

import struct
from functools import partial
from itertools import repeat
from operator import is_, itemgetter

from repro.common.errors import JobFailure
from repro.common.serde import decode_key
from repro.hyracks.operators.index_ops import drop_indexes
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.lsm_btree import LSMBTree
from repro.hyracks.storage.run_file import RunFile
from repro.pregelix.api import Edge, VertexStorage
from repro.pregelix.types import (
    decode_global_state,
    decode_vertex,
    edge_list_serde,
    encode_global_state,
    encode_vertex,
    opened_vertex_serde,
)

#: What a ``Vid`` row stores under its key: nothing — presence is the fact.
VID_VALUE = b""

#: The target of a decoded ``(target, value)`` edge pair.
_TARGET = itemgetter(0)
#: The key, value and edge image of a loader tuple.
_KEY, _VALUE, _IMAGE = itemgetter(0), itemgetter(1), itemgetter(2)


class RunRelations:
    """Names, storage, rows and lifetime of one run's relations. The
    names depend on ``run_id`` alone: pipelined jobs share them, and
    anyone who knows the id can release the run."""

    def __init__(self, job, dfs, run_id):
        self.job = job
        self.dfs = dfs
        self.run_id = run_id
        self.vertex = "vertex:%s" % run_id
        self.vid = "vid:%s" % run_id
        self.msg = "msg:%s" % run_id
        #: Everything durable the run owns (GS, checkpoints) is under it.
        self.root = "/pregelix/%s" % run_id
        self.gs_path = self.root + "/gs"
        codec = job.vertex_codec()
        #: ``(vid, stored bytes) -> VertexRecord``
        self.decode_vertex = partial(decode_vertex, codec)
        #: ``VertexRecord -> stored bytes``
        self.encode_vertex = partial(encode_vertex, codec)
        #: What an edge list is stored as: the codec of its image.
        self.edge_codec = edge_list_serde(job.edge_serde)
        # What an OpenedRow works with.
        self._opened_codec = opened_vertex_serde(job.value_serde)
        self._no_edges = self.edge_codec.dumps([])
        self._gs_codec = job.gs_codec()

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def loaded_vertices(self, loaded):
        """The ``Vertex`` rows of a list of loader tuples ``(key image,
        value, edge image)``, one ``dumps_many``: every vertex starts
        active, and its edge image is stored as it is (each row is
        ``encode_vertex``'s, byte for byte)."""
        heads = zip(repeat(False), map(_VALUE, loaded), map(_IMAGE, loaded))
        return list(zip(map(_KEY, loaded), self._opened_codec.dumps_many(heads)))

    def loaded_vids(self, loaded):
        """The ``Vid`` rows of a list of loader tuples: their keys, as
        they are."""
        return list(zip(map(_KEY, loaded), repeat(VID_VALUE)))

    def vertex_record(self, row):
        """The :class:`VertexRecord` of a stored ``(key, bytes)`` row."""
        key, data = row
        return self.decode_vertex(decode_key(key), data)

    def stored_vertex(self, row):
        """``(vid, value, edge image)`` of a stored ``(key, bytes)`` row:
        its framing verified, its edge list left as the image."""
        key, data = row
        _halt, value, image = self._opened_codec.loads(data)
        return decode_key(key), value, image

    def opened_row(self):
        """A fresh :class:`OpenedRow` (one per ``Compute`` clone)."""
        return OpenedRow(self)

    # ------------------------------------------------------------------
    # node-local storage
    # ------------------------------------------------------------------
    def node_local(self):
        """``(kind, name, factory)`` per relation stored on the nodes, in
        checkpoint order: ``kind`` names its checkpoint blobs,
        ``factory(ctx, partition)`` makes a fresh unregistered partition."""
        relations = [
            ("vertex", self.vertex, self.new_vertex),
            ("msg", self.msg, self.new_msg),
        ]
        if self.job.needs_vid:
            relations.append(("vid", self.vid, self.new_vid))
        return relations

    def new_vertex(self, ctx, partition):
        stem = _file_stem(self.vertex, partition)
        if self.job.vertex_storage == VertexStorage.LSM_BTREE:
            return LSMBTree(ctx.buffer_cache, name=stem)
        return BTree(ctx.buffer_cache, name=stem + ".dat")

    def new_vid(self, ctx, partition):
        return BTree(ctx.buffer_cache, name=_file_stem(self.vid, partition) + ".dat")

    def new_msg(self, ctx, partition):
        return RunFile(ctx.files, _file_stem(self.msg, partition), ctx.budget)

    # ------------------------------------------------------------------
    # GS
    # ------------------------------------------------------------------
    def write_gs(self, gs, path=None):
        """Write GS (the primary copy, or a checkpoint's at ``path``);
        returns the bytes."""
        data = encode_global_state(self._gs_codec, gs)
        self.dfs.write(path or self.gs_path, data)
        return data

    def adopt_gs(self, data):
        """Make checkpointed GS bytes the primary copy; returns the tuple."""
        self.dfs.write(self.gs_path, data)
        return decode_global_state(self._gs_codec, data)

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def release(self, cluster, nodes=None, durable=True):
        """Drop what the run holds. With ``nodes``, those nodes' share:
        their partitions, the files behind them and the memory their
        ``Msg`` images hold (a rebalance vacated
        them; a drained node must hold nothing before it can retire).
        Otherwise every node's share and the placement pin, and — when
        ``durable`` — GS and the checkpoints in the DFS, which a failed
        run keeps for whoever retries it."""
        names = (self.vertex, self.vid, self.msg)
        for node_id in list(cluster.nodes) if nodes is None else nodes:
            node = cluster.nodes.get(node_id)
            if node is not None:
                drop_indexes(node, names)
        if nodes is None:
            if durable:
                self.dfs.delete(self.root, recursive=True)
            cluster.release_placement(self.run_id)


class OpenedRow:
    """The ``Vertex`` row ``Compute`` is at, opened in pieces.

    A superstep changes ``halt`` and ``value`` of most rows it touches
    and the edges of almost none, so a row is not decoded into a
    :class:`VertexRecord` and encoded back. :meth:`decode` opens the
    stored rows of a write-back chunk with one ``loads_many`` — which
    verifies the framing of every one of them, the rows the halt filter
    prunes included — into ``(halt, value, edge image)``: the edge list
    stays its *image*, the bytes it is stored as, unless the program
    reads it (:meth:`read_edges`; ``Vertex._bind`` is handed the row). A
    program that counts its edges or sends to all of them without
    reading them gets the count and the targets off the image
    (:meth:`edge_count`, :meth:`edge_targets`). One instance per clone:
    ``Compute`` moves it to a stored row by setting :attr:`stored` to
    what :meth:`decode` gave for it and :attr:`decoded` to ``None``, and
    to a new one with :meth:`create`. :meth:`close` says what the row is
    written back as, and :meth:`encode` encodes a chunk of those with one
    ``dumps_many``.

    The splice rule — when :meth:`close` reuses the stored edge image
    verbatim instead of encoding the program's list: the program never
    obtained the list; or the edge codec is ``layout_fixed`` (decoded
    edges are then immutable tuples of scalars: the same objects encode
    to the same bytes) and the program's list still holds exactly the
    objects that were decoded, in order. Identity, not ``==``: ``-0.0 ==
    0.0`` and they are different bytes. So appending, assigning an item,
    ``set_edges``, ``add_edge``, ``remove_edges_to`` and every codec
    that is not ``layout_fixed`` (edge values may be mutated in place)
    encode the list; either way the row is ``encode_vertex`` of the
    full record, byte for byte.

    The no-write rule — when :meth:`close` writes nothing back: the edge
    image is spliced, the halt flag is the stored one, and the value is
    the object that was decoded under a ``layout_fixed`` value codec
    (immutable scalars and tuples of them: the same object encodes to
    the same bytes). The row would be written back as the bytes it is
    stored as. A value of any other codec (a lane vector is mutated in
    place) is always written.
    """

    def __init__(self, relations):
        self._row = relations._opened_codec
        self._edge_list = relations.edge_codec
        self._spliceable = relations.job.edge_serde.layout_fixed
        self._unchanged_if_same = relations.job.value_serde.layout_fixed
        #: A row nobody stored yet: no halt flag to keep, no edges.
        self._created = (None, None, relations._no_edges)
        self.stored = None  # (halt, value, edge image) of the row it is at
        self.decoded = None  # what the edge codec decoded from the image, if it did

    def decode(self, images):
        """``(halt, value, edge image)`` of each stored row ``images``
        holds (a list), framing verified: one ``loads_many``."""
        return self._row.loads_many(images)

    def create(self):
        """Move to a row that does not exist yet (a message addressed it,
        Figure 2): NULL value, no edges; returns its value."""
        self.stored = self._created
        self.decoded = None
        return None

    def _decoded(self):
        """What the edge codec decodes the image to, decoded once per row."""
        decoded = self.decoded
        if decoded is None:
            decoded = self.decoded = self._edge_list.loads(self.stored[2])
        return decoded

    def read_edges(self):
        """The edge list: a list of ``Edge`` the caller owns."""
        decoded = self._decoded()
        if not self._spliceable:
            # Only the packed codec decodes straight to ``Edge``.
            decoded = map(Edge._make, decoded)
        return list(decoded)

    def edge_count(self):
        """How many edges the image holds, with no ``Edge`` built: the
        count × width check of a packed image (the codec is
        ``layout_fixed``), one decode — which validates it — otherwise."""
        if self.decoded is None and self._spliceable:
            return self._edge_list.count(self.stored[2])
        return len(self._decoded())

    def edge_targets(self):
        """The targets of the edge list, in order, with no ``Edge`` built:
        one ``iter_unpack`` over a packed image (the codec is
        ``layout_fixed``), one decode otherwise. Leaves the image to be
        spliced back."""
        if self._spliceable:
            return self._edge_list.firsts(self.stored[2])
        return list(map(_TARGET, self._decoded()))

    def close(self, program):
        """``(fields, edge count delta)`` of the row as ``program`` leaves
        it: ``fields`` is the ``(halt, value, edge image)`` to write back
        (see the splice rule above), or ``None`` under the no-write rule.
        An image the program's list replaces is counted through
        :meth:`edge_count`, so a damaged one raises instead of
        miscounting."""
        edges = program._edges
        decoded = self.decoded
        halt, value, image = self.stored
        if edges is None or (
            self._spliceable
            and decoded is not None
            and len(edges) == len(decoded)
            and all(map(is_, edges, decoded))
        ):
            if (
                program._halted == halt
                and program.value is value
                and self._unchanged_if_same
            ):
                return None, 0
            return (program._halted, program.value, image), 0
        edge_delta = len(edges) - self.edge_count()
        return (program._halted, program.value, self._edge_list.dumps(edges)), edge_delta

    def encode(self, keys, rows):
        """``(key, stored bytes)`` of each of ``rows`` (what :meth:`close`
        gave) under its key in ``keys``: one ``dumps_many``. The halt flag
        and the edge image always encode, so a ``struct.error`` is a value
        that outgrew its serde (an INT64 past 2**63, say): the rows are
        encoded one by one to name its vertex."""
        try:
            return list(zip(keys, self._row.dumps_many(rows)))
        except struct.error:
            for key, row in zip(keys, rows):
                try:
                    self._row.dumps(row)
                except struct.error as error:
                    raise JobFailure(
                        "vertex %r: field 'value' does not fit the job's value "
                        "serde (%s)" % (decode_key(key), error), cause=error,
                    ) from error
            raise


def _file_stem(name, partition):
    return "%s-p%d" % (name.replace(":", "-"), partition)

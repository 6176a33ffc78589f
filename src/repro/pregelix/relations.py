"""The relations of one Pregelix run (paper Table 1, plus Figure 8's Vid).

All Pregel state of a run is three relations and one live-set index, and
everything else in this package is plans over them:

* ``Vertex``: vid → (halt, value, edges); per partition a B-tree or LSM
  B-tree registered on the owning node as ``vertex:<run>``;
* ``Vid``: vid → nothing; a B-tree registered as ``vid:<run>``
  (left-outer-join plans only);
* ``Msg``: vid → combined payload; a sorted run file registered as
  ``msg:<run>``;
* ``GS``: one tuple at ``/pregelix/<run>/gs`` in the DFS.

:class:`RunRelations` is their one owner: it alone knows the names, the
storage behind each, what a stored row looks like (``encode_key`` keys,
values through the codecs of :mod:`repro.pregelix.types`), who writes
GS, and :meth:`~RunRelations.release`. The plan generator, the Pregelix
operators, the checkpointer and the driver ask it; the node-local
registry is :mod:`repro.hyracks.operators.index_ops`, which knows no
relation. A partition nobody has written yet is an empty relation.
"""

from functools import partial

from repro.common.serde import decode_key, encode_key
from repro.hyracks.operators.index_ops import drop_indexes
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.lsm_btree import LSMBTree
from repro.hyracks.storage.run_file import RunFile
from repro.pregelix.api import VertexStorage
from repro.pregelix.types import (
    VertexRecord,
    decode_global_state,
    decode_vertex,
    encode_global_state,
    encode_vertex,
)

#: What a ``Vid`` row stores under its key: nothing — presence is the fact.
VID_VALUE = b""


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

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def loaded_vertex(self, raw):
        """The ``Vertex`` row of a loader tuple ``(vid, value, edges)``:
        every vertex starts active."""
        vid, value, edges = raw
        return encode_key(vid), self.encode_vertex(
            VertexRecord(vid, False, value, edges)
        )

    def loaded_vid(self, raw):
        """The ``Vid`` row of a loader tuple."""
        return encode_key(raw[0]), VID_VALUE

    def vertex_record(self, row):
        """The :class:`VertexRecord` of a stored ``(key, bytes)`` row."""
        key, data = row
        return self.decode_vertex(decode_key(key), data)

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
        path = ctx.files.create_temp_path(_file_stem(self.msg, partition))
        return RunFile(path, ctx.files)

    # ------------------------------------------------------------------
    # GS
    # ------------------------------------------------------------------
    def write_gs(self, gs, path=None):
        """Write GS (the primary copy, or a checkpoint's at ``path``);
        returns the bytes."""
        data = encode_global_state(self.job.gs_codec(), gs)
        self.dfs.write(path or self.gs_path, data)
        return data

    def adopt_gs(self, data):
        """Make checkpointed GS bytes the primary copy; returns the tuple."""
        self.dfs.write(self.gs_path, data)
        return decode_global_state(self.job.gs_codec(), data)

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def release(self, cluster, nodes=None, durable=True):
        """Drop what the run holds. With ``nodes``, those nodes' share:
        their partitions and the files behind them (a rebalance vacated
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


def _file_stem(name, partition):
    return "%s-p%d" % (name.replace(":", "-"), partition)

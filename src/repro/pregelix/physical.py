"""The Pregelix plan generator (paper Section 5.7, "Plan Generator").

Generates the physical Hyracks job specs for data loading, one Pregel
superstep, result writing, reactivation (job pipelining), checkpointing,
and recovery. The superstep plan realizes the logical plan of Figures
3–5 with the physical choices of Figures 7–8:

* join strategy: index full outer join, or merge/choose + index left
  outer join against a bulk-loaded ``Vid`` index of live vertices;
* message combination: two-stage group-by — sort-based or HashSort on
  the sender side, and either the same re-grouping operator under an
  m-to-n partitioning connector or a pre-clustered group-by under an
  m-to-n partitioning *merging* connector;
* vertex storage: B-tree or LSM B-tree behind the node's buffer cache.

Sticky scheduling: every per-partition operator carries an absolute
location constraint pinning partition ``i`` to the node that stores
vertex partition ``i``, so ``Msg`` and ``Vertex`` stay co-partitioned and
the join needs no extra repartitioning (Section 5.3.4).

The plans are *over* the run's relations; their names, storage and row
layouts are the :class:`~repro.pregelix.relations.RunRelations`' that
every generator holds as ``relations``.
"""

import copy
from itertools import chain, groupby
from operator import itemgetter

from repro.common import serde
from repro.common.serde import INT64, decode_key, encode_key
from repro.graphs import io as graph_io
from repro.hyracks.connectors import (
    MToNPartitioningConnector,
    MToNPartitioningMergingConnector,
    MToOneAggregatorConnector,
    OneToOneConnector,
)
from repro.hyracks.job import JobSpec, OperatorDescriptor
from repro.hyracks.operators.aggregate import ScalarAggregator
from repro.hyracks.operators.func import BatchMapOperator, MapOperator
from repro.hyracks.operators.groupby import (
    GroupAggregator,
    HashSortGroupByOperator,
    PreclusteredGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.operators.index_ops import (
    IndexBulkLoadOperator,
    IndexScanOperator,
    get_index,
)
from repro.hyracks.operators.join import (
    IndexFullOuterJoinOperator,
    IndexLeftOuterJoinOperator,
    MergeChooseOperator,
)
from repro.hyracks.operators.scan import HDFSScanOperator, HDFSWriteOperator
from repro.hyracks.operators.sort import ExternalSortOperator
from repro.hyracks.scheduler import (
    AbsoluteLocationConstraint,
    ChoiceLocationConstraint,
    CountConstraint,
)
from repro.hyracks.storage.run_file import LEAD
from repro.pregelix.api import Combiner, ConnectorPolicy, GroupByStrategy, JoinStrategy
from repro.pregelix.operators import (
    ComputeOperator,
    GlobalGSOperator,
    LocalGSOperator,
    MsgScanOperator,
    MsgWriteOperator,
    VertexMutationOperator,
)
from repro.pregelix.relations import VID_VALUE, RunRelations
from repro.pregelix.types import GlobalState

#: The edge image of a loader tuple ``(key image, value, edge image)``.
_IMAGE = itemgetter(2)


class PartitionMap:
    """The sticky vertex-partition-to-node assignment.

    Built once at load time by :meth:`balanced` and reused by every
    superstep plan; rebuilt, with the same partition count, only when
    rebalancing or recovery moves partitions to other nodes.
    """

    def __init__(self, locations):
        if not locations:
            raise ValueError("partition map needs at least one partition")
        self.locations = list(locations)
        self.num_partitions = len(self.locations)

    def constraint(self):
        return AbsoluteLocationConstraint(self.locations)

    def partition_of(self, vid, num_consumers=None):
        """The paper's default: hash partitioning on the vertex id.

        A partitioning connector passes along how many consumers it
        feeds; they are pinned by this map, so that is this count.
        """
        return hash(vid) % self.num_partitions

    def partitions_of_keyed(self, batch, num_consumers=None):
        """:meth:`partition_of` for every tuple of a batch led by the
        ``encode_key`` image of its vid: one decode for the whole batch,
        then the same ``hash()`` (so ``hash(-1) == -2`` and vids beyond
        2**61 land where the per-tuple call puts them)."""
        n = self.num_partitions
        return [hash(vid) % n for vid in INT64.loads_many(list(map(LEAD, batch)))]

    @classmethod
    def balanced(cls, node_ids, num_partitions, offset=0):
        """``num_partitions`` partitions round-robin over ``node_ids``.

        The partition *count* is the caller's (fixed for the lifetime of
        a run — the elasticity invariant), while the node list may be
        any size; ``offset`` rotates the assignment so concurrent runs
        on an over-provisioned cluster spread across different nodes.
        """
        nodes = list(node_ids)
        if not nodes:
            raise ValueError("partition map needs at least one node")
        start = int(offset) % len(nodes)
        return cls([nodes[(start + i) % len(nodes)] for i in range(num_partitions)])


class _SenderCombineAggregator(GroupAggregator):
    """Sender-side (stage one) combine: fold raw ``(vid, payload)``
    messages into states. Messages are grouped by their vid and a group
    is written under its :func:`encode_key` image — the one place a
    message's key is encoded, once per group, a batch of groups per
    ``INT64.dumps_many``. Folds go to the combiner's batch folds, a
    sorted batch or a hash-table chunk per call (items are grouped by
    their lead: ``key_fn`` is ``LEAD``); its per-message
    ``init``/``accumulate`` fill a HashSort table of variable-width
    states."""

    group_key = staticmethod(encode_key)
    finish_is_identity = True

    def __init__(self, combiner, bundle_serde):
        self.combiner = combiner
        self.bundle_serde = bundle_serde
        self.hash_fold = combiner.hash_fold

    def create(self):
        return self.combiner.init()

    def step(self, state, item):
        return self.combiner.accumulate(state, item[1])

    def fold_clustered(self, key_fn, items):
        vids, states = self.combiner.fold_sorted(items)
        return zip(INT64.dumps_many(vids), states)

    def name_keys(self, keys):
        return INT64.dumps_many(keys)

    def merge(self, left, right):
        return self.combiner.merge(left, right)

    def merge_rounds(self, rounds):
        return self.combiner.merge_rounds(rounds)

    def finish(self, key, state):
        return (key, state)

    def state_serde(self):
        return self.bundle_serde


class _ReceiverCombineAggregator(GroupAggregator):
    """Receiver-side (stage two) combine: merge partial states, a group's
    first partial being its state — through the combiner's batch merges,
    a sorted batch, a merged round of spilled runs or a hash-table chunk
    per call."""

    _EMPTY = object()

    def __init__(self, combiner, bundle_serde):
        self.combiner = combiner
        self.bundle_serde = bundle_serde
        self.hash_fold = combiner.hash_merge
        # A group always holds a partial when it closes, so an unchanged
        # ``Combiner.finish`` makes a bundle of the state as it is.
        self.finish_is_identity = type(combiner).finish is Combiner.finish

    def create(self):
        return self._EMPTY

    def step(self, state, item):
        partial = item[1]
        if state is self._EMPTY:
            return partial
        return self.combiner.merge(state, partial)

    def fold_clustered(self, key_fn, items):
        # Partials are grouped by their lead, the key they came under and
        # the key a group is written under (no ``group_key``). The rounds
        # are taken eagerly, so ``items`` can go before they are handed on.
        return chain.from_iterable(list(self.combiner.merge_rounds((items,))))

    def merge(self, left, right):
        if left is self._EMPTY:
            return right
        if right is self._EMPTY:
            return left
        return self.combiner.merge(left, right)

    def merge_rounds(self, rounds):
        # Spilled states are partials: none is ``_EMPTY``.
        return self.combiner.merge_rounds(rounds)

    def finish(self, key, state):
        bundle = self.combiner.finish(
            self.combiner.init() if state is self._EMPTY else state
        )
        return (key, bundle)

    def state_serde(self):
        return self.bundle_serde

    def state_size(self, state):
        if state is self._EMPTY:
            return 1
        return self.bundle_serde.sizeof(state)


class _VertexEdgeCountAggregator(ScalarAggregator):
    """Counts (vertices, edges) over loader tuples, each edge count read
    off the edge image (``edge_codec.count``, which checks it)."""

    def __init__(self, edge_codec):
        self.count = edge_codec.count

    def create(self):
        return (0, 0)

    def step(self, state, item):
        return self.step_many(state, [item])

    def step_many(self, state, items):
        vertices, edges = state
        return (vertices + len(items), edges + sum(map(self.count, map(_IMAGE, items))))

    def merge(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def finish(self, state):
        return state


class _MergeSameVidOperator(OperatorDescriptor):
    """Merges consecutive loader tuples that share a key (sorted input).

    Lets edge-list inputs (one ``(src, None, [edge])`` line each) load
    directly: after the per-partition sort, all of a vertex's edges are
    adjacent and fold into one row, their images joined in arrival order
    (``serde.join_lists``). The first non-null value wins; a key that
    occurs once passes as it is.
    """

    def __init__(self):
        super().__init__("MergeSameVid")

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        output = []
        for key, group in groupby(stream, LEAD):
            group = list(group)
            if len(group) == 1:
                output.append(group[0])
                continue
            values = [value for _key, value, _image in group if value is not None]
            output.append((
                key,
                values[0] if values else None,
                serde.join_lists([image for _key, _value, image in group]),
            ))
        return {self.OUT: output}


class _InitGSOperator(OperatorDescriptor):
    """Writes the initial GS tuple after loading (superstep 0)."""

    def __init__(self, relations):
        super().__init__("InitGS")
        self.relations = relations

    def run(self, ctx, partition, inputs):
        (stats,) = inputs
        num_vertices, num_edges = stats[0] if stats else (0, 0)
        gs = GlobalState(
            halt=False,
            aggregate=None,
            superstep=0,
            num_vertices=num_vertices,
            num_edges=num_edges,
        )
        self.relations.write_gs(gs)
        ctx.job.collected["gs"] = {0: [gs]}
        return {}


class _ReactivateOperator(OperatorDescriptor):
    """Sets every vertex active again (between pipelined jobs)."""

    LIVE = "live"

    def __init__(self, relations):
        super().__init__("Reactivate")
        self.relations = relations

    def run(self, ctx, partition, inputs):
        relations = self.relations
        index = get_index(ctx, relations.vertex, partition)
        live = []
        updates = []
        for key, value in index.scan():
            record = relations.decode_vertex(decode_key(key), value)
            if record.halt:
                record.halt = False
                updates.append((key, relations.encode_vertex(record)))
            live.append((key, VID_VALUE))
        for key, value in updates:
            index.insert(key, value)
        return {self.LIVE: live}


class PlanGenerator:
    """Builds every physical plan for one Pregelix job run. The codecs
    of the message path are compiled once, here, not per superstep."""

    def __init__(self, job, dfs, run_id, partition_map):
        self.job = job
        self.dfs = dfs
        self.run_id = run_id
        self.partition_map = partition_map
        self.relations = RunRelations(job, dfs, run_id)
        #: A stored bundle: what ``Msg`` and the receiver group-by hold.
        self.bundle_codec = job.bundle_codec()
        self._raw_msg_serde = serde.TupleSerde(serde.INT64, job.msg_serde)
        # Every hop is keyed by what a message leads with (LEAD): the vid of
        # a raw (vid, payload), always its encode_key image once combined.
        self._combined_serde = serde.TupleSerde(serde.KEY, self.bundle_codec)

    def moved_to(self, partition_map):
        """This run's generator over ``partition_map``: the relations and
        the compiled codecs shared."""
        moved = copy.copy(self)
        moved.partition_map = partition_map
        return moved

    # ------------------------------------------------------------------
    # shared pieces
    # ------------------------------------------------------------------
    def _raw_vertex_serde(self):
        """Serde for loader tuples ``(key image, value, edge image)``: the
        bytes it writes are those of ``(vid, value, edges)`` under
        ``(INT64, value, edge list)``."""
        return serde.TupleSerde(
            serde.KEY, serde.OptionalSerde(self.job.value_serde), serde.BYTES
        )

    def _pin(self, operator):
        operator.partition_constraint = self.partition_map.constraint()
        return operator

    def _vid_load(self, spec):
        """Add the operator that rebuilds ``Vid`` from sorted live rows."""
        relations = self.relations
        return spec.add(
            self._pin(IndexBulkLoadOperator(relations.vid, relations.new_vid))
        )

    # ------------------------------------------------------------------
    # loading plan
    # ------------------------------------------------------------------
    def loading_plan(self, input_path, parse_line):
        """Scan HDFS, hash-partition by vid, sort, bulk load the index.

        A loader tuple is the row's images, ``(key image, value, edge
        image)``, from the scan on (``graph_io.image_parser``): no edge is
        a Python object between the text and the B-tree."""
        job = self.job
        relations = self.relations
        spec = JobSpec("%s-load" % job.name)
        files = self.dfs.list_files(input_path)
        if not files:
            raise FileNotFoundError("no input files under %s" % input_path)
        num = self.partition_map.num_partitions
        splits = [files[p::num] for p in range(num)]

        scan = spec.add(HDFSScanOperator(
            self.dfs, splits, graph_io.image_parser(parse_line, relations.edge_codec)
        ))
        scan.partition_constraint = ChoiceLocationConstraint(
            HDFSScanOperator.locality_choices(self.dfs, splits),
            # Elastic clusters can retire every datanode a split was
            # local to; read remotely rather than fail the load.
            fallback=True,
        )

        raw_serde = self._raw_vertex_serde()
        sort = spec.add(
            self._pin(
                ExternalSortOperator(
                    sort_key_fn=LEAD,
                    tuple_serde=raw_serde,
                    memory_limit_bytes=job.groupby_memory_bytes,
                )
            )
        )
        spec.connect(
            MToNPartitioningConnector(
                tuple_serde=raw_serde,
                destinations_fn=self.partition_map.partitions_of_keyed,
            ),
            scan,
            sort,
        )

        merge = spec.add(self._pin(_MergeSameVidOperator()))
        spec.connect(OneToOneConnector(), sort, merge)

        to_vertex = spec.add(
            self._pin(BatchMapOperator(relations.loaded_vertices, name="EncodeVertex"))
        )
        spec.connect(OneToOneConnector(), merge, to_vertex)
        load = spec.add(
            self._pin(IndexBulkLoadOperator(relations.vertex, relations.new_vertex))
        )
        spec.connect(OneToOneConnector(), to_vertex, load)

        if job.needs_vid:
            to_vid = spec.add(
                self._pin(BatchMapOperator(relations.loaded_vids, name="EncodeVid"))
            )
            spec.connect(OneToOneConnector(), merge, to_vid)
            spec.connect(OneToOneConnector(), to_vid, self._vid_load(spec))

        from repro.hyracks.operators.aggregate import (
            GlobalAggregateOperator,
            LocalAggregateOperator,
        )

        counter = _VertexEdgeCountAggregator(relations.edge_codec)
        local_stats = spec.add(self._pin(LocalAggregateOperator(counter, name="LocalCount")))
        spec.connect(OneToOneConnector(), merge, local_stats)
        merge_stats = spec.add(GlobalAggregateOperator(counter, name="GlobalCount"))
        merge_stats.partition_constraint = CountConstraint(1)
        spec.connect(MToOneAggregatorConnector(), local_stats, merge_stats)
        init_gs = spec.add(_InitGSOperator(relations))
        init_gs.partition_constraint = CountConstraint(1)
        spec.connect(OneToOneConnector(), merge_stats, init_gs)
        return spec

    # ------------------------------------------------------------------
    # superstep plan
    # ------------------------------------------------------------------
    def superstep_plan(self, gs):
        """One Pregel superstep as a Hyracks job (Figures 3-5 + 7-8)."""
        job = self.job
        superstep = gs.superstep + 1
        spec = JobSpec("%s-superstep-%d" % (job.name, superstep))
        bundle_codec = self.bundle_codec

        relations = self.relations
        msg_scan = spec.add(self._pin(MsgScanOperator(relations, bundle_codec)))
        emit_live = job.needs_vid
        compute = ComputeOperator(relations, gs, emit_live=emit_live)

        if job.join_strategy == JoinStrategy.FULL_OUTER:
            join = spec.add(self._pin(IndexFullOuterJoinOperator(relations.vertex)))
            spec.connect(OneToOneConnector(), msg_scan, join)
        else:
            vid_scan = spec.add(self._pin(IndexScanOperator(relations.vid, name="VidScan")))
            choose = spec.add(self._pin(MergeChooseOperator()))
            spec.connect(OneToOneConnector(), msg_scan, choose)
            spec.connect(OneToOneConnector(), vid_scan, choose)
            join = spec.add(self._pin(IndexLeftOuterJoinOperator(relations.vertex)))
            spec.connect(OneToOneConnector(), choose, join)

        spec.add(self._pin(compute))
        spec.connect(OneToOneConnector(), join, compute)

        # --- message combination: two-stage group-by (Figure 7) --------
        receiver_out = self._message_groupby(spec, compute)
        msg_write = spec.add(self._pin(MsgWriteOperator(relations, bundle_codec)))
        spec.connect(OneToOneConnector(), receiver_out, msg_write)

        # --- Vid maintenance for the left outer join plan ---------------
        # (connected before mutations so the fresh Vid index exists when
        # the mutation operator patches it; the engine executes ready
        # operators in edge-attachment order).
        if emit_live:
            spec.connect(
                OneToOneConnector(), compute, self._vid_load(spec),
                port=ComputeOperator.LIVE,
            )

        # --- graph mutations (Figure 5) ---------------------------------
        mutation = spec.add(
            self._pin(VertexMutationOperator(relations, maintain_vid=emit_live))
        )
        spec.connect(
            MToNPartitioningConnector(
                key_fn=lambda m: m[1],
                partition_fn=self.partition_map.partition_of,
            ),
            compute,
            mutation,
            port=ComputeOperator.MUT,
        )

        # --- global state revision (Figure 4) ---------------------------
        local_gs = spec.add(self._pin(LocalGSOperator(job)))
        spec.connect(OneToOneConnector(), compute, local_gs, port=ComputeOperator.HALT)
        spec.connect(OneToOneConnector(), compute, local_gs, port=ComputeOperator.AGG)
        global_gs = spec.add(GlobalGSOperator(relations, gs))
        global_gs.partition_constraint = CountConstraint(1)
        spec.connect(MToOneAggregatorConnector(), local_gs, global_gs)
        spec.connect(
            MToOneAggregatorConnector(), compute, global_gs, port=ComputeOperator.STATS
        )
        spec.connect(
            MToOneAggregatorConnector(),
            mutation,
            global_gs,
            port=VertexMutationOperator.STATS,
        )
        return spec

    def _message_groupby(self, spec, compute):
        """Attach the selected two-stage group-by; return the last operator."""
        job = self.job
        combiner = job.combiner
        sender_agg = _SenderCombineAggregator(combiner, self.bundle_codec)
        receiver_agg = _ReceiverCombineAggregator(combiner, self.bundle_codec)
        raw_msg_serde = self._raw_msg_serde
        combined_serde = self._combined_serde
        memory = job.groupby_memory_bytes

        if job.groupby_strategy == GroupByStrategy.SORT:
            sender = SortGroupByOperator(
                key_fn=LEAD,
                aggregator=sender_agg,
                tuple_serde=raw_msg_serde,
                memory_limit_bytes=memory,
                name="SenderSortGroupBy",
            )
        else:
            sender = HashSortGroupByOperator(
                key_fn=LEAD,
                aggregator=sender_agg,
                memory_limit_bytes=memory,
                name="SenderHashSortGroupBy",
            )
        spec.add(self._pin(sender))
        spec.connect(OneToOneConnector(), compute, sender, port=ComputeOperator.MSG)

        destinations_fn = self.partition_map.partitions_of_keyed
        if job.connector_policy == ConnectorPolicy.MERGED:
            connector = MToNPartitioningMergingConnector(
                sort_key_fn=LEAD,
                tuple_serde=combined_serde,
                destinations_fn=destinations_fn,
            )
            receiver = PreclusteredGroupByOperator(
                key_fn=LEAD,
                aggregator=receiver_agg,
                name="ReceiverPreclusteredGroupBy",
            )
        else:
            connector = MToNPartitioningConnector(
                tuple_serde=combined_serde,
                destinations_fn=destinations_fn,
            )
            if job.groupby_strategy == GroupByStrategy.SORT:
                receiver = SortGroupByOperator(
                    key_fn=LEAD,
                    aggregator=receiver_agg,
                    tuple_serde=combined_serde,
                    memory_limit_bytes=memory,
                    name="ReceiverSortGroupBy",
                )
            else:
                receiver = HashSortGroupByOperator(
                    key_fn=LEAD,
                    aggregator=receiver_agg,
                    memory_limit_bytes=memory,
                    name="ReceiverHashSortGroupBy",
                )
        spec.add(self._pin(receiver))
        spec.connect(connector, sender, receiver)
        return receiver

    # ------------------------------------------------------------------
    # result writing
    # ------------------------------------------------------------------
    def dump_plan(self, output_path, format_record):
        """Scan the final Vertex relation and write it back to HDFS.

        A row is formatted from ``(vid, value, edge image)``
        (``graph_io.image_formatter``); only a custom ``format_record``
        gets a decoded :class:`~repro.pregelix.types.VertexRecord`."""
        job = self.job
        spec = JobSpec("%s-dump" % job.name)
        relations = self.relations
        format_tuple = graph_io.image_formatter(format_record, relations.edge_codec)
        decode = relations.stored_vertex
        if format_tuple is None:
            decode, format_tuple = relations.vertex_record, format_record
        scan = spec.add(self._pin(IndexScanOperator(relations.vertex)))
        to_record = spec.add(self._pin(MapOperator(decode, name="DecodeVertex")))
        spec.connect(OneToOneConnector(), scan, to_record)
        write = spec.add(
            self._pin(
                HDFSWriteOperator(
                    self.dfs,
                    path_for_partition=lambda p: "%s/part-%05d" % (output_path, p),
                    format_tuple=format_tuple,
                )
            )
        )
        spec.connect(OneToOneConnector(), to_record, write)
        return spec

    # ------------------------------------------------------------------
    # job pipelining support
    # ------------------------------------------------------------------
    def reactivation_plan(self):
        """Between pipelined jobs: reactivate all vertices, rebuild Vid."""
        spec = JobSpec("%s-reactivate" % self.job.name)
        reactivate = spec.add(self._pin(_ReactivateOperator(self.relations)))
        if self.job.needs_vid:
            spec.connect(
                OneToOneConnector(), reactivate, self._vid_load(spec),
                port=_ReactivateOperator.LIVE,
            )
        return spec

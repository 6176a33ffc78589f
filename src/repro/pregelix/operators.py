"""Pregelix-specific operators plugged into the Hyracks plans.

These are the boxes of the paper's Figures 3–5 and 8 that are not plain
relational operators: the ``compute`` UDF call (with the vertex-update
push-down), the ``Msg`` relation's scan/write against the partition's
sorted run, the mutation resolve-and-apply operator, and the
global-state update. Everything here is generated into job specs by
:mod:`repro.pregelix.physical`; where the relations live and what their
rows look like is asked of the run's
:class:`~repro.pregelix.relations.RunRelations`.
"""

import operator

from repro.common.serde import INT64, encode_key
from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.operators.index_ops import find_index, get_index, load_index
from repro.hyracks.storage.run_file import LEAD
from repro.pregelix.relations import VID_VALUE
from repro.pregelix.types import VertexRecord

# The bundle of a combined ``(key, bundle)``.
_BUNDLE = operator.itemgetter(1)

#: How many rows ``Compute`` writes back per ``Index.insert_sorted``. The
#: images pending meanwhile keep the ones they replace alive, so a chunk
#: stays small: at 256 or 512 rows a 5,000-vertex PageRank run peaked
#: 0.3–0.4 MB higher than writing each row at once, at 64 or less within
#: the run-to-run spread.
WRITE_BACK_CHUNK = 64


class MsgScanOperator(OperatorDescriptor):
    """Scans the partition's sorted ``Msg`` run from the last superstep.

    Emits ``(key_bytes, bundle)`` in vid order; empty when no messages
    were addressed to this partition (superstep 1, or quiesced regions).
    """

    def __init__(self, relations, bundle_codec, name=None):
        super().__init__(name or "MsgScan")
        self.relations = relations
        self.bundle_codec = bundle_codec

    def run(self, ctx, partition, inputs):
        run = find_index(ctx, self.relations.msg, partition)
        if run is None:
            return {self.OUT: []}
        return {self.OUT: list(run.scan_decoded(self.bundle_codec.loads_many))}


class MsgWriteOperator(OperatorDescriptor):
    """Writes combined messages as the next superstep's ``Msg`` partition.

    Input must be ``(key_bytes, bundle)`` sorted by key (all four group-by
    strategies guarantee it). The fresh run replaces the previous
    superstep's, whose file is deleted.
    """

    def __init__(self, relations, bundle_codec, name=None):
        super().__init__(name or "MsgWrite")
        self.relations = relations
        self.bundle_codec = bundle_codec

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        pairs = list(zip(
            map(LEAD, stream), self.bundle_codec.dumps_many(map(_BUNDLE, stream))
        ))
        load_index(
            ctx, self.relations.msg, partition, self.relations.new_msg, pairs
        )
        ctx.job.counters.add("combined_messages", len(pairs))
        return {}


class ComputeOperator(OperatorDescriptor):
    """The ``compute`` UDF call (Figures 3–5's central box).

    Consumes the join output ``(key, bundle, vertex_bytes)``, applies the
    activity filter ``V.halt = false || M.payload != NULL``, runs the
    user's vertex program and writes the vertex back to the ``Vertex``
    index — the paper pushes this update into the join as a
    mini-operator, and so does the index's positioned scope: a pass in
    key order works on the leaf it is at, one sorted chunk of rows per
    ``Index.insert_sorted``. A chunk's rows are decoded with one
    ``loads_many`` and encoded with one ``dumps_many``; a row is opened in
    pieces, written back spliced, and not written at all when it leaves
    as it came (:class:`~repro.pregelix.relations.OpenedRow`). The program
    is bound once per partition and appends to the partition's output
    lists. Everything else it produced leaves on six ports:

    * ``msg`` — outbound ``(dest_vid, payload)`` messages;
    * ``halt`` — the partition's global-halt contribution, one flag;
    * ``agg`` — global-aggregate contributions;
    * ``mut`` — requested graph mutations;
    * ``live`` — ``Vid`` rows of still-active vertices, which the
      left-outer-join plan bulk loads into the next ``Vid`` index;
    * ``stats`` — one ``(vertices_created, edge_delta)`` per clone.
    """

    MSG = "msg"
    HALT = "halt"
    AGG = "agg"
    MUT = "mut"
    LIVE = "live"
    STATS = "stats"

    def __init__(self, relations, gs, emit_live, name=None):
        super().__init__(name or "Compute(%s)" % relations.job.name)
        self.job = relations.job
        self.relations = relations
        self.gs = gs
        self.emit_live = emit_live

    def run(self, ctx, partition, inputs):
        (joined,) = inputs
        index = get_index(ctx, self.relations.vertex, partition)
        row = self.relations.opened_row()
        program = self.job.vertex_class()
        program.configure(self.job.config)
        expand = self.job.combiner.expand
        emit_live = self.emit_live
        gs = self.gs

        messages_out = []
        agg_out = []
        mut_out = []
        live_out = []
        # The program appends straight to the partition's lists, and the
        # opened row stays bound across vertices: per vertex, only what
        # ``_bind_vertex`` sets for a row is set again (below).
        program._bind_superstep(
            gs.superstep + 1, gs.aggregate, gs.num_vertices, gs.num_edges,
            messages_out, agg_out, mut_out,
        )
        program._bind_vertex(None, None, row)
        active = False
        created = 0
        edge_delta = 0
        processed = 0

        with index.positioned():
            for start in range(0, len(joined), WRITE_BACK_CHUNK):
                # Keys and stored rows are decoded a chunk at a time, as
                # rows are written back: nothing the size of the partition
                # is held beside ``joined``.
                chunk = joined[start:start + WRITE_BACK_CHUNK]
                stored = iter(row.decode(
                    [data for _key, _bundle, data in chunk if data is not None]
                ))
                keys = []
                rows = []
                for (key, bundle, vertex_bytes), vid in zip(
                    chunk, INT64.loads_many(list(map(LEAD, chunk)))
                ):
                    if vertex_bytes is None:
                        if bundle is None:
                            continue
                        # Left-outer case: a message addressed to a vertex
                        # that does not exist; create it with NULL fields
                        # (Figure 2).
                        value = row.create()
                        created += 1
                    else:
                        fields = next(stored)
                        if bundle is None and fields[0]:
                            continue  # the selection predicate prunes it
                        row.stored = fields
                        row.decoded = None
                        value = fields[1]
                    processed += 1
                    program._vid = vid
                    program.value = value
                    program._edges = None
                    program._halted = False
                    program.compute(
                        iter(expand(bundle)) if bundle is not None else iter(())
                    )
                    fields, delta = row.close(program)
                    if fields is not None:
                        keys.append(key)
                        rows.append(fields)
                    edge_delta += delta
                    if not program._halted:
                        active = True
                        if emit_live:
                            live_out.append((key, VID_VALUE))
                index.insert_sorted(row.encode(keys, rows))
        # The lists leave on the ports. A program caught in a reference
        # cycle (a multi-query vertex and its lanes are one) would keep
        # them alive until the cyclic collector ran.
        program._bind_superstep(None, None, None, None, None, None, None)

        ctx.job.counters.add("vertices_processed", processed)
        ctx.job.counters.add("messages_sent", len(messages_out))
        ctx.job.counters.add("join_tuples", len(joined))
        return {
            self.MSG: messages_out,
            # The partition halts when no vertex it processed stayed
            # active or sent a message (and when it processed none).
            self.HALT: [not active and not messages_out],
            self.AGG: agg_out,
            self.MUT: mut_out,
            self.LIVE: live_out,
            self.STATS: [(created, edge_delta)],
        }


class VertexMutationOperator(OperatorDescriptor):
    """Resolve and apply graph mutations (paper Figure 5, Section 5.3.3).

    Input is the partition's ``(op, vid, value, edges)`` mutation tuples
    (already routed by vid). They are grouped by vid at the receiver side
    only — ``resolve`` is not guaranteed distributive — resolved, and
    applied to the ``Vertex`` (and, for the left-outer-join plan, ``Vid``)
    index. Emits one ``(vertex_delta, edge_delta)`` stats tuple.
    """

    STATS = "stats"

    def __init__(self, relations, maintain_vid, name=None):
        super().__init__(name or "VertexMutation")
        self.job = relations.job
        self.relations = relations
        self.maintain_vid = maintain_vid

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        mutations = list(stream)
        if not mutations:
            return {self.STATS: [(0, 0, 0)]}
        relations = self.relations
        index = get_index(ctx, relations.vertex, partition)
        vid_index = (
            get_index(ctx, relations.vid, partition) if self.maintain_vid else None
        )
        by_vid = {}
        for mutation in mutations:
            by_vid.setdefault(mutation[1], []).append(mutation)

        vertex_delta = 0
        edge_delta = 0
        activations = 0
        for vid in sorted(by_vid):
            key = encode_key(vid)
            existing = index.lookup(key)
            outcome = self.job.resolver.resolve(vid, by_vid[vid], existing is not None)
            if outcome is None:
                continue
            if outcome[0] == "insert":
                _op, value, edges = outcome
                record = VertexRecord(vid=vid, halt=False, value=value, edges=edges or [])
                if existing is not None:
                    old = relations.decode_vertex(vid, existing)
                    edge_delta -= len(old.edges)
                else:
                    vertex_delta += 1
                index.insert(key, relations.encode_vertex(record))
                edge_delta += len(record.edges)
                activations += 1  # inserted vertices start active
                if vid_index is not None:
                    vid_index.insert(key, VID_VALUE)
            elif outcome[0] == "delete":
                if existing is not None:
                    old = relations.decode_vertex(vid, existing)
                    edge_delta -= len(old.edges)
                    vertex_delta -= 1
                    index.delete(key)
                if vid_index is not None:
                    vid_index.delete(key)
        ctx.job.counters.add("mutations_applied", len(by_vid))
        return {self.STATS: [(vertex_delta, edge_delta, activations)]}


class LocalGSOperator(OperatorDescriptor):
    """Stage one of the GS revision (Figure 4): per-partition partials.

    Inputs: the compute ``halt`` stream and ``agg`` stream. Output: one
    ``(halt_partial, agg_state_or_None)`` tuple.
    """

    def __init__(self, job, name=None):
        super().__init__(name or "LocalGS")
        self.job = job
        self.aggregators = job.aggregator_set()

    def run(self, ctx, partition, inputs):
        halts, contributions = inputs
        halt_partial = all(halts) if halts else True
        agg_state = None
        if self.aggregators:
            agg_state = self.aggregators.accumulate_all(
                self.aggregators.init_states(), contributions
            )
        return {self.OUT: [(halt_partial, agg_state)]}


class GlobalGSOperator(OperatorDescriptor):
    """Stage two of the GS revision: merge partials, write GS to HDFS.

    Inputs: the per-partition ``(halt, agg_state)`` partials, the compute
    ``stats`` tuples, and the mutation ``stats`` tuples. Runs as a single
    clone. The new GS tuple is written to its HDFS primary copy and also
    surfaced in the job result under ``"gs"`` for the driver.
    """

    def __init__(self, relations, previous_gs, name=None):
        super().__init__(name or "GlobalGS")
        self.relations = relations
        self.previous_gs = previous_gs
        self.aggregators = relations.job.aggregator_set()

    def run(self, ctx, partition, inputs):
        partials, compute_stats, mutation_stats = inputs
        halt = True
        agg_state = None
        for halt_partial, partial_state in partials:
            halt = halt and halt_partial
            if self.aggregators and partial_state is not None:
                agg_state = self.aggregators.merge(agg_state, partial_state)
        aggregate = self.aggregators.finish(agg_state) if self.aggregators else None
        vertex_delta = 0
        edge_delta = 0
        activations = 0
        for created, edges in compute_stats:
            vertex_delta += created
            edge_delta += edges
        for vertices, edges, activated in mutation_stats:
            vertex_delta += vertices
            edge_delta += edges
            activations += activated
        # Vertices inserted by mutations start active but have produced
        # no halt contribution this round; another superstep must run so
        # compute reaches them before the program can terminate.
        if activations:
            halt = False
        new_gs = self.previous_gs.advanced(
            halt=halt,
            aggregate=aggregate,
            num_vertices=self.previous_gs.num_vertices + vertex_delta,
            num_edges=self.previous_gs.num_edges + edge_delta,
        )
        self.relations.write_gs(new_gs)
        ctx.job.collected["gs"] = {0: [new_gs]}
        return {}

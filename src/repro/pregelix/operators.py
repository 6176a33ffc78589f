"""Pregelix-specific operators plugged into the Hyracks plans.

These are the boxes of the paper's Figures 3–5 and 8 that are not plain
relational operators: the ``compute`` UDF call (with the vertex-update
push-down), the ``Msg`` relation's scan/write against local sorted run
files, the mutation resolve-and-apply operator, and the global-state
update. Everything here is generated into job specs by
:mod:`repro.pregelix.physical`.
"""

from repro.common.serde import decode_key, encode_key
from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.operators.index_ops import get_index
from repro.hyracks.storage.run_file import RunFileReader, RunFileWriter
from repro.pregelix.types import VertexRecord, decode_vertex, encode_vertex

_SERVICE = "pregelix"


def runtime_state(ctx, run_id):
    """The per-node Pregelix runtime context for one job run."""
    return ctx.services.setdefault(_SERVICE, {}).setdefault(
        run_id, {"msg_files": {}}
    )


def clear_runtime_state(ctx_services, run_id):
    ctx_services.get(_SERVICE, {}).pop(run_id, None)


class MsgScanOperator(OperatorDescriptor):
    """Scans the partition's sorted ``Msg`` run file from the last superstep.

    Emits ``(key_bytes, bundle)`` in vid order; empty when no messages
    were addressed to this partition (superstep 1, or quiesced regions).
    """

    def __init__(self, run_id, bundle_codec, name=None):
        super().__init__(name or "MsgScan")
        self.run_id = run_id
        self.bundle_codec = bundle_codec

    def run(self, ctx, partition, inputs):
        state = runtime_state(ctx, self.run_id)
        path = state["msg_files"].get(partition)
        if path is None:
            return {self.OUT: []}
        output = [
            (key, self.bundle_codec.loads(data))
            for key, data in RunFileReader(path, ctx.files)
        ]
        return {self.OUT: output}


class MsgWriteOperator(OperatorDescriptor):
    """Writes combined messages as the next superstep's ``Msg`` partition.

    Input must be ``(key_bytes, bundle)`` sorted by key (all four group-by
    strategies guarantee it). The fresh run file replaces the previous
    superstep's file in the runtime context.
    """

    def __init__(self, run_id, superstep, bundle_codec, name=None):
        super().__init__(name or "MsgWrite")
        self.run_id = run_id
        self.superstep = superstep
        self.bundle_codec = bundle_codec

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        state = runtime_state(ctx, self.run_id)
        old_path = state["msg_files"].get(partition)
        path = ctx.files.create_temp_path(
            "msg-%s-p%d-s%d" % (self.run_id, partition, self.superstep)
        )
        count = 0
        with RunFileWriter(path, ctx.files) as writer:
            for key, bundle in stream:
                writer.append(key, self.bundle_codec.dumps(bundle))
                count += 1
        state["msg_files"][partition] = path
        if old_path:
            ctx.files.delete_path(old_path)
        ctx.job.counters.add("combined_messages", count)
        return {}


class ComputeOperator(OperatorDescriptor):
    """The ``compute`` UDF call (Figures 3–5's central box).

    Consumes the join output ``(key, bundle, vertex_bytes)``, applies the
    activity filter ``V.halt = false || M.payload != NULL``, runs the
    user's vertex program, and routes its five-way output:

    * vertex updates — applied directly to the ``Vertex`` index (the
      paper pushes this into the join as a mini-operator);
    * port ``msg`` — outbound ``(dest_vid, payload)`` messages;
    * port ``halt`` — per-vertex global-halt contributions;
    * port ``agg`` — global-aggregate contributions;
    * port ``mut`` — requested graph mutations;
    * port ``live`` — ``(key, b"")`` rows of still-active vertices, which
      the left-outer-join plan bulk loads into the next ``Vid`` index;
    * port ``stats`` — one ``(vertices_created, edge_delta)`` per clone.
    """

    MSG = "msg"
    HALT = "halt"
    AGG = "agg"
    MUT = "mut"
    LIVE = "live"
    STATS = "stats"

    def __init__(self, job, run_id, vertex_index, gs, emit_live, name=None):
        super().__init__(name or "Compute(%s)" % job.name)
        self.job = job
        self.run_id = run_id
        self.vertex_index = vertex_index
        self.gs = gs
        self.emit_live = emit_live
        self.vertex_codec = job.vertex_codec()

    def run(self, ctx, partition, inputs):
        (joined,) = inputs
        index = get_index(ctx, self.vertex_index, partition)
        program = self.job.vertex_class()
        program.configure(self.job.config)
        combiner = self.job.combiner
        superstep = self.gs.superstep + 1

        messages_out = []
        halt_out = []
        agg_out = []
        mut_out = []
        live_out = []
        created = 0
        edge_delta = 0
        processed = 0

        join_tuples = 0
        for key, bundle, vertex_bytes in joined:
            join_tuples += 1
            vid = decode_key(key)
            if vertex_bytes is None:
                if bundle is None:
                    continue
                # Left-outer case: a message addressed to a vertex that
                # does not exist; create it with NULL fields (Figure 2).
                record = VertexRecord(vid=vid)
                created += 1
            else:
                record = decode_vertex(self.vertex_codec, vid, vertex_bytes)
                if record.halt and bundle is None:
                    continue  # the selection predicate prunes it
            processed += 1
            incoming = iter(combiner.expand(bundle)) if bundle is not None else iter(())
            edges_before = len(record.edges)
            program._bind(
                vid,
                record.value,
                record.edges,
                superstep,
                self.gs.aggregate,
                self.gs.num_vertices,
                self.gs.num_edges,
            )
            program.compute(incoming)

            updated = VertexRecord(
                vid=vid,
                halt=program._halted,
                value=program._value,
                edges=program._edges,
            )
            index.insert(key, encode_vertex(self.vertex_codec, updated))
            edge_delta += len(updated.edges) - edges_before
            messages_out.extend(program._outbox)
            halt_out.append(program._halted and not program._outbox)
            agg_out.extend(program._agg_contribs)
            mut_out.extend(program._mutations)
            if self.emit_live and not program._halted:
                live_out.append((key, b""))

        ctx.job.counters.add("vertices_processed", processed)
        ctx.job.counters.add("messages_sent", len(messages_out))
        ctx.job.counters.add("join_tuples", join_tuples)
        return {
            self.MSG: messages_out,
            self.HALT: halt_out,
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

    def __init__(self, job, vertex_index, vid_index=None, name=None):
        super().__init__(name or "VertexMutation")
        self.job = job
        self.vertex_index = vertex_index
        self.vid_index = vid_index
        self.vertex_codec = job.vertex_codec()

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        mutations = list(stream)
        if not mutations:
            return {self.STATS: [(0, 0, 0)]}
        index = get_index(ctx, self.vertex_index, partition)
        vid_index = (
            get_index(ctx, self.vid_index, partition) if self.vid_index else None
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
                    old = decode_vertex(self.vertex_codec, vid, existing)
                    edge_delta -= len(old.edges)
                else:
                    vertex_delta += 1
                index.insert(key, encode_vertex(self.vertex_codec, record))
                edge_delta += len(record.edges)
                activations += 1  # inserted vertices start active
                if vid_index is not None:
                    vid_index.insert(key, b"")
            elif outcome[0] == "delete":
                if existing is not None:
                    old = decode_vertex(self.vertex_codec, vid, existing)
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

    def __init__(self, job, dfs, gs_path, previous_gs, name=None):
        super().__init__(name or "GlobalGS")
        self.job = job
        self.dfs = dfs
        self.gs_path = gs_path
        self.previous_gs = previous_gs
        self.aggregators = job.aggregator_set()

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
        from repro.pregelix.types import encode_global_state

        self.dfs.write(self.gs_path, encode_global_state(self.job.gs_codec(), new_gs))
        ctx.job.collected["gs"] = {0: [new_gs]}
        return {}

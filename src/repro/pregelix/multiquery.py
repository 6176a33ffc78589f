"""Multi-query superstep sharing: N point queries in one dataflow run.

Pregelix runs every job as its own dataflow plan — the right shape for
heavyweight analytics, but wasteful for many small *point queries*
(sssp/reachability/bfs from different sources) over the same resident
dataset: each pays the full per-superstep join/group-by/redistribution
overhead alone. Quegel (Yan et al., VLDB 2016) shows that evaluating
concurrent queries in *shared* supersteps amortizes those fixed costs.

:class:`MultiQueryProgram` wraps N compatible vertex programs (same
algorithm, same dataset, different per-query params) into one job:

- vertex state becomes a per-query *column vector* — one
  ``(halted, value)`` slot per lane;
- messages carry a query-id *lane* tag and are combined per-lane with
  the inner combiner (exact for order-independent combiners like
  min/max, which is why only point-query families are batchable);
- halting is per-query: a lane retires when every vertex in that lane
  has voted to halt and sent nothing; the run ends when all lanes are
  quiescent or ``max_supersteps`` hits.

Per-lane solo-equivalent superstep counts are recovered through an
anonymous :class:`LaneActivityAggregator` (each active lane contributes
its superstep number; the driver-side boundary hook max-merges the
per-superstep aggregates), so each lane's result document — including
its ``supersteps`` digest field — is bit-identical to the document a
solo run of that query would produce under the same (budget, group-by,
connector) bit-identity class.

Restrictions (enforced, not assumed): inner programs must not mutate
the graph or contribute to global aggregators, and the input graph must
be *closed* (no auto-created vertices mid-run) — otherwise per-lane
``num_vertices`` would diverge from the solo runs.
"""

import json
import struct

from repro.common import serde
from repro.common.errors import ReproError
from repro.graphs.io import format_vertex_record, parse_adjacency_line
from repro.pregelix.api import GlobalAggregator, Combiner, PregelixJob, Vertex
from repro.pregelix.types import VertexRecord

#: config keys the wrapper vertex reads (objects, never serialized).
CONTROL_KEY = "pregelix.multiquery.control"
INNER_CLASS_KEY = "pregelix.multiquery.innerVertexClass"
INNER_COMBINER_KEY = "pregelix.multiquery.innerCombiner"
LANE_CONFIGS_KEY = "pregelix.multiquery.laneConfigs"


class MultiQueryError(ReproError):
    """An inner program did something multi-query sharing cannot batch."""


class LaneControl:
    """Per-lane cancellation with superstep-boundary commit semantics.

    ``cancel(lane)`` may be called from any thread at any time (HTTP
    cancel, deadline policy); the cancellation only becomes *effective*
    at the next superstep boundary via :meth:`commit`, so every compute
    clone observes the same lane set for the whole superstep and the
    surviving lanes stay bit-identical to their solo runs.
    """

    def __init__(self, num_lanes):
        self.num_lanes = num_lanes
        self._pending = set()
        self._effective = frozenset()

    def cancel(self, lane):
        if not 0 <= lane < self.num_lanes:
            raise ValueError("lane %r out of range" % (lane,))
        self._pending.add(lane)

    def commit(self):
        """Promote pending cancellations; called only between supersteps."""
        if self._pending - self._effective:
            self._effective = frozenset(self._effective | self._pending)

    @property
    def cancelled(self):
        """The effective (superstep-stable) cancelled lane set."""
        return self._effective

    @property
    def pending(self):
        return frozenset(self._pending)


#: lane ids fit one byte: batches are small (``--batch-max`` defaults to
#: single digits), and MAX_LANES keeps the encodings honest.
MAX_LANES = 255

_U32 = struct.Struct(">I")


class LaneVectorSerde(serde.Serde):
    """The per-query column vector: a list of ``(halted, value)`` slots.

    Packed by hand rather than composed from ``ListSerde`` +
    ``TupleSerde`` + ``OptionalSerde``: the vector is rewritten for
    every vertex every superstep, and generic framing would cost ~18
    bytes per lane against the ~9 the data needs. Layout: a count byte,
    then per lane a flag byte (bit 0 halted, bit 1 value present)
    followed, when present, by a length-prefixed inner value.
    """

    def __init__(self, inner_value_serde):
        self.inner = inner_value_serde

    def dumps(self, value):
        parts = [bytes((len(value),))]
        for halted, inner_value in value:
            flag = (1 if halted else 0) | (0 if inner_value is None else 2)
            parts.append(bytes((flag,)))
            if inner_value is not None:
                encoded = self.inner.dumps(inner_value)
                parts.append(_U32.pack(len(encoded)))
                parts.append(encoded)
        return b"".join(parts)

    def loads(self, data):
        count = data[0]
        offset = 1
        vector = []
        for _ in range(count):
            flag = data[offset]
            offset += 1
            inner_value = None
            if flag & 2:
                (length,) = _U32.unpack_from(data, offset)
                offset += 4
                inner_value = self.inner.loads(data[offset:offset + length])
                offset += length
            vector.append((bool(flag & 1), inner_value))
        return vector

    def sizeof(self, value):
        total = 1
        for _, inner_value in value:
            total += 1
            if inner_value is not None:
                total += 4 + self.inner.sizeof(inner_value)
        return total


class LanePairSerde(serde.Serde):
    """``(lane, payload)`` messages: one tag byte + the raw payload.

    Messages dominate a point query's network bytes; wrapping them in a
    ``TupleSerde(INT64, payload)`` would add 16 bytes of framing per
    message — tripling sssp's 8-byte messages and erasing the batching
    win the bench gate guards. The tag byte costs 1.
    """

    def __init__(self, payload_serde):
        self.payload = payload_serde

    def dumps(self, value):
        lane, payload = value
        return bytes((lane,)) + self.payload.dumps(payload)

    def loads(self, data):
        return (data[0], self.payload.loads(data[1:]))

    def sizeof(self, value):
        return 1 + self.payload.sizeof(value[1])


class LaneMapSerde(serde.Serde):
    """``{lane: value}`` dicts as sorted, compactly-framed pairs.

    Layout: a count byte, then per entry a lane byte and a
    length-prefixed value. Sorting makes the encoding canonical (dict
    insertion order must not leak into checkpoint or spill bytes).
    """

    def __init__(self, value_serde):
        self.value_serde = value_serde

    def dumps(self, value):
        parts = [bytes((len(value),))]
        for lane in sorted(value):
            encoded = self.value_serde.dumps(value[lane])
            parts.append(bytes((lane,)))
            parts.append(_U32.pack(len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    def loads(self, data):
        count = data[0]
        offset = 1
        entries = {}
        for _ in range(count):
            lane = data[offset]
            offset += 1
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            entries[lane] = self.value_serde.loads(data[offset:offset + length])
            offset += length
        return entries

    def sizeof(self, value):
        total = 1
        for inner_value in value.values():
            total += 5 + self.value_serde.sizeof(inner_value)
        return total


class MultiQueryCombiner(Combiner):
    """Applies the inner combiner independently within each lane.

    Bundles are ``{lane: inner_bundle}`` dicts; ``expand`` hands the
    whole dict to the wrapper vertex as a single message so it can route
    each lane's bundle to that lane's inner program.
    """

    def __init__(self, inner, inner_msg_serde):
        self.inner = inner
        self.inner_msg_serde = inner_msg_serde
        # Every superstep plan asks for bundle_serde() (once, for both
        # group-bys and the Msg codec); build the serde once per combiner.
        self._bundle_serde = LaneMapSerde(
            self.inner.bundle_serde(self.inner_msg_serde)
        )

    def init(self):
        return {}

    def accumulate(self, state, payload):
        lane, inner_payload = payload
        previous = state.get(lane)
        if previous is None and lane not in state:
            previous = self.inner.init()
        state[lane] = self.inner.accumulate(previous, inner_payload)
        return state

    def merge(self, left, right):
        for lane, inner_state in right.items():
            if lane in left:
                left[lane] = self.inner.merge(left[lane], inner_state)
            else:
                left[lane] = inner_state
        return left

    def finish(self, state):
        return {lane: self.inner.finish(s) for lane, s in state.items()}

    def expand(self, bundle):
        return [bundle]

    def bundle_serde(self, msg_serde):
        return self._bundle_serde


class LaneActivityAggregator(GlobalAggregator):
    """Tracks, per lane, the highest superstep with pending work.

    The wrapper vertex contributes ``(lane, superstep)`` whenever a lane
    either sent messages or left a vertex unhalted — exactly the two
    conditions under which a solo run of that lane would execute another
    superstep. A lane's solo superstep count is then
    ``min(last_active + 1, total)``.
    """

    def init(self):
        return {}

    def accumulate(self, state, contribution):
        lane, superstep = contribution
        if superstep > state.get(lane, 0):
            state[lane] = superstep
        return state

    def merge(self, left, right):
        for lane, superstep in right.items():
            if superstep > left.get(lane, 0):
                left[lane] = superstep
        return left

    def value_serde(self):
        return LaneMapSerde(serde.INT64)


class MultiQueryVertex(Vertex):
    """The wrapper program: one compute call drives all live lanes.

    Everything lane-specific arrives via the job config (inner vertex
    class, per-lane config dicts, the inner combiner for bundle
    expansion, and the shared :class:`LaneControl`), so this single
    class serves any batch.
    """

    def configure(self, config):
        self._control = config[CONTROL_KEY]
        self._inner_combiner = config[INNER_COMBINER_KEY]
        inner_class = config[INNER_CLASS_KEY]
        self._lanes = []
        for lane_config in config[LANE_CONFIGS_KEY]:
            program = inner_class()
            program.configure(lane_config)
            self._lanes.append(program)

    def _lane_edges(self):
        """A lane's own copy of the edge list the lanes share, made when
        (and if) the lane reads its edges."""
        return self.edges.copy()

    def compute(self, messages):
        lane_bundles = None
        for bundle in messages:
            lane_bundles = bundle
            break
        if lane_bundles is None:
            lane_bundles = {}
        vector = self.value
        if vector is None:
            if self.superstep > 1:
                raise MultiQueryError(
                    "vertex %d auto-created at superstep %d: multi-query "
                    "batches require a closed graph (per-lane num_vertices "
                    "would diverge from the solo runs)"
                    % (self.vertex_id, self.superstep)
                )
            vector = [(False, None)] * len(self._lanes)
        cancelled = self._control.cancelled
        new_vector = []
        for lane, (halted, value) in enumerate(vector):
            if lane in cancelled:
                new_vector.append((True, value))
                continue
            has_messages = lane in lane_bundles
            if self.superstep > 1 and halted and not has_messages:
                new_vector.append((halted, value))
                continue
            program = self._lanes[lane]
            if has_messages:
                incoming = self._inner_combiner.expand(lane_bundles[lane])
            else:
                incoming = ()
            program._bind(
                self.vertex_id, value, self._lane_edges, self.superstep,
                None, self.num_vertices, self.num_edges,
            )
            program.compute(iter(incoming))
            if program._mutations:
                raise MultiQueryError(
                    "lane %d requested a graph mutation at vertex %d: "
                    "mutating programs are not batchable" % (lane, self.vertex_id)
                )
            if program._agg_contribs:
                raise MultiQueryError(
                    "lane %d contributed to a global aggregator: aggregating "
                    "programs are not batchable" % (lane,)
                )
            if program._edges is not None and program._edges != self.edges:
                raise MultiQueryError(
                    "lane %d mutated the edge list at vertex %d: edges are "
                    "shared across lanes" % (lane, self.vertex_id)
                )
            for target, payload in program._outbox:
                self.send_message(target, (lane, payload))
            if program._outbox or not program._halted:
                self.aggregate((lane, self.superstep))
            new_vector.append((program._halted, program.value))
        self.value = new_vector
        if all(halted for halted, _ in new_vector):
            self.vote_to_halt()


class MultiQueryProgram:
    """Builds and post-processes one batched run of N point queries.

    :param module: the algorithm module (``repro.algorithms.sssp`` etc.)
        exposing ``build_job(**params)`` and optionally ``parse_line`` /
        ``format_record``.
    :param param_sets: one ``build_job`` kwargs dict per lane (duplicates
        allowed — two identical queries are two lanes).
    :param template_job: an already-built (and plan-resolved) inner job
        whose physical plan hints, limits, and serdes the wrapped job
        inherits. Defaults to ``module.build_job(**param_sets[0])``.
    """

    def __init__(self, module, param_sets, template_job=None):
        if not param_sets:
            raise MultiQueryError("a multi-query batch needs at least one lane")
        if len(param_sets) > MAX_LANES:
            raise MultiQueryError(
                "a multi-query batch carries at most %d lanes (got %d)"
                % (MAX_LANES, len(param_sets))
            )
        self.module = module
        self.param_sets = [dict(p) for p in param_sets]
        self.num_lanes = len(self.param_sets)
        template = template_job or module.build_job(**self.param_sets[0])
        if template.aggregator is not None:
            raise MultiQueryError(
                "algorithm %r registers a global aggregator and cannot be "
                "batched" % template.name
            )
        self.template = template
        self.control = LaneControl(self.num_lanes)
        #: driver-side accumulation of per-lane last-active supersteps
        #: (the GS aggregate is per-superstep; the boundary hook
        #: max-merges it across supersteps here).
        self.activity = {}
        self._inner_parse = getattr(module, "parse_line", None) or parse_adjacency_line
        self._inner_format = getattr(module, "format_record", None) or format_vertex_record
        lane_configs = [module.build_job(**params).config for params in self.param_sets]
        config = {
            CONTROL_KEY: self.control,
            INNER_CLASS_KEY: template.vertex_class,
            INNER_COMBINER_KEY: template.combiner,
            LANE_CONFIGS_KEY: lane_configs,
        }
        self.job = PregelixJob(
            name="multi-%s-x%d" % (template.name, self.num_lanes),
            vertex_class=MultiQueryVertex,
            value_serde=LaneVectorSerde(template.value_serde),
            edge_serde=template.edge_serde,
            msg_serde=LanePairSerde(template.msg_serde),
            combiner=MultiQueryCombiner(template.combiner, template.msg_serde),
            aggregator=LaneActivityAggregator(),
            join_strategy=template.join_strategy,
            groupby_strategy=template.groupby_strategy,
            connector_policy=template.connector_policy,
            vertex_storage=template.vertex_storage,
            groupby_memory_bytes=template.groupby_memory_bytes,
            checkpoint_interval=template.checkpoint_interval,
            checkpoint_retain=template.checkpoint_retain,
            max_supersteps=template.max_supersteps,
            config=config,
        )

    # ------------------------------------------------------------------
    # driver-facing text formats
    # ------------------------------------------------------------------
    def parse_line(self, line):
        """Wrapped input parser: replicate the value into every lane."""
        vid, value, edges = self._inner_parse(line)
        return vid, [(False, value)] * self.num_lanes, edges

    def format_record(self, record):
        """Wrapped output formatter: a JSON line carrying all lanes.

        JSON round-trips ints, floats (shortest-repr), ``Infinity`` and
        ``null`` exactly, so :meth:`lane_results` can re-render each
        lane through the inner algorithm's own formatter byte-for-byte.
        """
        vector = record.value
        if vector is None:
            vector = [(False, None)] * self.num_lanes
        return json.dumps(
            {
                "vid": record.vid,
                "halt": record.halt,
                "lanes": [[halted, value] for halted, value in vector],
                "edges": [[e[0], e[1]] for e in record.edges],
            },
            sort_keys=True,
        )

    # ------------------------------------------------------------------
    # boundary hook
    # ------------------------------------------------------------------
    def boundary_hook(self, chain=None):
        """The run's driver boundary hook: lane bookkeeping + chaining.

        Max-merges the superstep's lane-activity aggregate into
        :attr:`activity`, invokes ``chain(superstep)`` (the serve
        layer's deadline/cancel/crash hook), then commits pending lane
        cancellations so the next superstep sees a stable cancel set.
        """

        def hook(superstep, gs):
            aggregate = gs.aggregate or {}
            for lane, last in aggregate.items():
                if last > self.activity.get(lane, 0):
                    self.activity[lane] = last
            if chain is not None:
                chain(superstep)
            self.control.commit()

        return hook

    # ------------------------------------------------------------------
    # per-lane fan-out
    # ------------------------------------------------------------------
    def lane_supersteps(self, outcome):
        """Per-lane solo-equivalent superstep counts.

        A solo run ends at the first superstep with no pending work, so
        its count is ``last_active + 1`` (floor 1: superstep 1 always
        executes), capped by the batched run's own superstep count
        (which embeds ``max_supersteps``). The final batched superstep
        is never active, so the boundary hook — which cannot observe
        the final superstep's aggregate — still sees every contribution
        that matters.
        """
        total = max(1, outcome.gs.superstep)
        return [
            min(max(1, self.activity.get(lane, 0) + 1), total)
            for lane in range(self.num_lanes)
        ]

    def lane_results(self, lines):
        """Split batched output lines into per-lane solo-format lines.

        Returns a list (one entry per lane) of line lists, each rendered
        with the inner algorithm's formatter — byte-identical to what a
        solo run of that lane would have dumped.
        """
        per_lane = [[] for _ in range(self.num_lanes)]
        for line in lines:
            if not line.strip():
                continue
            obj = json.loads(line)
            if len(obj["lanes"]) != self.num_lanes:
                raise MultiQueryError(
                    "vertex %d carries %d lanes, expected %d"
                    % (obj["vid"], len(obj["lanes"]), self.num_lanes)
                )
            edges = [(e[0], e[1]) for e in obj["edges"]]
            for lane, (halted, value) in enumerate(obj["lanes"]):
                record = VertexRecord(
                    vid=obj["vid"], halt=halted, value=value, edges=edges
                )
                per_lane[lane].append(self._inner_format(record))
        return per_lane

    def lane_document(self, lane, algorithm, outcome, lane_lines,
                      lane_supersteps=None):
        """A result document for one lane, digest-compatible with solo.

        Mirrors :func:`repro.serve.api.result_document`'s digest fields
        — ``algorithm``, ``supersteps``, ``num_vertices``, ``num_edges``,
        ``aggregate``, ``results`` — while the non-digest fields record
        the shared batched run.
        """
        if lane_supersteps is None:
            lane_supersteps = self.lane_supersteps(outcome)[lane]
        return {
            "algorithm": algorithm,
            "run_id": "%s/lane-%d" % (outcome.run_id, lane),
            "plan": self.template.plan_signature(),
            "supersteps": lane_supersteps,
            "num_vertices": outcome.gs.num_vertices,
            "num_edges": outcome.gs.num_edges,
            "aggregate": None,
            "total_seconds": round(outcome.total_seconds, 6),
            "load_seconds": round(outcome.load_seconds, 6),
            "dump_seconds": round(outcome.dump_seconds, 6),
            "recoveries": outcome.recoveries,
            "batch": {
                "run_id": outcome.run_id,
                "lane": lane,
                "lanes": self.num_lanes,
                "batched_supersteps": outcome.gs.superstep,
            },
            "results": list(lane_lines),
        }

    def run(self, driver, input_path, output_path, run_id=None,
            boundary_chain=None, scale_at=None):
        """Execute the batch and return ``(outcome, per-lane lines)``."""
        outcome = driver.run(
            self.job,
            input_path,
            output_path,
            parse_line=self.parse_line,
            format_record=self.format_record,
            run_id=run_id,
            boundary_hook=self.boundary_hook(boundary_chain),
            scale_at=scale_at,
        )
        return outcome, self.lane_results(driver.read_output(output_path))

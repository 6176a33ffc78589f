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
  ``(halted, value)`` slot per lane, a fixed-width tuple;
- messages carry a one-byte query-id *lane* tag and are combined per
  lane with the inner combiner into a fixed-width tuple of per-lane
  bundles (exact for order-independent combiners like min/max, which is
  why only point-query families are batchable) — so the group-bys fold
  lanes through their batch paths, as they fold a solo run's messages;
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
``num_vertices`` would diverge from the solo runs. At construction a
batch refuses an inner value, message or bundle codec that is not
fixed-width, an inner combiner with a ``finish`` of its own, and an
inner vertex class that overrides how it sends messages.
"""

import json
import re
from itertools import compress, repeat
from operator import attrgetter, is_not, itemgetter

from repro.common import serde
from repro.common.errors import ReproError
from repro.graphs.io import (
    format_vertex_record,
    format_vertex_values,
    parse_adjacency_line,
)
from repro.hyracks.operators.groupby import FoldSource, batch_folds
from repro.pregelix.api import (
    Combiner,
    GlobalAggregator,
    PregelixJob,
    Vertex,
    fold_source_of,
)
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


def _fixed(codec, what):
    """``codec``, which lanes pack into one fixed-width struct."""
    if codec.fixed_size is None:
        raise MultiQueryError(
            "the inner %s codec %r is not fixed-width: lanes are packed as "
            "fixed-width vectors" % (what, codec)
        )
    return codec


def _optional(codec, what):
    """``OptionalSerde(codec)``, fixed-width or refused: a NULL pads to
    full width only over a ``layout_fixed`` codec."""
    return _fixed(serde.OptionalSerde(_fixed(codec, what)), what)


def lane_column_serde(value_serde, num_lanes):
    """The per-query column vector: ``(halted, value)`` slots, one per
    lane, each a flag byte and the inner value's NULL-padded image — one
    struct for the whole vertex value, decoded to a tuple."""
    slot = serde.FixedPairSerde(serde.BOOL, _optional(value_serde, "value"))
    return serde.ArraySerde(slot, num_lanes)


def lane_message_serde(msg_serde):
    """``(lane, payload)`` messages: one tag byte + the payload's image.
    Messages dominate a point query's network bytes; the tag costs 1."""
    return serde.FixedPairSerde(serde.UINT8, _fixed(msg_serde, "message"))


def _renamed(fragment, **names):
    """The expression ``fragment`` with each of ``state`` and ``item``
    replaced by the source ``names`` gives for it."""
    def rename(match):
        return names[match.group(0)]

    return "(%s)" % re.sub(r"\b(state|item)\b", rename, fragment)


def _lane_fold_source(inner, num_lanes):
    """The lane combiner's :class:`FoldSource`: ``inner``'s fragments
    applied to one slot of a ``num_lanes`` tuple, written inline. A
    message ``item`` is ``(lane, payload)``; the slot it folds into is
    ``state[item[0]]``, ``None`` until the lane's first message. A state
    is rebuilt around the one slot that changes (tuples: no fold mutates
    a state another holds); a partial merges slot by slot, unrolled."""
    source = fold_source_of(type(inner))
    opened = _renamed(source.open, item="item[1]")
    when, value = source.step
    stepped = _renamed(value, state="lane_state", item="item[1]")

    def folded(empty):
        """The slot's new inner state, ``empty`` the test that the lane
        has no message yet (whose message then opens it)."""
        if stepped == opened:
            return opened
        return "(%s if %s else %s)" % (opened, empty, stepped)

    rebuilt = "state[:%s] + (%s,) + state[lane + 1:]"
    if when is None:
        empty = "(lane_state := state[lane]) is None"
        step = (None, rebuilt % ("(lane := item[0])", folded(empty)))
    else:
        step = (
            "(lane_state := state[(lane := item[0])]) is None or %s"
            % _renamed(when, state="lane_state", item="item[1]"),
            rebuilt % ("lane", folded("lane_state is None")),
        )
    when, value = source.merge
    slots = []
    for lane in range(num_lanes):
        mine, theirs = "state[%d]" % lane, "item[%d]" % lane
        merged = _renamed(value, state=mine, item=theirs)
        if when is not None:
            merged = "(%s if %s else %s)" % (
                merged, _renamed(when, state=mine, item=theirs), mine
            )
        slots.append("(%s if %s is None else %s if %s is None else %s), " % (
            mine, theirs, theirs, mine, merged
        ))
    return FoldSource(
        "(None,) * (lane := item[0]) + (%s,) + (None,) * (%d - lane)" % (opened, num_lanes - 1),
        step,
        (None, "(%s)" % "".join(slots)),
    )


class MultiQueryCombiner(Combiner):
    """Applies the inner combiner independently within each lane.

    A state (and bundle) is a tuple of ``num_lanes`` slots, each ``None``
    or that lane's inner bundle: fixed-width (:meth:`bundle_serde`), so
    both group-bys take their batch paths — HashSort ``hash_fold`` /
    ``hash_merge``, sort ``fold_sorted`` / ``merge_rounds`` — and they
    fold the inner combiner's own fragments inline, with no call per
    message (:func:`_lane_fold_source`). ``expand`` hands the whole tuple
    to the wrapper vertex as a single message so it can route each lane's
    bundle to that lane's inner program. A lane's bundle is its inner
    state: an inner combiner with a ``finish`` of its own is refused.
    """

    def __init__(self, inner, inner_msg_serde, num_lanes):
        if type(inner).finish is not Combiner.finish:
            raise MultiQueryError(
                "combiner %r finishes its states: a lane's bundle is its "
                "inner state" % type(inner).__name__
            )
        self.inner = inner
        self.num_lanes = num_lanes
        self._empty = (None,) * num_lanes
        # Every superstep plan asks for bundle_serde() (once, for both
        # group-bys and the Msg codec); build the serde once per combiner.
        self._bundle_serde = serde.ArraySerde(
            _optional(inner.bundle_serde(inner_msg_serde), "bundle"), num_lanes
        )
        # The inline folds call the inner combiner, where a fragment does.
        vars(self).update(batch_folds(
            _lane_fold_source(inner, num_lanes),
            inner.init, inner.accumulate, inner.merge,
        ))

    def init(self):
        return self._empty

    def accumulate(self, state, payload):
        lane, inner_payload = payload
        inner = self.inner
        previous = state[lane]
        if previous is None:
            previous = inner.init()
        folded = inner.accumulate(previous, inner_payload)
        return state[:lane] + (folded,) + state[lane + 1:]

    def merge(self, left, right):
        merge = self.inner.merge
        return tuple(
            mine if theirs is None else theirs if mine is None else merge(mine, theirs)
            for mine, theirs in zip(left, right)
        )

    def expand(self, bundle):
        return [bundle]

    def bundle_serde(self, msg_serde):
        return self._bundle_serde


class LaneActivityAggregator(GlobalAggregator):
    """Tracks, per lane, the highest superstep with pending work.

    The wrapper vertex contributes ``(lane, superstep)`` once per
    partition for every lane that either sent messages or left a vertex
    unhalted there — exactly the two conditions under which a solo run of
    that lane would execute another superstep. The value holds
    ``num_lanes`` supersteps (0: never active); a lane's solo superstep
    count is then ``min(last_active + 1, total)``.
    """

    def __init__(self, num_lanes):
        self.num_lanes = num_lanes

    def init(self):
        return [0] * self.num_lanes

    def accumulate(self, state, contribution):
        lane, superstep = contribution
        if superstep > state[lane]:
            state[lane] = superstep
        return state

    def merge(self, left, right):
        return list(map(max, left, right))

    def value_serde(self):
        return serde.ArraySerde(serde.INT64, self.num_lanes)


#: The messages of a lane with none: an exhausted iterator stays so.
_NO_MESSAGES = iter(())

#: The halted flag and the value of a ``(halted, value)`` slot.
_HALTED, _LANE_VALUE = itemgetter(0), itemgetter(1)

_TARGET = attrgetter("target")


def _lane_senders(program, lane, outbox):
    """``send_message`` and ``send_message_to_all_edges`` for the lane
    program ``program``: ``Vertex``'s two, appending to ``outbox`` (the
    partition's) with every payload tagged ``(lane, payload)``."""
    append, extend = outbox.append, outbox.extend

    def send_message(target, payload):
        append((target, (lane, payload)))

    def send_message_to_all_edges(payload):
        if program._edges is None and program._row is not None:
            targets = program._row.edge_targets()
        else:
            targets = map(_TARGET, program.edges)
        extend(zip(targets, repeat((lane, payload))))

    return send_message, send_message_to_all_edges


class MultiQueryVertex(Vertex):
    """The wrapper program: one compute call drives all live lanes.

    Everything lane-specific arrives via the job config (inner vertex
    class, per-lane config dicts, the inner combiner for bundle
    expansion, and the shared :class:`LaneControl`), so this single
    class serves any batch.

    The lane programs are bound with the wrapper — once per partition
    under ``ComputeOperator`` — and to the wrapper's edges: the stored
    row itself when the wrapper is bound to one (a lane reads, counts and
    sends to its edges off the row, as a solo program does), else a copy
    of the wrapper's list. A lane sends through its own
    ``send_message``/``send_message_to_all_edges`` (:func:`_lane_senders`),
    straight into the wrapper's outbox, tagged; its mutations and
    aggregates go to lists it shares with the other lanes, which stay
    empty or refuse the batch. Per vertex a lane is moved to it as
    ``ComputeOperator`` moves the wrapper, and its activity is
    contributed the first time it is active in the partition. Unbinding
    the wrapper unbinds the lanes, which drops their senders and the
    cycle through :meth:`_lane_edges`, with whatever the partition made.
    """

    #: The lane programs (:meth:`configure` makes them).
    _lanes = ()

    def configure(self, config):
        self._control = config[CONTROL_KEY]
        inner_combiner = config[INNER_COMBINER_KEY]
        # ``None``: a bundle is the lane's one message (``Combiner.expand``).
        self._expand = None
        if type(inner_combiner).expand is not Combiner.expand:
            self._expand = inner_combiner.expand
        inner_class = config[INNER_CLASS_KEY]
        self._lanes = []
        for lane_config in config[LANE_CONFIGS_KEY]:
            program = inner_class()
            program.configure(lane_config)
            self._lanes.append(program)
        self._fresh = ((False, None),) * len(self._lanes)
        self._no_messages = (None,) * len(self._lanes)
        #: The lanes not yet active in this partition.
        self._unreported = None
        #: What the lanes requested or contributed: refused when not empty.
        self._lane_mutations = self._lane_aggregates = None

    def _bind_superstep(self, superstep, global_aggregate, num_vertices,
                        num_edges, outbox, agg_contribs, mutations):
        super()._bind_superstep(
            superstep, global_aggregate, num_vertices, num_edges, outbox,
            agg_contribs, mutations,
        )
        if outbox is None:
            for program in self._lanes:
                program._bind_superstep(None, None, None, None, None, None, None)
                program._bind_vertex(None, None, ())
                program._read_edges = None
                vars(program).pop("send_message", None)
                vars(program).pop("send_message_to_all_edges", None)
            self._unreported = self._lane_mutations = self._lane_aggregates = None
            return
        self._lane_mutations, self._lane_aggregates = [], []
        for lane, program in enumerate(self._lanes):
            program._bind_superstep(
                superstep, None, num_vertices, num_edges, None,
                self._lane_aggregates, self._lane_mutations,
            )
            program.send_message, program.send_message_to_all_edges = (
                _lane_senders(program, lane, outbox)
            )
        self._unreported = set(range(len(self._lanes)))

    def _bind_vertex(self, vid, value, edges):
        super()._bind_vertex(vid, value, edges)
        shared = self._lane_edges if self._row is None else self._row
        for program in self._lanes:
            program._bind_vertex(vid, None, shared)

    def _lane_edges(self):
        """A lane's own copy of the edge list the lanes share, made when
        (and if) the lane reads its edges."""
        return self.edges.copy()

    def _edited(self, lane_edges):
        """Whether a lane's edge list differs from the one the lanes share:
        the stored row's edges as decoded for the lane that read them
        (which leaves the wrapper's own list, and its row's splice check,
        untouched), else the wrapper's."""
        row = self._row
        shared = None if row is None else row.decoded
        if shared is None:
            shared = self.edges
        return lane_edges != shared

    def _refuse(self, lane, program):
        """Raise for what ``program`` did at this vertex that lanes cannot
        share: a mutation, an aggregate or an edit of the edge list."""
        if program._mutations:
            raise MultiQueryError(
                "lane %d requested a graph mutation at vertex %d: "
                "mutating programs are not batchable" % (lane, self._vid)
            )
        if program._agg_contribs:
            raise MultiQueryError(
                "lane %d contributed to a global aggregator: aggregating "
                "programs are not batchable" % (lane,)
            )
        raise MultiQueryError(
            "lane %d mutated the edge list at vertex %d: edges are "
            "shared across lanes" % (lane, self._vid)
        )

    def compute(self, messages):
        bundle = next(messages, None)
        vector = self.value
        superstep = self._superstep
        new_vector = None  # the vector copied, once a lane's slot changes
        if vector is None:
            if superstep > 1:
                raise MultiQueryError(
                    "vertex %d auto-created at superstep %d: multi-query "
                    "batches require a closed graph (per-lane num_vertices "
                    "would diverge from the solo runs)"
                    % (self._vid, superstep)
                )
            vector = self._fresh
            new_vector = list(vector)
        if bundle is None:
            bundle = self._no_messages
        later = superstep > 1
        if later and all(map(_HALTED, vector)):
            # Only a lane with a message runs: found without a Python
            # step per lane.
            todo = compress(range(len(vector)), map(is_not, bundle, self._no_messages))
        else:
            todo = range(len(vector))
        cancelled = self._control.cancelled
        unreported = self._unreported
        expand = self._expand
        lanes = self._lanes
        mutations, aggregates = self._lane_mutations, self._lane_aggregates
        outbox = self._outbox
        sent = len(outbox)
        vid = self._vid
        awake = False
        for lane in todo:
            halted, value = vector[lane]
            lane_bundle = bundle[lane]
            if lane_bundle is None and halted and later:
                continue
            if cancelled and lane in cancelled:
                if not halted:
                    if new_vector is None:
                        new_vector = list(vector)
                    new_vector[lane] = (True, value)
                continue
            program = lanes[lane]
            program._vid = vid
            program.value = value
            program._edges = None
            program._halted = False
            if lane_bundle is None:
                program.compute(_NO_MESSAGES)
            elif expand is None:
                program.compute(iter((lane_bundle,)))
            else:
                program.compute(iter(expand(lane_bundle)))
            if mutations or aggregates or (
                program._edges is not None and self._edited(program._edges)
            ):
                self._refuse(lane, program)
            now_halted = program._halted
            if len(outbox) != sent or not now_halted:
                sent = len(outbox)
                awake = awake or not now_halted
                if lane in unreported:
                    unreported.discard(lane)
                    self.aggregate((lane, superstep))
            if now_halted != halted or program.value is not value:
                if new_vector is None:
                    new_vector = list(vector)
                new_vector[lane] = (now_halted, program.value)
        # An unchanged vector stays the object it was decoded as, and its
        # row is not written back (the column is ``layout_fixed``).
        if new_vector is not None:
            self.value = tuple(new_vector)
        if not awake:
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
        inner = template.vertex_class
        if (inner.send_message is not Vertex.send_message
                or inner.send_message_to_all_edges is not Vertex.send_message_to_all_edges):
            raise MultiQueryError(
                "vertex class %r overrides how it sends: a lane's messages "
                "are tagged as they are sent" % inner.__name__
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
            value_serde=lane_column_serde(template.value_serde, self.num_lanes),
            edge_serde=template.edge_serde,
            msg_serde=lane_message_serde(template.msg_serde),
            combiner=MultiQueryCombiner(
                template.combiner, template.msg_serde, self.num_lanes
            ),
            aggregator=LaneActivityAggregator(self.num_lanes),
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
        return vid, ((False, value),) * self.num_lanes, edges

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
            for lane, last in enumerate(gs.aggregate or ()):
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
        solo run of that lane would have dumped. Under the default
        formatter a vertex's edge text is formatted once for all lanes.
        """
        per_lane = [[] for _ in range(self.num_lanes)]
        inner = self._inner_format
        for line in lines:
            if not line.strip():
                continue
            obj = json.loads(line)
            lanes = obj["lanes"]
            if len(lanes) != self.num_lanes:
                raise MultiQueryError(
                    "vertex %d carries %d lanes, expected %d"
                    % (obj["vid"], len(lanes), self.num_lanes)
                )
            edges = [(e[0], e[1]) for e in obj["edges"]]
            if inner is format_vertex_record:
                formatted = format_vertex_values(
                    obj["vid"], map(_LANE_VALUE, lanes), edges
                )
            else:
                formatted = [
                    inner(VertexRecord(
                        vid=obj["vid"], halt=halted, value=value, edges=edges
                    ))
                    for halted, value in lanes
                ]
            for lane_lines, text in zip(per_lane, formatted):
                lane_lines.append(text)
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

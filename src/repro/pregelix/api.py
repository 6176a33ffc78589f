"""The user-facing Pregel API (the analog of the paper's Figure 9).

A graph algorithm is a subclass of :class:`Vertex` implementing
``compute``. A :class:`PregelixJob` bundles the vertex class with type
serdes, the optional :class:`Combiner`, :class:`GlobalAggregator`, and
:class:`VertexResolver` UDFs (paper Table 2), and the physical plan hints
— join strategy, group-by strategy, connector policy, vertex storage —
that select one of the sixteen tailored executions.
"""

import enum
import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass, fields

from repro.common import serde
from repro.common.errors import GraphMutationConflict, ReproError
from repro.hyracks.operators.groupby import FoldSource, batch_folds

Edge = namedtuple("Edge", ["target", "value"])
_TARGET = operator.attrgetter("target")


class Vertex:
    """Base class for vertex programs; override :meth:`compute`.

    During a superstep, the framework binds the instance to one active
    vertex at a time and calls ``compute(messages)``. Inside compute the
    methods below read and mutate the bound vertex, send messages, vote
    to halt, contribute to the global aggregate, and request graph
    mutations — the five actions of the Pregel model (paper Section 2.1).
    """

    def __init__(self):
        self._vid = None
        #: The bound vertex's value; the program reads and assigns it.
        self.value = None
        self._edges = []
        self._read_edges = None
        self._row = None
        self._halted = False
        self._outbox = []
        self._agg_contribs = []
        self._mutations = []
        self._superstep = 0
        self._global_aggregate = None
        self._num_vertices = 0
        self._num_edges = 0

    # ------------------------------------------------------------------
    # user hooks
    # ------------------------------------------------------------------
    def configure(self, config):
        """Called once per worker with the job's config dict."""

    def compute(self, messages):
        """Process ``messages`` (an iterator of payloads); must override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # bound-vertex accessors
    # ------------------------------------------------------------------
    @property
    def vertex_id(self):
        return self._vid

    @property
    def edges(self):
        """The mutable outgoing edge list (``Edge(target, value)``)."""
        edges = self._edges
        if edges is None:
            # Bound to edges nobody has read yet (see _bind).
            edges = self._edges = self._read_edges()
        return edges

    @property
    def num_out_edges(self):
        """How many outgoing edges the bound vertex has (Pregel's
        ``getNumEdges``). While the program has not read :attr:`edges`,
        the count is read off the stored row and no edge is decoded."""
        if self._edges is None and self._row is not None:
            return self._row.edge_count()
        return len(self.edges)

    def set_edges(self, edges):
        self._edges = [Edge(*e) for e in edges]

    def add_edge(self, target, value=None):
        self.edges.append(Edge(target, value))

    def remove_edges_to(self, target):
        self._edges = [e for e in self.edges if e.target != target]

    @property
    def superstep(self):
        """The current superstep number (1-based, as in Pregel)."""
        return self._superstep

    @property
    def num_vertices(self):
        """Vertex count at the end of the previous superstep."""
        return self._num_vertices

    @property
    def num_edges(self):
        """Edge count at the end of the previous superstep."""
        return self._num_edges

    @property
    def global_aggregate(self):
        """The global aggregate value produced by the previous superstep.

        A scalar for a single anonymous aggregator; a ``{name: value}``
        dict when the job registers named aggregators.
        """
        return self._global_aggregate

    def get_global_aggregate(self, name):
        """One named aggregator's value from the previous superstep."""
        if isinstance(self._global_aggregate, dict):
            return self._global_aggregate.get(name)
        return self._global_aggregate

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def send_message(self, target, payload):
        """Queue ``payload`` for delivery to ``target`` next superstep."""
        self._outbox.append((target, payload))

    def send_message_to_all_edges(self, payload):
        if self._edges is None and self._row is not None:
            # Edges nobody has read: their targets, without the edges.
            targets = self._row.edge_targets()
        else:
            targets = map(_TARGET, self.edges)
        self._outbox.extend(zip(targets, itertools.repeat(payload)))

    def vote_to_halt(self):
        """Deactivate this vertex until a message reactivates it."""
        self._halted = True

    def aggregate(self, contribution, name=None):
        """Contribute to a global aggregate (the ``aggregate`` UDF input).

        With a single anonymous aggregator on the job, omit ``name``;
        with named aggregators, address one by its name.
        """
        self._agg_contribs.append((name, contribution))

    def add_vertex(self, vid, value=None, edges=()):
        """Request insertion of a new vertex (applied via ``resolve``)."""
        self._mutations.append(("insert", vid, value, [Edge(*e) for e in edges]))

    def remove_vertex(self, vid):
        """Request deletion of a vertex (applied via ``resolve``)."""
        self._mutations.append(("delete", vid, None, None))

    # ------------------------------------------------------------------
    # framework binding (internal)
    # ------------------------------------------------------------------
    def _bind_superstep(self, superstep, global_aggregate, num_vertices,
                        num_edges, outbox, agg_contribs, mutations):
        """Bind to one superstep: what every vertex of it reads, and the
        lists its actions append to — ``outbox`` the ``(target,
        payload)`` messages, ``agg_contribs`` the ``(name, contribution)``
        pairs, ``mutations`` the mutation requests. The caller owns the
        lists, and every vertex bound after this call adds to them."""
        self._superstep = superstep
        self._global_aggregate = global_aggregate
        self._num_vertices = num_vertices
        self._num_edges = num_edges
        self._outbox = outbox
        self._agg_contribs = agg_contribs
        self._mutations = mutations

    def _bind_vertex(self, vid, value, edges):
        """Bind to one vertex, active until it votes to halt. ``edges`` is
        its edge list, copied here; or a function returning a list of
        ``Edge`` that the program may keep, called when the program first
        reads :attr:`edges` and never if it does not (``_edges`` then
        stays ``None``) — most vertices of most supersteps leave a stored
        edge list undecoded, or a list shared with other programs
        uncopied; or the stored row the vertex is at (an
        :class:`~repro.pregelix.relations.OpenedRow`), whose
        ``read_edges`` is that function and whose ``edge_count`` and
        ``edge_targets`` :attr:`num_out_edges` and
        :meth:`send_message_to_all_edges` ask while the program has not
        read :attr:`edges`. Every bind replaces it.

        ``ComputeOperator`` binds its opened row once per partition and
        then, per vertex, sets again only what this sets apart from the
        row (``_read_edges`` and ``_row``): ``_vid``, ``value``,
        ``_edges`` and ``_halted``. A field added here is added there
        too; ``test_operators_unit.py`` checks that the two agree."""
        self._vid = vid
        self.value = value
        read_edges = getattr(edges, "read_edges", None)
        if read_edges is not None:
            self._edges, self._read_edges, self._row = None, read_edges, edges
        elif callable(edges):
            self._edges, self._read_edges, self._row = None, edges, None
        else:
            self._row = None
            self._edges = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
        self._halted = False

    def _bind(self, vid, value, edges, superstep, global_aggregate, num_vertices,
              num_edges):
        """Bind to one vertex of a superstep of its own: what it sends,
        contributes and requests is then ``_outbox``, ``_agg_contribs``
        and ``_mutations`` alone."""
        self._bind_superstep(
            superstep, global_aggregate, num_vertices, num_edges, [], [], []
        )
        self._bind_vertex(vid, value, edges)


class _BatchFold:
    """One of a combiner's four batch folds. The first use compiles them
    for the instance's type and binds them to the instance, as instance
    attributes, so a plan reads them with no call."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, combiner, owner=None):
        if combiner is None:
            return self
        folds = batch_folds(
            fold_source_of(type(combiner)),
            combiner.init, combiner.accumulate, combiner.merge,
        )
        vars(combiner).update(folds)
        return folds[self.name]


def fold_source_of(cls):
    """The fold fragments a combiner class ``cls`` folds with: those of
    the class that declares ``cls``'s, while ``cls``'s ``init``,
    ``accumulate`` and ``merge`` are that class's; else the per-message
    ones."""
    declaring = next(c for c in cls.__mro__ if "fold_source" in vars(c))
    if all(getattr(cls, name) is getattr(declaring, name)
           for name in ("init", "accumulate", "merge")):
        return declaring.fold_source
    return Combiner.fold_source


class Combiner:
    """Message combiner: pre-aggregates messages per destination.

    States must be mergeable because combination happens in two stages
    (sender side and receiver side, paper Section 5.3.1). ``finish``
    produces the stored *bundle*; ``expand`` turns a bundle back into the
    message iterator handed to ``compute``.

    The group-bys fold a batch per call: ``fold_sorted``,
    ``merge_rounds``, ``hash_fold`` and ``hash_merge`` are the skeletons
    of :func:`~repro.hyracks.operators.groupby.batch_folds`, compiled over
    :attr:`fold_source` and bound to the instance when it first folds. A
    class writes its fold inline there, not as methods; the group-bys use
    it only while ``init``, ``accumulate`` and ``merge`` are the ones it
    was written for, so a subclass that overrides one of them folds
    through the per-message calls.
    """

    #: How a message opens a state, how a message folds in and how a
    #: partial folds in (a :class:`~repro.hyracks.operators.groupby.
    #: FoldSource`): here ``init``/``accumulate``/``merge`` called per
    #: message, the contract every inline fold keeps.
    fold_source = FoldSource(
        "accumulate(init(), item)",
        (None, "accumulate(state, item)"),
        (None, "merge(state, item)"),
    )

    fold_sorted = _BatchFold()
    merge_rounds = _BatchFold()
    hash_fold = _BatchFold()
    hash_merge = _BatchFold()

    def init(self):
        raise NotImplementedError

    def accumulate(self, state, payload):
        raise NotImplementedError

    def merge(self, left, right):
        raise NotImplementedError

    def finish(self, state):
        return state

    def expand(self, bundle):
        """Messages delivered to compute for a combined bundle."""
        return [bundle]

    def bundle_serde(self, msg_serde):
        """Serde for stored bundles; defaults to the message serde."""
        return msg_serde


class DefaultListCombiner(Combiner):
    """The paper's default combine: gather all messages into a list."""

    def init(self):
        return []

    def accumulate(self, state, payload):
        state.append(payload)
        return state

    def merge(self, left, right):
        left.extend(right)
        return left

    def expand(self, bundle):
        return bundle

    def bundle_serde(self, msg_serde):
        return serde.ListSerde(msg_serde)


def _extreme_fold(better):
    """The fold of an extreme: a message or partial replaces the state
    only when it compares ``better`` (``<``/``>``) to it, and a ``None``
    state or partial holds no message yet."""
    return FoldSource(
        "item",
        ("state is None or item %s state" % better, "item"),
        ("item is not None and (state is None or item %s state)" % better, "item"),
    )


class _ExtremeCombiner(Combiner):
    """Keep one extreme message. A subclass sets ``_pick``, the
    per-message operator (``min``/``max``), and its fold, the comparison
    ``_pick`` makes written inline (:func:`_extreme_fold`).

    ``_pick(state, payload)`` keeps ``state`` unless ``payload`` compares
    better, so the inline fold replaces a state only then: the first
    extreme of a run wins, a NaN is kept or passed over as it is, and a
    ``None`` payload next to a state raises the same ``TypeError``. A
    ``None`` state or partial holds no message yet."""

    _pick = None

    def init(self):
        return None

    def accumulate(self, state, payload):
        return payload if state is None else self._pick(state, payload)

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return self._pick(left, right)


class MinCombiner(_ExtremeCombiner):
    """Keep only the minimum message (e.g. shortest-path distances),
    folded with an inline ``<``."""

    _pick = min
    fold_source = _extreme_fold("<")


class SumCombiner(Combiner):
    """Sum all messages (e.g. PageRank contributions), folded with an
    inline ``+``: left to right from ``init()`` (``0.0 + payload`` opens
    a run, so a lone ``-0.0`` is ``0.0``), as the per-message loop does;
    ``sum()`` would not (it compensates from Python 3.12 on)."""

    fold_source = FoldSource("0.0 + item", (None, "state + item"), (None, "state + item"))

    def init(self):
        return 0.0

    def accumulate(self, state, payload):
        return state + payload

    def merge(self, left, right):
        return left + right


class MaxCombiner(_ExtremeCombiner):
    """Keep only the maximum message (e.g. max-id label propagation),
    folded with an inline ``>``."""

    _pick = max
    fold_source = _extreme_fold(">")


class GlobalAggregator:
    """Global aggregation UDF over per-vertex contributions (Table 2)."""

    def init(self):
        raise NotImplementedError

    def accumulate(self, state, contribution):
        raise NotImplementedError

    def merge(self, left, right):
        raise NotImplementedError

    def finish(self, state):
        return state

    def value_serde(self):
        """Serde for the finished value stored in GS."""
        return serde.FLOAT64


class VertexResolver:
    """Resolves conflicting graph mutations for one vertex id.

    The default implements the paper's partial order: deletions are
    applied before insertions; multiple conflicting insertions raise
    unless ``choose_insertion`` is overridden.
    """

    def resolve(self, vid, mutations, exists):
        """Return ``("insert", record_fields)`` / ``("delete",)`` / None.

        :param vid: the vertex id all ``mutations`` target.
        :param mutations: list of ``(op, vid, value, edges)`` requests.
        :param exists: whether the vertex currently exists.
        """
        deletions = [m for m in mutations if m[0] == "delete"]
        insertions = [m for m in mutations if m[0] == "insert"]
        if insertions:
            chosen = self.choose_insertion(vid, insertions)
            return ("insert", chosen[2], chosen[3])
        if deletions:
            return ("delete",)
        return None

    def choose_insertion(self, vid, insertions):
        if len(insertions) > 1:
            raise GraphMutationConflict(
                "%d conflicting insertions for vertex %d" % (len(insertions), vid)
            )
        return insertions[0]


class JoinStrategy(enum.Enum):
    """Message delivery physical choice (paper Figure 8)."""

    FULL_OUTER = "foj"
    LEFT_OUTER = "loj"


class GroupByStrategy(enum.Enum):
    """Message combination group-by implementation (paper Figure 7)."""

    SORT = "sort"
    HASHSORT = "hashsort"


class ConnectorPolicy(enum.Enum):
    """Message redistribution connector choice (paper Figure 7)."""

    UNMERGED = "unmerged"
    MERGED = "merged"


class VertexStorage(enum.Enum):
    """Vertex relation storage structure (paper Section 5.2)."""

    BTREE = "btree"
    LSM_BTREE = "lsm"


@dataclass(frozen=True)
class PlanChoice:
    """One of the sixteen physical plans.

    Each field is one plan axis, typed by the enum whose values spell it:
    a plan prints, journals and parses as ``join/groupby/connector/storage``.
    """

    join: JoinStrategy
    groupby: GroupByStrategy
    connector: ConnectorPolicy
    storage: VertexStorage

    @classmethod
    def axes(cls):
        """Axis name -> its enum, in signature order."""
        return {spec.name: spec.type for spec in fields(cls)}

    @classmethod
    def of(cls, job):
        """The plan ``job`` is currently set to run under."""
        return cls(
            job.join_strategy, job.groupby_strategy,
            job.connector_policy, job.vertex_storage,
        )

    def signature(self):
        return "/".join(getattr(self, axis).value for axis in self.axes())

    @property
    def identity_class(self):
        """The plan's bit-identity class, ``groupby/connector``.

        Output bytes are identical across join strategy and vertex
        storage (the chaos harness's standing invariant); floating-point
        accumulation order, and hence bits, can differ across group-by
        strategies and connector policies, so those two axes define it.
        """
        return "%s/%s" % (self.groupby.value, self.connector.value)

    @classmethod
    def parse(cls, signature):
        """Inverse of :meth:`signature` (``foj/sort/unmerged/btree``)."""
        axes = cls.axes()
        parts = signature.split("/")
        if len(parts) != len(axes):
            raise ValueError(
                "plan signature must be %s, got %r"
                % ("/".join(axes), signature)
            )
        choice = {}
        for (axis, kind), code in zip(axes.items(), parts):
            try:
                choice[axis] = kind(code)
            except ValueError:
                raise ValueError(
                    "%s must be one of %s, got %r in %r"
                    % (axis, ", ".join(m.value for m in kind), code, signature)
                ) from None
        return cls(**choice)

    def apply(self, job):
        job.join_strategy = self.join
        job.groupby_strategy = self.groupby
        job.connector_policy = self.connector
        job.vertex_storage = self.storage
        return job


def all_plans():
    """All sixteen physical plans, in a stable order."""
    return [
        PlanChoice(join, groupby, connector, storage)
        for join, groupby, connector, storage in itertools.product(
            JoinStrategy, GroupByStrategy, ConnectorPolicy, VertexStorage
        )
    ]


class PregelixJob:
    """A Pregel job description plus physical plan hints.

    The defaults mirror the paper's default plan: index full outer join,
    sort-based group-by, m-to-n hash partitioning connector, and B-tree
    vertex storage.
    """

    def __init__(
        self,
        name,
        vertex_class,
        value_serde=serde.FLOAT64,
        edge_serde=serde.FLOAT64,
        msg_serde=serde.FLOAT64,
        combiner=None,
        aggregator=None,
        resolver=None,
        join_strategy=JoinStrategy.FULL_OUTER,
        groupby_strategy=GroupByStrategy.SORT,
        connector_policy=ConnectorPolicy.UNMERGED,
        vertex_storage=VertexStorage.BTREE,
        groupby_memory_bytes=64 << 20,
        checkpoint_interval=None,
        checkpoint_retain=2,
        max_supersteps=None,
        auto_optimize=False,
        config=None,
    ):
        if not issubclass(vertex_class, Vertex):
            raise ReproError("vertex_class must subclass pregelix.Vertex")
        self.name = name
        self.vertex_class = vertex_class
        self.value_serde = value_serde
        self.edge_serde = edge_serde
        self.msg_serde = msg_serde
        self.combiner = combiner or DefaultListCombiner()
        self.aggregator = aggregator
        self.resolver = resolver or VertexResolver()
        self.join_strategy = join_strategy
        self.groupby_strategy = groupby_strategy
        self.connector_policy = connector_policy
        self.vertex_storage = vertex_storage
        self.groupby_memory_bytes = int(groupby_memory_bytes)
        self.checkpoint_interval = checkpoint_interval
        #: Committed checkpoint generations retained by GC (minimum 2,
        #: so a corrupted newest checkpoint leaves a verified fallback).
        self.checkpoint_retain = int(checkpoint_retain)
        self.max_supersteps = max_supersteps
        #: When set, the driver re-optimizes the physical plan between
        #: supersteps with the cost-based optimizer (the paper's stated
        #: future work; see repro.pregelix.optimizer).
        self.auto_optimize = bool(auto_optimize)
        self.config = dict(config or {})

    @property
    def needs_vid(self):
        """Whether plans must maintain the live-vertex ``Vid`` index.

        True for the left-outer-join plan, and always under the
        optimizer (so it can switch join strategies between supersteps).
        """
        return self.join_strategy == JoinStrategy.LEFT_OUTER or self.auto_optimize

    # Handy derived serdes -------------------------------------------------
    def vertex_codec(self):
        from repro.pregelix.types import vertex_value_serde

        return vertex_value_serde(self.value_serde, self.edge_serde)

    def bundle_codec(self):
        return self.combiner.bundle_serde(self.msg_serde)

    def aggregator_set(self):
        from repro.pregelix.aggregators import AggregatorSet

        return AggregatorSet(self.aggregator)

    def gs_codec(self):
        from repro.pregelix.types import global_state_serde

        return global_state_serde(self.aggregator_set().value_serde())

    def plan_signature(self):
        """The job's plan, spelled ``join/groupby/connector/storage``."""
        return PlanChoice.of(self).signature()

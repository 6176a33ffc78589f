"""The three group-by implementations from the paper (Section 4).

* **Sort-based**: buffers raw tuples, sorts each memory-full batch, and
  aggregates while spilling sorted runs of partial states; a final
  multiway merge combines partial states across runs.
* **HashSort**: aggregates into a hash table first (a win when the number
  of distinct keys is small — e.g. few distinct message receivers), and
  sorts only when spilling or emitting.
* **Preclustered**: assumes the input is already clustered by key and
  aggregates in one pass (used below merging connectors).

All strategies emit groups in key order (preclustered preserves its input
order, which is sorted by assumption), because the downstream ``Msg``
storage and index joins require vid-sorted streams.

Two keys, one order (DESIGN.md §4). Tuples are sorted, hashed and
compared by **their own key**, ``key_fn(item)``; a group is *named* once,
when it closes, by the aggregator's :attr:`~GroupAggregator.group_key`,
which must preserve order: that written key is what ``finish`` receives
and what spilled runs store and are merged by.

A fold is a batch per call. The sort strategies fold a sorted batch with
``fold_clustered``, the merge of spilled runs folds one merged round at a
time with ``merge_rounds``, and HashSort fills its table a chunk of items
per ``hash_fold`` call when the state is fixed-width. A group goes out in
a batch, not through a generator resumed per group. The message
combiners' folds are three skeletons written once below (a sorted run, a
round of a merge, a hash-table chunk), compiled over a combiner's fold
fragments: a fragment written inline pays no Python call per tuple. An
aggregator that defines only ``create``/``step``/``merge`` gets the
per-tuple loops, which are the contract.
"""

import functools
import textwrap
from collections import namedtuple
from itertools import chain, starmap

from repro.common.errors import StorageError
from repro.common.serde import ListSerde
from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.operators.sort import DEFAULT_SORT_MEMORY, spill_full_batches
from repro.hyracks.storage.run_file import LEAD, SortedRuns


class GroupAggregator:
    """Aggregation callbacks for one group-by (the combiner's contract).

    The state must be *mergeable* (``merge``) because every strategy may
    aggregate partially and combine partials later — the same requirement
    Pregelix places on message combiners.
    """

    def create(self):
        """A fresh empty aggregation state."""
        raise NotImplementedError

    def step(self, state, item):
        """Fold ``item`` into ``state``; returns the updated state."""
        raise NotImplementedError

    def merge(self, left, right):
        """Combine two partial states."""
        raise NotImplementedError

    #: Names a closed group: maps the key its tuples carry to the key the
    #: group is written under — what ``finish`` receives and what spilled
    #: runs store and are merged by. ``None`` writes a group under its
    #: tuples' own key; a callable must preserve order.
    group_key = None

    def finish(self, key, state):
        """Produce the output tuple for a completed group."""
        raise NotImplementedError

    def state_serde(self):
        """Serde used to spill partial states; ``None`` forbids spilling."""
        return None

    def fold_clustered(self, key_fn, items):
        """``create``/``step`` over a whole batch: fold every run of
        adjacent items with equal ``key_fn(item)`` and yield
        ``(written key, state)`` as the run closes. An aggregator may
        override it to reach its fold without the per-tuple indirection,
        never to fold differently."""
        create, step = self.create, self.step
        group_key = self.group_key
        current = state = None
        for item in items:
            key = key_fn(item)
            if key != current:
                if current is not None:
                    yield (group_key(current) if group_key else current), state
                current = key
                state = create()
            state = step(state, item)
        if current is not None:
            yield (group_key(current) if group_key else current), state

    def state_size(self, state):
        """State size in bytes, for hash-table budgeting. Under a
        fixed-width state serde it must not change once a state has
        absorbed an item (the hash group-by then sizes new keys only)."""
        serde = self.state_serde()
        if serde is None:
            raise StorageError("aggregator has no state serde to size with")
        return serde.sizeof(state)

    def merge_rounds(self, rounds):
        """``merge`` over the rounds of a merge of spilled runs: sorted
        lists of ``(key, state)``, each going on where the one before
        stopped (a key's run may span lists). One list of ``(key,
        merged)`` per list, holding the runs that closed in it, and one
        more for the run still open at the end. A run's first state is
        where its merge starts. This is the rounds skeleton (below) over
        ``self.merge``."""
        build = _compiled(_MERGED_ROUNDS, "item", None, "merge(state, item)")
        return build(None, None, self.merge)(rounds)

    def name_keys(self, keys):
        """``group_key`` over a batch of keys."""
        group_key = self.group_key
        return keys if group_key is None else map(group_key, keys)

    #: True when ``finish(key, state)`` is ``(key, state)``: the operators
    #: then emit named states as they are, with no call per group.
    finish_is_identity = False

    #: ``None``, or ``hash_fold(table, items, room)``: ``step`` over
    #: items drawn from the iterator ``items`` into a table keyed by their
    #: lead, up to the item that adds the ``room``-th new key, returning
    #: how many keys it added — the hash-chunk skeleton (below), as a
    #: combiner's ``hash_fold``/``hash_merge`` compile it. It is the
    #: HashSort group-by's path for fixed-width states. An aggregator that
    #: offers it and names its groups (``group_key``) writes every key at
    #: one width.
    hash_fold = None


class ListAggregator(GroupAggregator):
    """The paper's default combine: gather all payloads into a list.

    :param value_fn: extracts the aggregated value from an input tuple.
    :param output_fn: builds the output tuple from ``(key, values)``.
    :param value_serde: element serde, enabling spill.
    """

    def __init__(self, value_fn, output_fn, value_serde=None):
        self.value_fn = value_fn
        self.output_fn = output_fn
        self.value_serde = value_serde
        self._state_serde = None if value_serde is None else ListSerde(value_serde)

    def create(self):
        return []

    def step(self, state, item):
        state.append(self.value_fn(item))
        return state

    def merge(self, left, right):
        left.extend(right)
        return left

    def finish(self, key, state):
        return self.output_fn(key, state)

    def state_serde(self):
        return self._state_serde


# ---------------------------------------------------------------------
# The batch folds: one skeleton per shape the group-bys call
# ---------------------------------------------------------------------
#: How a fold grows a group's state, as Python source. ``open`` is an
#: expression of ``item``, the message that opens a group; ``step`` (a
#: message folded in) and ``merge`` (a partial folded in) are each
#: ``(when, value)``: the state becomes ``value`` when ``when`` holds
#: (``None``: always), both expressions of ``state`` and ``item``. The
#: source may call ``init``, ``accumulate`` and ``merge``, the folding
#: object's own methods. A partial opens a group as it is (``item``).
FoldSource = namedtuple("FoldSource", ["open", "step", "merge"])

#: ``fold_sorted(items)``: every run of adjacent ``(vid, item)`` items
#: with equal vids folded, ``(vids, states)``, two lists holding one entry
#: per run, in order (two lists, not a pair per run: a batch's groups cost
#: two list slots each until they are named).
_SORTED_RUN = """
def fold(items):
    vids, states = [], []
    open_, close = vids.append, states.append
    current = state = None
    for vid, item in items:
        if vid != current:
            if current is not None:
                close(state)
            open_(vid)
            current, state = vid, {open}
        {fold}
            state = {value}
    if current is not None:
        close(state)
    return vids, states
"""

#: ``merge_rounds(rounds)``: sorted lists of ``(key, item)``, each going
#: on where the one before stopped (a key's run may span lists): one list
#: of closed ``(key, state)`` per list, and one more for the run still
#: open at the end.
_MERGED_ROUNDS = """
def fold(rounds):
    current = state = None
    for items in rounds:
        closed = []
        append = closed.append
        for key, item in items:
            if key != current:
                if current is not None:
                    append((current, state))
                current, state = key, {open}
            {fold}
                state = {value}
        yield closed
    if current is not None:
        yield [(current, state)]
"""

#: ``hash_fold(table, items, room)``: ``(key, item)`` items, drawn from
#: the iterator ``items``, folded into ``table`` (key -> state), stopping
#: right after the item that adds the ``room``-th key new to it: how many
#: keys it added, fewer than ``room`` only when ``items`` ran out. Made
#: for fixed-width states, whose size only a new key changes; a state is
#: stored only when the fold changes it.
_HASH_CHUNK = """
def fold(table, items, room):
    get = table.get
    added = 0
    for key, item in items:
        state = get(key, MISSING)
        if state is MISSING:
            table[key] = {open}
            added += 1
            if added == room:
                break
        {fold}
            table[key] = {value}
    return added
"""


@functools.lru_cache(maxsize=64)
def _compiled(skeleton, open_, when, value):
    """``build(init, accumulate, merge)``, which gives ``skeleton``'s fold
    over the fragments, calling the three it is given. Plans fold with the
    same few sources again every superstep; each is compiled once."""
    source = skeleton.format(
        open=open_, value=value, fold="else:" if when is None else "elif %s:" % when
    )
    namespace = {"MISSING": _MISSING}
    exec(
        "def build(init, accumulate, merge):%s    return fold\n"
        % textwrap.indent(source, "    "),
        namespace,
    )
    return namespace["build"]


def batch_folds(source, init, accumulate, merge):
    """The four batch folds of a :class:`FoldSource`, bound to the
    ``init``, ``accumulate`` and ``merge`` it may call: ``fold_sorted``
    and ``hash_fold`` open and step with messages, ``merge_rounds`` and
    ``hash_merge`` merge partials."""
    shapes = {
        "fold_sorted": (_SORTED_RUN, source.open, source.step),
        "merge_rounds": (_MERGED_ROUNDS, "item", source.merge),
        "hash_fold": (_HASH_CHUNK, source.open, source.step),
        "hash_merge": (_HASH_CHUNK, "item", source.merge),
    }
    return {
        name: _compiled(skeleton, open_, *fold)(init, accumulate, merge)
        for name, (skeleton, open_, fold) in shapes.items()
    }


class _SpillingGroupByBase(OperatorDescriptor):
    """The external sort's skeleton with a fold. A strategy is how a batch
    becomes sorted ``(written key, state)`` pairs: inside one :meth:`_runs`
    scope, what it cannot keep goes to :meth:`_overflow`, the rest to
    :meth:`_finished`."""

    def __init__(self, key_fn, aggregator, memory_limit_bytes, name):
        super().__init__(name)
        self.key_fn = key_fn
        self.aggregator = aggregator
        self.memory_limit = int(memory_limit_bytes)

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        return {self.OUT: list(self.grouped_stream(ctx, stream))}

    def _runs(self, ctx):
        return SortedRuns(ctx, "groupby-run", self.aggregator.state_serde())

    def _overflow(self, runs, named_states):
        """Spill a batch of sorted named states that exceeded the budget."""
        if runs.value_serde is None:
            raise StorageError(
                "%s exceeded its memory budget but the aggregator cannot spill"
                % self.name
            )
        runs.spill(named_states)

    def _finished(self, runs, in_memory):
        """The finished groups of the spilled ``runs`` and the sorted
        ``(written key, state)`` pairs still ``in_memory``, in batches:
        ``in_memory`` alone, or the merged runs folded round by round
        (``aggregator.merge_rounds``)."""
        aggregator = self.aggregator
        batches = (in_memory,)
        if runs.extents:
            batches = aggregator.merge_rounds(runs.merged_rounds(in_memory))
        return _finished_batches(aggregator, batches)


class SortGroupByOperator(_SpillingGroupByBase):
    """Sort-based group-by: sort, aggregate adjacent, spill, merge."""

    def __init__(self, key_fn, aggregator, tuple_serde, memory_limit_bytes=DEFAULT_SORT_MEMORY, name=None):
        super().__init__(key_fn, aggregator, memory_limit_bytes, name or "SortGroupBy")
        self.tuple_serde = tuple_serde

    def grouped_stream(self, ctx, stream):
        return _flat(self._grouped_batches(ctx, stream))

    def _grouped_batches(self, ctx, stream):
        with self._runs(ctx) as runs:
            buffer = spill_full_batches(
                stream, self.tuple_serde, self.memory_limit,
                lambda full: self._overflow(runs, self._fold_sorted(full)),
            )
            in_memory = self._fold_sorted(buffer)
            # The sorted tuples go once an eager fold (a combiner's) has
            # read them, before its groups are handed on (peak memory).
            del buffer
            yield from self._finished(runs, in_memory)

    def _fold_sorted(self, buffer):
        """Sort raw tuples by their own key (stable: arrival order inside
        a key) and fold adjacent equal keys into named states."""
        buffer.sort(key=self.key_fn)
        return self.aggregator.fold_clustered(self.key_fn, buffer)


class HashSortGroupByOperator(_SpillingGroupByBase):
    """HashSort group-by: hash-aggregate in memory, sort only to spill.

    The table spills as soon as it holds ``memory_limit`` bytes: every
    key's written key and state, its states sized as they change (under
    a fixed-width state serde, only when a key is new)."""

    def __init__(self, key_fn, aggregator, memory_limit_bytes=DEFAULT_SORT_MEMORY, name=None):
        super().__init__(key_fn, aggregator, memory_limit_bytes, name or "HashSortGroupBy")

    def grouped_stream(self, ctx, stream):
        return _flat(self._grouped_batches(ctx, stream))

    def _grouped_batches(self, ctx, stream):
        items = stream if isinstance(stream, list) else list(stream)
        with self._runs(ctx) as runs:
            if self._hash_foldable(items):
                in_memory = self._hash_folded(runs, items)
            else:
                in_memory = self._stepped(runs, items)
            yield from self._finished(runs, in_memory)

    def _hash_foldable(self, items):
        """Whether ``aggregator.hash_fold`` may fill the table: items
        keyed by their lead, a fixed-width state, and written keys of one
        width (the items' own, when the aggregator names none)."""
        aggregator = self.aggregator
        state_serde = aggregator.state_serde()
        return (
            aggregator.hash_fold is not None
            and self.key_fn is LEAD
            and state_serde is not None
            and state_serde.fixed_size is not None
            and (aggregator.group_key is not None
                 or len(set(map(len, map(LEAD, items)))) <= 1)
        )

    def _hash_folded(self, runs, items):
        """The table filled by ``aggregator.hash_fold``, a chunk of items
        per call, all drawn from one iterator. Only a new key adds bytes,
        and every one as many: the first key is measured, and a chunk ends
        at the key that fills the table, so it spills after the item the
        byte count spilled at."""
        hash_fold = self.aggregator.hash_fold
        items = iter(items)
        table = {}
        if not hash_fold(table, items, 1):
            return []
        capacity = self._capacity(table)
        held = added = room = 1
        while True:
            if held == capacity:
                self._overflow(runs, self._named_table(table))
                table = {}
                held = 0
            if added < room:  # the items ran out
                return self._named_table(table)
            room = _UNBOUNDED if capacity is None else capacity - held
            added = hash_fold(table, items, room)
            held += added

    def _capacity(self, table):
        """How many keys fill the table (``None``: no number does), from
        the bytes its one key adds: its written key, and its state less a
        fresh one."""
        aggregator = self.aggregator
        ((key, state),) = table.items()
        (name,) = aggregator.name_keys([key])
        charge = len(name) + aggregator.state_size(state) - aggregator.state_size(
            aggregator.create()
        )
        if charge > 0:
            return max(1, -(-self.memory_limit // charge))
        return 1 if charge >= self.memory_limit else None

    def _named_table(self, table):
        return _named_sorted(self.aggregator.name_keys(table), table)

    def _stepped(self, runs, stream):
        """The table filled item by item through ``step``."""
        aggregator = self.aggregator
        key_fn = self.key_fn
        create, step = aggregator.create, aggregator.step
        group_key = aggregator.group_key
        state_size = aggregator.state_size
        state_serde = aggregator.state_serde()
        # Fixed-width states do not grow: only a new key adds bytes.
        grows = state_serde is None or state_serde.fixed_size is None
        table = {}
        # The written key of every key of ``table``, in the table's own
        # (first-seen) order: a key is named, and its name charged to the
        # budget, once per table.
        names = []
        table_bytes = 0
        for item in stream:
            key = key_fn(item)
            state = table.get(key, _MISSING)
            new_key = state is _MISSING
            if new_key:
                state = create()
                name = group_key(key) if group_key else key
                names.append(name)
                table_bytes += len(name)
            if new_key or grows:
                before = state_size(state)
                state = step(state, item)
                table_bytes += state_size(state) - before
            else:
                state = step(state, item)
            table[key] = state
            if table_bytes >= self.memory_limit:
                self._overflow(runs, _named_sorted(names, table))
                table = {}
                names = []
                table_bytes = 0
        return _named_sorted(names, table)


def _named_sorted(names, table):
    return sorted(zip(names, table.values()), key=LEAD)


#: A ``room`` no chunk of items fills.
_UNBOUNDED = float("inf")

#: What the HashSort table holds for a key it has not seen (a state may
#: be ``None``).
_MISSING = object()


def _finished_batches(aggregator, batches):
    """``aggregator.finish`` over batches of named states."""
    if aggregator.finish_is_identity:
        return batches
    return map(functools.partial(starmap, aggregator.finish), batches)


class _Flat(chain):
    """A flat iterator over the batches of a generator."""


def _flat(batches):
    """The items of ``batches`` (a generator of iterables) one by one, with
    no Python frame per item, and ``close`` to close the generator when a
    consumer stops reading early (what releases the spilled runs)."""
    items = _Flat.from_iterable(batches)
    items.close = batches.close
    return items


class PreclusteredGroupByOperator(OperatorDescriptor):
    """One-pass group-by over input already clustered by key."""

    def __init__(self, key_fn, aggregator, name=None):
        super().__init__(name or "PreclusteredGroupBy")
        self.key_fn = key_fn
        self.aggregator = aggregator

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        return {self.OUT: list(self.grouped_stream(stream))}

    def grouped_stream(self, stream):
        """The finished groups; a key may not come back once its cluster
        has closed."""
        return _flat(self._grouped_batches(stream))

    def _grouped_batches(self, stream):
        groups = list(self.aggregator.fold_clustered(self.key_fn, stream))
        if len(set(map(LEAD, groups))) < len(groups):
            groups = _refusing_a_second_cluster(groups)
        yield from _finished_batches(self.aggregator, (groups,))


def _refusing_a_second_cluster(groups):
    """``groups`` up to the first key seen before, which raises."""
    seen = set()
    for key, state in groups:
        if key in seen:
            raise StorageError(
                "preclustered group-by saw key %r in two clusters" % (key,)
            )
        seen.add(key)
        yield key, state

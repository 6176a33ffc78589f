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
and what spilled runs store and are merged by. No hop works per tuple in
Python beyond the one ``step`` (or combiner) call.
"""

from itertools import starmap

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
        return SortedRuns(ctx.files, "groupby-run", self.aggregator.state_serde())

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
        ``(written key, state)`` pairs still ``in_memory``."""
        if runs.paths:
            in_memory = self._merge_equal(runs.merged(in_memory))
        return starmap(self.aggregator.finish, in_memory)

    def _merge_equal(self, named_states):
        """Fold adjacent pairs of equal key with ``aggregator.merge``."""
        merge = self.aggregator.merge
        current_key = None
        current_state = None
        for key, state in named_states:
            if key == current_key:
                current_state = merge(current_state, state)
            else:
                if current_key is not None:
                    yield current_key, current_state
                current_key, current_state = key, state
        if current_key is not None:
            yield current_key, current_state


class SortGroupByOperator(_SpillingGroupByBase):
    """Sort-based group-by: sort, aggregate adjacent, spill, merge."""

    def __init__(self, key_fn, aggregator, tuple_serde, memory_limit_bytes=DEFAULT_SORT_MEMORY, name=None):
        super().__init__(key_fn, aggregator, memory_limit_bytes, name or "SortGroupBy")
        self.tuple_serde = tuple_serde

    def grouped_stream(self, ctx, stream):
        with self._runs(ctx) as runs:
            buffer = spill_full_batches(
                stream, self.tuple_serde, self.memory_limit,
                lambda full: self._overflow(runs, self._fold_sorted(full)),
            )
            yield from self._finished(runs, self._fold_sorted(buffer))

    def _fold_sorted(self, buffer):
        """Sort raw tuples by their own key (stable: arrival order inside
        a key) and fold adjacent equal keys into named states."""
        buffer.sort(key=self.key_fn)
        return self.aggregator.fold_clustered(self.key_fn, buffer)


class HashSortGroupByOperator(_SpillingGroupByBase):
    """HashSort group-by: hash-aggregate in memory, sort only to spill."""

    def __init__(self, key_fn, aggregator, memory_limit_bytes=DEFAULT_SORT_MEMORY, name=None):
        super().__init__(key_fn, aggregator, memory_limit_bytes, name or "HashSortGroupBy")

    def grouped_stream(self, ctx, stream):
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
        with self._runs(ctx) as runs:
            for item in stream:
                key = key_fn(item)
                state = table.get(key)
                new_key = state is None
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
            yield from self._finished(runs, _named_sorted(names, table))


def _named_sorted(names, table):
    return sorted(zip(names, table.values()), key=LEAD)


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
        finish = self.aggregator.finish
        seen = set()
        for key, state in self.aggregator.fold_clustered(self.key_fn, stream):
            if key in seen:
                raise StorageError(
                    "preclustered group-by saw key %r in two clusters" % (key,)
                )
            seen.add(key)
            yield finish(key, state)

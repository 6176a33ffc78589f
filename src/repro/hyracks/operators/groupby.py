"""The three group-by implementations from the paper (Section 4).

* **Sort-based**: buffers raw tuples, sorts each memory-full batch, and
  aggregates while spilling sorted runs of partial states; a final
  multiway merge combines partial states across runs.
* **HashSort**: aggregates into a hash table first (a win when the number
  of distinct keys is small — e.g. few distinct message receivers), and
  sorts only when spilling or emitting.
* **Preclustered**: assumes the input is already clustered by key and
  aggregates in one constant-memory pass (used below merging connectors).

All strategies emit groups in key order (preclustered preserves its input
order, which is sorted by assumption), because the downstream ``Msg``
storage and index joins require vid-sorted streams.
"""

import heapq

from repro.common.errors import StorageError
from repro.common.serde import ListSerde
from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.operators.sort import DEFAULT_SORT_MEMORY, budgeted_batches
from repro.hyracks.storage.run_file import RunFileReader, RunFileWriter


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

    def finish(self, key, state):
        """Produce the output tuple for a completed group."""
        raise NotImplementedError

    def state_serde(self):
        """Serde used to spill partial states; ``None`` forbids spilling."""
        return None

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
    """Shared spill/merge machinery for the two re-grouping strategies."""

    def __init__(self, key_fn, aggregator, memory_limit_bytes, name):
        super().__init__(name)
        self.key_fn = key_fn
        self.aggregator = aggregator
        self.memory_limit = int(memory_limit_bytes)

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        return {self.OUT: list(self.grouped_stream(ctx, stream))}

    def grouped_stream(self, ctx, stream):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _spill_states(self, ctx, sorted_states):
        serde = self.aggregator.state_serde()
        if serde is None:
            raise StorageError(
                "%s exceeded its memory budget but the aggregator cannot spill"
                % self.name
            )
        path = ctx.files.create_temp_path("groupby-run")
        with RunFileWriter(path, ctx.files) as writer:
            for key, state in sorted_states:
                writer.append(key, serde.dumps(state))
        return path

    def _merge_all(self, ctx, runs, in_memory_sorted):
        serde = self.aggregator.state_serde()

        def replay(path):
            for key, data in RunFileReader(path, ctx.files):
                yield key, serde.loads(data)

        streams = [replay(path) for path in runs]
        if in_memory_sorted:
            streams.append(iter(in_memory_sorted))
        merged = heapq.merge(*streams, key=lambda pair: pair[0])
        current_key = None
        current_state = None
        try:
            for key, state in merged:
                if key == current_key:
                    current_state = self.aggregator.merge(current_state, state)
                else:
                    if current_key is not None:
                        yield self.aggregator.finish(current_key, current_state)
                    current_key, current_state = key, state
            if current_key is not None:
                yield self.aggregator.finish(current_key, current_state)
        finally:
            for path in runs:
                ctx.files.delete_path(path)


class SortGroupByOperator(_SpillingGroupByBase):
    """Sort-based group-by: sort, aggregate adjacent, spill, merge."""

    def __init__(self, key_fn, aggregator, tuple_serde, memory_limit_bytes=DEFAULT_SORT_MEMORY, name=None):
        super().__init__(key_fn, aggregator, memory_limit_bytes, name or "SortGroupBy")
        self.tuple_serde = tuple_serde

    def grouped_stream(self, ctx, stream):
        runs = []
        batches = budgeted_batches(
            stream, self.key_fn, self.tuple_serde, self.memory_limit
        )
        buffer = next(batches)
        for following in batches:
            runs.append(self._spill_states(ctx, self._aggregate_sorted(buffer)))
            buffer = following
        in_memory = self._aggregate_sorted(buffer) if buffer else []
        if not runs:
            for key, state in in_memory:
                yield self.aggregator.finish(key, state)
            return
        for output in self._merge_all(ctx, runs, in_memory):
            yield output

    def _aggregate_sorted(self, buffer):
        """Sort raw tuples and fold adjacent equal keys into states."""
        buffer.sort(key=lambda pair: pair[0])
        aggregated = []
        current_key = None
        current_state = None
        for key, item in buffer:
            if key != current_key:
                if current_key is not None:
                    aggregated.append((current_key, current_state))
                current_key = key
                current_state = self.aggregator.create()
            current_state = self.aggregator.step(current_state, item)
        if current_key is not None:
            aggregated.append((current_key, current_state))
        return aggregated


class HashSortGroupByOperator(_SpillingGroupByBase):
    """HashSort group-by: hash-aggregate in memory, sort only to spill."""

    def __init__(self, key_fn, aggregator, memory_limit_bytes=DEFAULT_SORT_MEMORY, name=None):
        super().__init__(key_fn, aggregator, memory_limit_bytes, name or "HashSortGroupBy")

    def grouped_stream(self, ctx, stream):
        aggregator = self.aggregator
        state_size = aggregator.state_size
        state_serde = aggregator.state_serde()
        # Fixed-width states do not grow: only a new key adds bytes.
        grows = state_serde is None or state_serde.fixed_size is None
        runs = []
        table = {}
        table_bytes = 0
        for item in stream:
            key = self.key_fn(item)
            state = table.get(key)
            new_key = state is None
            if new_key:
                state = aggregator.create()
                table_bytes += len(key)
            if new_key or grows:
                before = state_size(state)
                state = aggregator.step(state, item)
                table_bytes += state_size(state) - before
            else:
                state = aggregator.step(state, item)
            table[key] = state
            if table_bytes >= self.memory_limit:
                runs.append(self._spill_states(ctx, sorted(table.items())))
                table = {}
                table_bytes = 0
        in_memory = sorted(table.items())
        if not runs:
            for key, state in in_memory:
                yield self.aggregator.finish(key, state)
            return
        for output in self._merge_all(ctx, runs, in_memory):
            yield output


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
        current_key = None
        current_state = None
        seen = set()
        for item in stream:
            key = self.key_fn(item)
            if key != current_key:
                if current_key is not None:
                    yield self.aggregator.finish(current_key, current_state)
                    seen.add(current_key)
                if key in seen:
                    raise StorageError(
                        "preclustered group-by saw key %r in two clusters" % (key,)
                    )
                current_key = key
                current_state = self.aggregator.create()
            current_state = self.aggregator.step(current_state, item)
        if current_key is not None:
            yield self.aggregator.finish(current_key, current_state)

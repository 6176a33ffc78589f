"""Spill boundaries are where the per-tuple byte counter put them.

The sort and the two re-grouping group-bys budget by serialized bytes.
They now size a fixed-width tuple serde once (a tuple budget) and
fixed-width aggregation states only for new keys; the run files they
write must be the ones the original counter — ``len(dumps(item))`` added
per tuple, before/after sizes per state — produced: same number of runs,
same bytes in each, same output.
"""

import random
import types

import pytest

from repro.common import serde
from repro.common.serde import encode_key
from repro.hyracks.operators.groupby import (
    GroupAggregator,
    HashSortGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.operators.sort import ExternalSortOperator
from repro.pregelix.api import DefaultListCombiner
from repro.pregelix.physical import _ReceiverCombineAggregator
from tests.hyracks import per_tuple_reference as reference_loops
from tests.hyracks.per_tuple_reference import RecordingFiles

BUDGET = 16 << 10
MESSAGES = 5000


@pytest.fixture(autouse=True)
def runs_extent_by_extent(monkeypatch):
    """Every run an operator spills is recorded on its own."""
    reference_loops.record_extents(monkeypatch)


class SumAggregator(GroupAggregator):
    def create(self):
        return 0.0

    def step(self, state, item):
        return state + item[1]

    def merge(self, left, right):
        return left + right

    def finish(self, key, state):
        return (key, state)

    def state_serde(self):
        return serde.FLOAT64


def fixed_case(rng):
    """Raw ``(vid, payload)`` messages, summed: every width fixed.
    Whole-number payloads, so sums do not depend on the spill order."""
    stream = [(rng.randrange(600), float(rng.randrange(100))) for _ in range(MESSAGES)]
    return (
        stream,
        lambda item: encode_key(item[0]),
        serde.TupleSerde(serde.INT64, serde.FLOAT64),
        SumAggregator(),
    )


def variable_case(rng):
    """Combined ``(key, [payloads])`` messages, concatenated: the default
    combiner's bundles, variable in width."""
    bundles = serde.ListSerde(serde.FLOAT64)
    stream = [
        (encode_key(rng.randrange(600)),
         [rng.uniform(0, 1) for _ in range(rng.randrange(0, 6))])
        for _ in range(MESSAGES)
    ]
    return (
        stream,
        lambda item: item[0],
        serde.TupleSerde(serde.KEY, bundles),
        _ReceiverCombineAggregator(DefaultListCombiner(), bundles),
    )


CASES = {"fixed": fixed_case, "variable": variable_case}


# The loops as they were, sizing every tuple by encoding it.
def reference_sorted_stream(operator, ctx, stream):
    runs, buffer, buffered_bytes = [], [], 0
    for item in stream:
        buffer.append((operator.sort_key_fn(item), item))
        buffered_bytes += len(operator.tuple_serde.dumps(item))
        if buffered_bytes >= operator.memory_limit:
            runs.append(reference_loops.sort_spill(ctx, buffer, operator.tuple_serde))
            buffer, buffered_bytes = [], 0
    if buffer and runs:
        runs.append(reference_loops.sort_spill(ctx, buffer, operator.tuple_serde))
        buffer = []
    for path in runs:
        ctx.files.delete_path(path)
    return len(runs), sorted(buffer, key=lambda pair: pair[0])


def reference_sort_groupby_runs(operator, ctx, stream):
    runs, buffer, buffered_bytes = [], [], 0
    for item in stream:
        buffer.append((operator.key_fn(item), item))
        buffered_bytes += len(operator.tuple_serde.dumps(item))
        if buffered_bytes >= operator.memory_limit:
            runs.append(reference_loops.spill_states(
                ctx, operator.name, operator.aggregator,
                reference_loops.aggregate_sorted(operator.aggregator, buffer),
            ))
            buffer, buffered_bytes = [], 0
    for path in runs:
        ctx.files.delete_path(path)


def reference_hashsort_runs(operator, ctx, stream):
    aggregator = operator.aggregator

    def size(state):
        if state is getattr(aggregator, "_EMPTY", None):
            return 1
        return len(aggregator.state_serde().dumps(state))

    runs, table, table_bytes = [], {}, 0
    for item in stream:
        key = operator.key_fn(item)
        state = table.get(key)
        if state is None:
            state = aggregator.create()
            table_bytes += len(key)
        before = size(state)
        state = aggregator.step(state, item)
        table[key] = state
        table_bytes += size(state) - before
        if table_bytes >= operator.memory_limit:
            runs.append(reference_loops.spill_states(
                ctx, operator.name, aggregator, sorted(table.items())
            ))
            table, table_bytes = {}, 0
    for path in runs:
        ctx.files.delete_path(path)


def contexts(tmp_path):
    return [
        types.SimpleNamespace(files=RecordingFiles(str(tmp_path / name)))
        for name in ("actual", "reference")
    ]


def copy_of(stream):
    """Aggregators fold into the lists they are given."""
    return [(key, list(value) if isinstance(value, list) else value)
            for key, value in stream]


@pytest.mark.parametrize("case", sorted(CASES))
def test_external_sort_spills_where_the_byte_counter_did(tmp_path, case):
    stream, key_fn, tuple_serde, _ = CASES[case](random.Random(15))
    actual, reference = contexts(tmp_path)
    operator = ExternalSortOperator(key_fn, tuple_serde, memory_limit_bytes=BUDGET)
    output = list(operator.sorted_stream(actual, stream))
    runs, _ = reference_sorted_stream(operator, reference, stream)
    assert runs > 3
    assert actual.files.run_sizes == reference.files.run_sizes
    assert output == sorted(stream, key=key_fn)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sort_groupby_spills_where_the_byte_counter_did(tmp_path, case):
    stream, key_fn, tuple_serde, aggregator = CASES[case](random.Random(16))
    actual, reference = contexts(tmp_path)
    operator = SortGroupByOperator(
        key_fn, aggregator, tuple_serde, memory_limit_bytes=BUDGET
    )
    output = list(operator.grouped_stream(actual, copy_of(stream)))
    reference_sort_groupby_runs(operator, reference, copy_of(stream))
    assert len(reference.files.run_sizes) > 3
    assert actual.files.run_sizes == reference.files.run_sizes
    in_memory = SortGroupByOperator(key_fn, aggregator, tuple_serde)
    assert output == list(in_memory.grouped_stream(actual, copy_of(stream)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_hashsort_groupby_spills_where_the_byte_counter_did(tmp_path, case):
    stream, key_fn, _, aggregator = CASES[case](random.Random(17))
    # Few distinct keys: a smaller budget, or the table never fills.
    budget = 2 << 10
    actual, reference = contexts(tmp_path)
    operator = HashSortGroupByOperator(key_fn, aggregator, memory_limit_bytes=budget)
    output = list(operator.grouped_stream(actual, copy_of(stream)))
    reference_hashsort_runs(operator, reference, copy_of(stream))
    assert len(reference.files.run_sizes) > 3
    assert actual.files.run_sizes == reference.files.run_sizes
    in_memory = HashSortGroupByOperator(key_fn, aggregator)
    assert output == list(in_memory.grouped_stream(actual, copy_of(stream)))


def test_a_budget_smaller_than_one_tuple_spills_every_tuple(tmp_path):
    stream, key_fn, tuple_serde, _ = fixed_case(random.Random(18))
    (ctx, _) = contexts(tmp_path)
    for limit in (0, 1, 24):
        ctx.files.run_sizes.clear()
        operator = ExternalSortOperator(key_fn, tuple_serde, memory_limit_bytes=limit)
        assert list(operator.sorted_stream(ctx, stream[:10])) == sorted(
            stream[:10], key=key_fn
        )
        assert len(ctx.files.run_sizes) == 10
